package core

// The fleet seam: what internal/fleet needs from the executor to
// distribute (env, app) units across remote worker processes.
//
// A unit is the natural distribution quantum because it is already a
// pure function of spec-sliced inputs — UnitKey hashes exactly the
// inputs that determine a unit's bytes (seed, env row with effective
// scales, app, iterations, the env's chaos-plan slice), so any process
// that receives those inputs computes the identical artifact. UnitWork
// is that input tuple in wire form; ComputeUnitFiles is the worker-side
// recompute; AcceptUnit is the coordinator-side verification gate that
// admits a pushed artifact into the result store only after it decodes
// against the exact draw schedule the assembly will replay.
//
// Trust model: a worker is trusted to run the simulation honestly (the
// same trust a PR-7 sync peer gets — both feed the store), but nothing
// else. Framing, content addressing, metadata, and the (nodes, iter)
// schedule are all verified on arrival; an artifact that fails any check
// is refused and the unit degrades to local recompute, never to wrong
// bytes that could wedge the environment assembly.

import (
	"context"
	"fmt"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/chaos"
	"cloudhpc/internal/dataset"
	"cloudhpc/internal/network"
	"cloudhpc/internal/oras"
	"cloudhpc/internal/store"
)

// UnitWork is one (env, app) unit's complete input tuple — everything a
// remote process needs to recompute the unit byte-identically, and
// everything the coordinator needs to verify the result. Key is the
// UnitKey sub-hash of the other fields; a worker recomputes it from them
// and refuses mismatched work, so a corrupted assignment can never
// produce a plausibly-keyed artifact.
type UnitWork struct {
	Key        string `json:"key"`
	Seed       uint64 `json:"seed"`
	Env        string `json:"env"`
	Scales     []int  `json:"scales"`
	App        string `json:"app"`
	Iterations int    `json:"iterations"`
	// Chaos is the env's plan slice in plan-file syntax (chaos.Plan.String
	// of RulesFor(env)); empty when no rule targets the environment.
	Chaos string `json:"chaos,omitempty"`
}

// FleetDelegate is the executor's hook into a work-distribution
// coordinator. Offload publishes one unit for remote computation and
// blocks until a verified artifact for it has landed in the result store
// (true), or the coordinator decides the unit should be computed locally
// (false): no live workers, attempts exhausted, straggler deadline hit,
// coordinator shut down, or ctx cancelled. observe receives the unit's
// lease-lifecycle events (EventUnitLeased, EventUnitLeaseExpired) for
// the session stream; it may be invoked from coordinator goroutines and
// must be safe for that.
type FleetDelegate interface {
	Offload(ctx context.Context, work UnitWork, observe func(EventKind)) bool
}

// unitChaosText renders the chaos-plan slice of one environment in
// parseable plan-file syntax — the wire form of the same slice UnitKey
// hashes, so a worker that parses it back recomputes the identical key
// (RulesFor is idempotent on an already-sliced plan, and normalized
// rules round-trip through String/ParsePlan exactly).
func unitChaosText(plan *chaos.Plan, env string) string {
	if plan == nil {
		return ""
	}
	slice := &chaos.Plan{Rules: plan.RulesFor(env)}
	return slice.String()
}

// unitWork assembles the UnitWork tuple for one of the shard's units.
func (sh *shard) unitWork(key string, app string) UnitWork {
	return UnitWork{
		Key:        key,
		Seed:       sh.sim.Seed(),
		Env:        sh.spec.Key,
		Scales:     sh.spec.Scales,
		App:        app,
		Iterations: sh.rspec.Iterations,
		Chaos:      sh.unitChaos,
	}
}

// unitEnv reconstructs the environment row a UnitWork describes: the
// study's canonical spec for the env key with the work's effective
// scales applied — exactly the row UnitKey hashed and planUnit visits.
func unitEnv(w UnitWork) (apps.EnvSpec, error) {
	env, err := apps.EnvByKey(w.Env)
	if err != nil {
		return apps.EnvSpec{}, err
	}
	if len(w.Scales) == 0 {
		return apps.EnvSpec{}, fmt.Errorf("core: unit work for %s/%s has no scales", w.Env, w.App)
	}
	env.Scales = w.Scales
	return env, nil
}

// ComputeUnitFiles computes one offloaded unit from first principles —
// the worker half of the fleet protocol. It rebuilds the environment
// row and chaos slice from the work tuple, verifies the tuple's key
// against a recomputed UnitKey (refusing corrupted or stale
// assignments), runs the same planUnit the local executor would, and
// returns the unit artifact's files (unit.json + runs.jsonl) ready to
// push. Byte-identity needs no further argument: the draws come from
// the stream named (env, app) of a simulation seeded with the study
// seed, exactly as they would locally.
func ComputeUnitFiles(w UnitWork) (map[string][]byte, error) {
	env, err := unitEnv(w)
	if err != nil {
		return nil, err
	}
	if w.Iterations <= 0 {
		return nil, fmt.Errorf("core: unit work for %s/%s has iterations %d", w.Env, w.App, w.Iterations)
	}
	var plan *chaos.Plan
	if w.Chaos != "" {
		if plan, err = chaos.ParsePlan(w.Chaos); err != nil {
			return nil, fmt.Errorf("core: unit work chaos slice: %w", err)
		}
	}
	if got := UnitKey(w.Seed, env, w.App, w.Iterations, plan); got != w.Key {
		return nil, fmt.Errorf("core: unit work key %s does not match its inputs (recomputed %s)", w.Key, got)
	}
	models, err := apps.SelectModels([]string{w.App})
	if err != nil {
		return nil, err
	}
	u := planUnit(w.Seed, env, models[0], w.Iterations, network.NewHookupModel())
	return unitFiles(dataset.UnitMeta{
		Version: storeSchemaVersion, Key: w.Key, Seed: w.Seed,
		Env: w.Env, App: w.App, Iterations: w.Iterations,
	}, u)
}

// AcceptUnit is the coordinator-side verification gate for one pushed
// unit artifact: the manifest at manifestDigest (delivered through the
// chunked sync ingest, so every blob already verified its content
// address) is decoded and validated against the exact (nodes, iter)
// schedule the work tuple implies — the same decodeUnitPlan check a
// warm load performs — and only then tagged "unit/<key>" first-write-
// wins. A failed check leaves the store untouched and the caller falls
// back to local compute; a duplicate completion finds the tag already
// bound and is a harmless no-op.
func (rs *ResultStore) AcceptUnit(w UnitWork, manifestDigest string) error {
	if !store.ValidDigest(manifestDigest) {
		return fmt.Errorf("core: accept unit %s: malformed manifest digest %q", w.Key, manifestDigest)
	}
	env, err := unitEnv(w)
	if err != nil {
		return err
	}
	files, err := rs.reg.PullDigest(oras.Digest(manifestDigest))
	if err != nil {
		return fmt.Errorf("core: accept unit %s: %w", w.Key, err)
	}
	meta, cur, err := dataset.UnitCursor(files)
	if err != nil {
		return fmt.Errorf("core: accept unit %s: %w", w.Key, err)
	}
	if meta.Version != storeSchemaVersion || meta.Key != w.Key || meta.Seed != w.Seed ||
		meta.Env != w.Env || meta.App != w.App || meta.Iterations != w.Iterations {
		return fmt.Errorf("core: accept unit %s: artifact metadata %s/%s v%d does not match the work tuple", w.Key, meta.Env, meta.App, meta.Version)
	}
	if _, err := decodeUnitPlan(env, w.App, w.Iterations, meta, cur); err != nil {
		return fmt.Errorf("core: accept unit %s: %w", w.Key, err)
	}
	if _, err := rs.reg.TagIfAbsent("unit/"+w.Key, oras.Digest(manifestDigest)); err != nil {
		return fmt.Errorf("core: accept unit %s: %w", w.Key, err)
	}
	return nil
}
