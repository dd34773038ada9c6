// Package core orchestrates the full study: it provisions every
// environment at every scale, builds the per-cloud containers, deploys the
// Flux Operator on the Kubernetes services, runs all 11 applications for
// five iterations per scale, meters the spend, and aggregates the records
// into the paper's tables and figures.
//
// # Study specs
//
// What a study runs is declared by a StudySpec — environment selection,
// application selection, scales, iterations, a chaos-plan reference, the
// §4.2 operating disciplines (pause, test-clusters, abort-over-budget),
// and the execution policy (workers). DefaultSpec is the paper's
// full 13×11×4×5 matrix; any other scenario is a different spec (built
// programmatically or parsed from a line-oriented spec file via
// ParseSpec/LoadSpec), not a code change. Runner is the one way to run
// a spec.
//
// # Execution model
//
// Execution follows a hierarchical work-partitioning plan. The study's
// environments are mutually independent, so a run executes them as
// shards over a worker pool (the spec's workers, default runtime.NumCPU()).
// Each shard owns a complete private substrate set — a sim.Simulation
// (virtual clock, event queue, named RNG streams derived from the study's
// root seed), a trace.Log, and its own meter, quota manager, provisioner,
// builder, and registry — so no mutable state is shared between
// concurrently running environments. Every shard consumes planned draws:
// one unit per (environment, application) pair precomputes the pure
// model/hookup draws (see unit.go). Each unit runs as its own pool task,
// and an environment's lifecycle assembly runs once its last unit has
// resolved, so the parallelism cap is env×app, not the environment
// count.
//
// # Determinism
//
// Every random draw a unit or shard makes comes from a stream named for
// its owner ("core/run/<env>/<app>", "cloud/provision/<env>",
// "sched/<env>", ...), and streams are derived from (seed, name) alone.
// An output therefore depends only on the root seed and its own
// coordinates, never on goroutine scheduling. The hierarchical merge
// stitches units into environments in canonical application order and
// shard results, logs, and charges into the study in the canonical matrix
// order of the spec's environments, shifting each shard's virtual
// timestamps by the summed duration of the shards before it —
// reconstructing one sequential campaign timeline. The result: a run's
// dataset is byte-identical for every worker count, and two runs with
// the same spec are byte-identical full stop.
//
// # Sessions and observability
//
// The only execution surface is Runner: Run(ctx, spec) blocks for the
// dataset, Start(ctx, spec) returns a Session — a subscribable event
// stream (study/env/unit started·finished·cached, injected incidents,
// plan progress), Progress counters, cooperative Cancel, and Wait.
// Events are pure observation (no RNG draws, no ordering impact), so a
// subscribed session is byte-identical to an unobserved run;
// cancellation stops dispatching new work, drains in-flight shards at
// scale/app boundaries, and returns ctx's error without ever tearing the
// store (artifact writes are atomic).
//
// # Caching and persistence
//
// A run goes store → compute: when Runner.Store is set (-store DIR via
// internal/cli), the persistent content-addressed ResultStore serves a
// spec it holds, keyed by canonical spec hash; otherwise the study
// executes and, with a store, is saved. A Runner keeps no dataset
// between runs, so each call runs its own execution. The store holds
// whole-study bundles under "study/<spec-hash>" and per-(env, app) unit
// outputs under "unit/<sub-hash>" (UnitKey); because a unit's sub-hash
// covers only that unit's own inputs, a spec that edits one environment
// of a previously stored study recomputes only that environment's units
// and decodes the rest — incremental execution. Warm results are
// byte-identical to cold compute; unreadable artifacts degrade to a
// logged warning and a recompute.
package core
