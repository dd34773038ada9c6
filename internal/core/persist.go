package core

// The persistent tier of the result pipeline. The paper's study archived
// every run dataset content-addressed in an OCI registry (25,541 of
// them); this file gives the reproduction the same durable-store
// discipline: study datasets and (env, app) unit outputs serialize into
// an oras registry over a shared blob store (in-memory for tests, on
// disk via -store for the cmd/ tools and CI), keyed by content hashes of
// exactly the inputs that determine them.
//
// Two artifact granularities live in the store:
//
//   - "study/<spec-hash>": a complete study dataset (runs, trace,
//     billing ledger, audits) under the spec's canonical hash — the
//     whole-study warm path of Runner.Run.
//   - "unit/<sub-hash>": one (env, app) unit's precomputed model and
//     hookup draws under a sub-hash of only that unit's inputs (seed,
//     env row with scales, app, iterations, the chaos-plan slice
//     matching the env) — the incremental path. Because the sub-hash
//     ignores every other environment in the spec, a spec that edits one
//     env re-executes only that env's units; unchanged envs decode their
//     units from the store.
//
// Warm results are byte-identical to cold compute: every float, duration
// and error message round-trips exactly (JSON floats use shortest
// round-trip encoding, durations are integer nanoseconds, errors flatten
// to their messages and known sentinels rehydrate). Any read failure —
// missing tag, corrupt blob, schema drift — degrades to a logged warning
// and a recompute, never an error: the store is a cache, the simulation
// is the truth.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/chaos"
	"cloudhpc/internal/cloud"
	"cloudhpc/internal/containers"
	"cloudhpc/internal/dataset"
	"cloudhpc/internal/jsonl"
	"cloudhpc/internal/oras"
	"cloudhpc/internal/sim"
	"cloudhpc/internal/store"
	"cloudhpc/internal/trace"
)

// storeSchemaVersion is bumped whenever the serialized forms change;
// artifacts from another version are treated as misses and recomputed.
// v2: study metadata gained the container-build funnel.
const storeSchemaVersion = 2

// Record converts a live run record to its archived form (errors flatten
// to strings so the archive round-trips through JSON).
func (r RunRecord) Record() dataset.Record {
	rec := dataset.Record{
		Env: r.EnvKey, App: r.App, Nodes: r.Nodes, Iter: r.Iter,
		FOM: r.FOM, Unit: r.Unit, Wall: r.Wall, Hookup: r.Hookup, CostUSD: r.CostUSD,
	}
	if r.Err != nil {
		rec.Error = r.Err.Error()
	}
	return rec
}

// Records converts the dataset's run list to archived form, in run
// order, for cmd/archive to push through dataset.Push. The persistent
// store encodes its bundles straight from r.Runs instead.
func (r *Results) Records() []dataset.Record {
	out := make([]dataset.Record, len(r.Runs))
	for i, run := range r.Runs {
		out[i] = run.Record()
	}
	return out
}

// runFromRecord is the decode inverse of RunRecord.Record.
func runFromRecord(rec dataset.Record) RunRecord {
	return RunRecord{
		EnvKey: rec.Env, App: rec.App, Nodes: rec.Nodes, Iter: rec.Iter,
		FOM: rec.FOM, Unit: rec.Unit, Err: runErr(rec.Error),
		Wall: rec.Wall, Hookup: rec.Hookup, CostUSD: rec.CostUSD,
	}
}

// runErrSentinels are the canonical run-error values a dataset can
// carry; decode maps archived messages back onto them so errors.Is
// answers identically for cold and warm datasets.
var runErrSentinels = []error{
	apps.ErrNotSupported, apps.ErrTimeout, apps.ErrSegfault, apps.ErrOutputLost,
}

// runErr rehydrates an archived error string. Known sentinels map back
// to their canonical values so errors.Is keeps working on decoded
// datasets; everything else keeps its message, which is all the golden
// snapshot and every report render.
func runErr(msg string) error {
	if msg == "" {
		return nil
	}
	for _, s := range runErrSentinels {
		if msg == s.Error() {
			return s
		}
	}
	return errors.New(msg)
}

// StoreStats is a snapshot of a result store's hit/miss accounting — the
// compute-count probe the incremental-execution tests assert against.
type StoreStats struct {
	StudyHits        int64 // whole-study warm loads served
	StudyMisses      int64 // whole-study lookups that fell through
	UnitHits         int64 // (env, app) units decoded instead of computed
	UnitMisses       int64 // (env, app) units that had to be computed
	CorruptFallbacks int64 // artifacts present but unreadable (fell back)
}

// ResultStore is the persistent tier in front of study execution: an
// oras registry over a pluggable blob store holding study bundles and
// unit artifacts. Safe for concurrent use. The zero value is not
// usable; use NewResultStore or OpenResultStore.
type ResultStore struct {
	reg *oras.Registry
	// Logf receives warm-hit notices and corruption warnings (default
	// log.Printf, so cmd/ tools surface them on stderr). Set to nil to
	// silence, or to a test capture to assert on them. Assign before
	// first use; the store calls it without synchronization.
	Logf func(format string, args ...any)

	studyHits, studyMisses, unitHits, unitMisses, corrupt atomic.Int64
}

// NewResultStore returns a result store over the given blob store.
func NewResultStore(bs store.BlobStore) *ResultStore {
	return &ResultStore{reg: oras.NewRegistryWith(bs), Logf: log.Printf}
}

// OpenResultStore opens (creating if needed) an on-disk result store —
// the -store DIR flag's implementation.
func OpenResultStore(dir string) (*ResultStore, error) {
	bs, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return NewResultStore(bs), nil
}

// Registry exposes the store's oras registry so other archival users
// (cmd/archive) can share one content-addressed store with the result
// tiers.
func (rs *ResultStore) Registry() *oras.Registry { return rs.reg }

// Stats returns a snapshot of the store's accounting.
func (rs *ResultStore) Stats() StoreStats {
	return StoreStats{
		StudyHits:        rs.studyHits.Load(),
		StudyMisses:      rs.studyMisses.Load(),
		UnitHits:         rs.unitHits.Load(),
		UnitMisses:       rs.unitMisses.Load(),
		CorruptFallbacks: rs.corrupt.Load(),
	}
}

func (rs *ResultStore) logf(format string, args ...any) {
	if rs.Logf != nil {
		rs.Logf(format, args...)
	}
}

// studyMeta is the "meta.json" of a study bundle: everything in Results
// that is not runs, trace, or billing ledger.
type studyMeta struct {
	Version   int                              `json:"version"`
	Hash      string                           `json:"hash"`
	Seed      uint64                           `json:"seed"`
	Runs      int                              `json:"runs"`
	ClockNs   int64                            `json:"clock_ns"`
	ECCOn     map[string]float64               `json:"ecc_on,omitempty"`
	Hookups   map[string]map[int]time.Duration `json:"hookups,omitempty"`
	Findings  []apps.Finding                   `json:"findings,omitempty"`
	Incidents []chaos.Incident                 `json:"incidents,omitempty"`
	Recovery  chaos.Accounting                 `json:"recovery"`
	Builds    containers.Funnel                `json:"builds"`
}

// SaveStudy archives a complete study dataset under the resolved spec's
// canonical hash. Saving is idempotent: identical datasets dedup to the
// same blobs. The four bundle files encode concurrently — they read
// disjoint, by-now-immutable parts of the results (runs, trace, ledger,
// metadata), so the encodes are independent and the bundle bytes are
// identical to a serial encode. The runs and the trace encode line by
// line from the live records, with no staged copy of either.
func (rs *ResultStore) SaveStudy(r *ResolvedSpec, res *Results) error {
	key := r.Hash()
	var (
		wg                                   sync.WaitGroup
		runs, traceData, meterData, metaData []byte
		runsErr, traceErr, meterErr, metaErr error
	)
	wg.Add(3)
	go func() {
		defer wg.Done()
		runs, runsErr = jsonl.MarshalEach(len(res.Runs), func(b []byte, i int) ([]byte, error) {
			rec := res.Runs[i].Record()
			return rec.AppendJSONL(b)
		})
	}()
	go func() {
		defer wg.Done()
		traceData, traceErr = res.Log.MarshalJSONL()
	}()
	go func() {
		defer wg.Done()
		meterData, meterErr = res.Meter.MarshalCharges()
	}()
	metaData, metaErr = json.Marshal(studyMeta{
		Version: storeSchemaVersion, Hash: key, Seed: r.Seed,
		Runs:    len(res.Runs),
		ClockNs: int64(res.Meter.Now()),
		ECCOn:   res.ECCOn, Hookups: res.Hookups, Findings: res.Findings,
		Incidents: res.Incidents, Recovery: res.Recovery, Builds: res.Builds,
	})
	wg.Wait()
	for _, err := range []error{runsErr, traceErr, meterErr, metaErr} {
		if err != nil {
			return err
		}
	}
	_, err := rs.reg.Push("study/"+key, dataset.StudyBundleType,
		map[string][]byte{
			"meta.json":   metaData,
			"runs.jsonl":  runs,
			"trace.jsonl": traceData,
			"meter.jsonl": meterData,
		},
		map[string]string{
			"cloudhpc.seed": strconv.FormatUint(r.Seed, 10),
			"cloudhpc.runs": strconv.Itoa(len(res.Runs)),
		})
	return err
}

// LoadStudy returns the archived dataset for a resolved spec, or (nil,
// false) on a miss. A present-but-unreadable artifact (corrupt blob,
// schema drift, torn write) is a logged warning and a miss — the caller
// falls back to compute.
func (rs *ResultStore) LoadStudy(r *ResolvedSpec) (*Results, bool) {
	key := r.Hash()
	files, err := rs.reg.Pull("study/" + key)
	if errors.Is(err, oras.ErrTagUnknown) {
		rs.studyMisses.Add(1)
		return nil, false
	}
	if err != nil {
		rs.corrupt.Add(1)
		rs.studyMisses.Add(1)
		rs.logf("core: result store: study/%s unreadable (%v); falling back to compute", key, err)
		return nil, false
	}
	res, err := decodeStudy(r, key, files)
	if err != nil {
		rs.corrupt.Add(1)
		rs.studyMisses.Add(1)
		rs.logf("core: result store: study/%s undecodable (%v); falling back to compute", key, err)
		return nil, false
	}
	rs.studyHits.Add(1)
	rs.logf("core: result store: warm hit study/%s", key)
	return res, true
}

// decodeStudy rebuilds a Results from a study bundle's files. The meter
// is reconstructed against a fresh simulation advanced to the archived
// end-of-study clock, so lag-dependent views (ReportedSpend) read
// exactly as they did when the dataset was saved. The three JSONL files
// decode concurrently once the metadata validates — they are
// independent inputs, so the rebuilt Results is identical to a serial
// decode.
func decodeStudy(r *ResolvedSpec, key string, files map[string][]byte) (*Results, error) {
	// Every bundle file must be present: a missing runs.jsonl would
	// otherwise decode as a plausible-looking empty dataset (JSONL of
	// nothing is zero records, no error) instead of falling back.
	for _, name := range []string{"meta.json", "runs.jsonl", "trace.jsonl", "meter.jsonl"} {
		if _, ok := files[name]; !ok {
			return nil, fmt.Errorf("bundle missing %s", name)
		}
	}
	var meta studyMeta
	if err := json.Unmarshal(files["meta.json"], &meta); err != nil {
		return nil, fmt.Errorf("meta.json: %w", err)
	}
	if meta.Version != storeSchemaVersion {
		return nil, fmt.Errorf("schema version %d, want %d", meta.Version, storeSchemaVersion)
	}
	if meta.Hash != key {
		return nil, fmt.Errorf("bundle hash %s under tag study/%s", meta.Hash, key)
	}
	var (
		wg         sync.WaitGroup
		lg         *trace.Log
		chargeRecs []cloud.ChargeRecord
		traceErr   error
		meterErr   error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		lg, traceErr = trace.UnmarshalJSONL(files["trace.jsonl"])
	}()
	go func() {
		defer wg.Done()
		chargeRecs, meterErr = cloud.UnmarshalCharges(files["meter.jsonl"])
	}()
	runs, runsErr := decodeRuns(files["runs.jsonl"])
	wg.Wait()
	for _, err := range []error{runsErr, traceErr, meterErr} {
		if err != nil {
			return nil, err
		}
	}
	if len(runs) != meta.Runs {
		return nil, fmt.Errorf("bundle holds %d runs, metadata says %d", len(runs), meta.Runs)
	}

	s := sim.New(meta.Seed)
	s.Clock.AdvanceTo(time.Duration(meta.ClockNs))
	meter := cloud.NewMeter(s, lg)
	for _, p := range []cloud.Provider{cloud.AWS, cloud.Azure, cloud.Google} {
		meter.SetBudget(p, BudgetPerCloudUSD)
	}
	meter.RestoreCharges(chargeRecs)

	res := &Results{
		Runs: runs,
		Log:  lg, Meter: meter, Envs: r.Envs,
		ECCOn: meta.ECCOn, Hookups: meta.Hookups,
		Findings: meta.Findings, Incidents: meta.Incidents, Recovery: meta.Recovery,
		Builds: meta.Builds,
	}
	if res.ECCOn == nil {
		res.ECCOn = make(map[string]float64)
	}
	if res.Hookups == nil {
		res.Hookups = make(map[string]map[int]time.Duration)
	}
	return res, nil
}

// decodeRuns decodes a bundle's runs.jsonl through a cursor straight
// into run records, as decodeUnitPlan does for units, with no
// intermediate record slice.
func decodeRuns(data []byte) ([]RunRecord, error) {
	runs := make([]RunRecord, 0, jsonl.Lines(data))
	cur := jsonl.NewDecoder[dataset.Record]("dataset", data)
	for {
		rec, ok, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return runs, nil
		}
		runs = append(runs, runFromRecord(rec))
	}
}

// UnitKey computes the sub-hash one (env, app) unit is stored under: a
// content hash of exactly the unit's own slice of the spec-hash inputs —
// seed, the environment row (key and effective scales), the application,
// the iteration count, and the chaos-plan rules matching the environment.
// Everything else a spec says (which other environments it runs, its
// worker policy) is invisible here, which is what lets a
// spec edit that touches one environment reuse every other environment's
// stored units.
//
// Today's unit draws are chaos-independent (faults perturb the
// lifecycle after the draw), so the chaos slice makes the key strictly
// conservative: a plan edit that targets the environment re-keys its
// units even though their bytes would not change. That is deliberate
// cheap insurance — a future fault kind that does reach into the draw
// path can never silently serve pre-chaos units — at the cost of one
// redundant unit set per (env, plan-slice) pair.
func UnitKey(seed uint64, env apps.EnvSpec, app string, iterations int, plan *chaos.Plan) string {
	return unitKey(seed, env, app, iterations, unitChaosText(plan, env.Key))
}

// unitKey is UnitKey over the environment's chaos-plan slice already
// rendered (unitChaosText), so a shard renders its slice once for all
// of its units. The key text is built in one buffer and hashed once.
func unitKey(seed uint64, env apps.EnvSpec, app string, iterations int, chaosSlice string) string {
	var buf [512]byte
	b := append(buf[:0], "unit v"...)
	b = strconv.AppendInt(b, storeSchemaVersion, 10)
	b = append(b, "\nseed "...)
	b = strconv.AppendUint(b, seed, 10)
	b = append(b, "\nenv "...)
	b = append(b, env.Key...)
	b = append(b, " scales="...)
	for i, n := range env.Scales {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	b = append(b, "\napp "...)
	b = append(b, app...)
	b = append(b, "\niterations "...)
	b = strconv.AppendInt(b, int64(iterations), 10)
	b = append(b, "\nchaos:\n"...)
	b = append(b, chaosSlice...)
	sum := sha256.Sum256(b)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// saveUnit archives one computed unit. Failures are warnings: a unit
// that fails to store just recomputes next time.
func (rs *ResultStore) saveUnit(meta dataset.UnitMeta, u *unitPlan) {
	files, err := unitFiles(meta, u)
	if err == nil {
		_, err = rs.reg.Push("unit/"+meta.Key, dataset.UnitArtifactType, files, nil)
	}
	if err != nil {
		rs.logf("core: result store: storing unit/%s failed: %v", meta.Key, err)
	}
}

// unitFiles encodes a unit artifact's files from its plan, each draw
// straight from its planned run (CostUSD stays zero: cost is lifecycle
// accounting, not a draw). saveUnit and the fleet's ComputeUnitFiles
// both write units through it.
func unitFiles(meta dataset.UnitMeta, u *unitPlan) (map[string][]byte, error) {
	return dataset.MarshalUnit(meta, len(u.runs), func(i int) dataset.Record {
		pr := &u.runs[i]
		rec := dataset.Record{
			Env: meta.Env, App: meta.App, Nodes: pr.nodes, Iter: pr.iter,
			FOM: pr.result.FOM, Unit: pr.result.Unit,
			Wall: pr.result.Wall, Hookup: pr.hookup,
		}
		if pr.result.Err != nil {
			rec.Error = pr.result.Err.Error()
		}
		return rec
	})
}

// loadUnit returns the archived unit plan for a key, or (nil, false) on
// a miss; unreadable or mismatched artifacts warn and miss. The decoded
// runs are validated against the exact (nodes, iter) schedule the
// environment assembly will replay — a stale artifact that still
// decodes (a draw-schedule change not captured by the key or a schema
// bump) must degrade to recompute here, because once handed to the
// assembly an out-of-step plan fails the whole study.
func (rs *ResultStore) loadUnit(key string, env apps.EnvSpec, app string, iterations int) (*unitPlan, bool) {
	files, err := rs.reg.Pull("unit/" + key)
	if errors.Is(err, oras.ErrTagUnknown) {
		rs.unitMisses.Add(1)
		return nil, false
	}
	if err != nil {
		rs.corrupt.Add(1)
		rs.unitMisses.Add(1)
		rs.logf("core: result store: unit/%s unreadable (%v); recomputing", key, err)
		return nil, false
	}
	meta, cur, err := dataset.UnitCursor(files)
	if err == nil && (meta.Version != storeSchemaVersion || meta.Key != key || meta.Env != env.Key || meta.App != app) {
		err = fmt.Errorf("unit metadata %s/%s v%d under key %s", meta.Env, meta.App, meta.Version, key)
	}
	var u *unitPlan
	if err == nil {
		u, err = decodeUnitPlan(env, app, iterations, meta, cur)
	}
	if err != nil {
		rs.corrupt.Add(1)
		rs.unitMisses.Add(1)
		rs.logf("core: result store: unit/%s undecodable (%v); recomputing", key, err)
		return nil, false
	}
	rs.unitHits.Add(1)
	return u, true
}

// decodeUnitPlan drains a unit artifact's record cursor into a unit
// plan in one streaming pass: each record is validated against the
// exact (nodes, iter) schedule planUnit would plan today as it decodes
// — the same loop shape, so the planned schedule and its archived form
// can never drift apart silently — and converted straight into its
// planned-run slot, with no intermediate record slice. The slots are
// sized by the schedule, never by the artifact's record count, which is
// checked only at the end: stored and pushed units are untrusted input.
// A stale artifact that still decodes (a draw-schedule change not
// captured by the key or a schema bump) must fail here, because once
// handed to the assembly an out-of-step plan fails the whole study.
func decodeUnitPlan(env apps.EnvSpec, app string, iterations int, meta dataset.UnitMeta, cur *jsonl.Decoder[dataset.Record]) (*unitPlan, error) {
	u := &unitPlan{runs: make([]plannedRun, 0, scheduledRuns(env, app, iterations))}
	maxNodes := apps.MaxNodesFor(env)
	for _, nodes := range env.Scales {
		if nodes > maxNodes {
			continue
		}
		iters := itersFor(env, nodes, app, iterations)
		for it := 0; it < iters; it++ {
			rec, ok, err := cur.Next()
			if err != nil {
				return nil, err
			}
			if !ok || rec.Nodes != nodes || rec.Iter != it {
				return nil, fmt.Errorf("stale draw schedule at record %d (want nodes=%d iter=%d)", len(u.runs), nodes, it)
			}
			u.runs = append(u.runs, plannedRun{
				nodes: rec.Nodes, iter: rec.Iter,
				result: apps.Result{FOM: rec.FOM, Unit: rec.Unit, Wall: rec.Wall, Err: runErr(rec.Error)},
				hookup: rec.Hookup,
			})
		}
	}
	if rec, ok, err := cur.Next(); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("stale draw schedule: record (nodes=%d iter=%d) beyond the %d planned", rec.Nodes, rec.Iter, len(u.runs))
	}
	if len(u.runs) != meta.Records {
		return nil, fmt.Errorf("unit holds %d records, metadata says %d", len(u.runs), meta.Records)
	}
	return u, nil
}
