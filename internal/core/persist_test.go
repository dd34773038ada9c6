package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/chaos"
	"cloudhpc/internal/dataset"
	"cloudhpc/internal/network"
	"cloudhpc/internal/oras"
	"cloudhpc/internal/store"
)

// quietStore returns a memory-backed result store that logs through the
// test instead of stderr.
func quietStore(t *testing.T) (*ResultStore, *store.Memory) {
	t.Helper()
	mem := store.NewMemory()
	rs := NewResultStore(mem)
	rs.Logf = t.Logf
	return rs, mem
}

// TestStoreWarmAndIncrementalByteIdenticalSweep is the acceptance sweep
// for the persistent tier: across workers {1,4,32}, clean and chaotic,
// three paths must be byte-identical to the store-free baseline —
//
//  1. cold compute with a store attached (units are saved as they
//     compute) — for the clean default spec the baseline is additionally
//     pinned against the committed golden file;
//  2. a warm whole-study load (decode, no compute);
//  3. an incremental rerun that finds the units stored but not the study
//     bundle, so every unit decodes from the store while the lifecycle
//     replays — it must add no unit miss (with no fleet attached, a unit
//     computes exactly when the store counts a miss). It runs between
//     path 1 and the SaveStudy that path 2 loads, the one window in which
//     the units are stored and the bundle is not.
func TestStoreWarmAndIncrementalByteIdenticalSweep(t *testing.T) {
	t.Parallel()
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_seed2025.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, chaosRef := range []string{"", "default"} {
		chaosRef := chaosRef
		name := "clean"
		if chaosRef != "" {
			name = "chaotic"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// Store-free baseline at default policy.
			baseSpec := &StudySpec{Seed: 2025, Chaos: chaosRef}
			stBase, _ := newTestStudy(t, baseSpec, nil)
			resBase, err := stBase.runSession(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			base := goldenSnapshot(resBase)
			if chaosRef == "" && base != string(golden) {
				t.Fatal("store-free baseline drifted from the committed golden file")
			}
			if chaosRef != "" && len(resBase.Incidents) == 0 {
				t.Fatal("chaotic baseline injected nothing; the sweep would prove nothing")
			}

			for _, w := range []int{1, 4, 32} {
				rs, _ := quietStore(t)
				spec := &StudySpec{Seed: 2025, Chaos: chaosRef, Workers: w}

				// Path 1: cold compute, store attached.
				stCold, r := newTestStudy(t, spec, rs)
				resCold, err := stCold.runSession(context.Background(), nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := goldenSnapshot(resCold); got != base {
					t.Fatalf("w=%d: cold store-attached dataset diverged from baseline", w)
				}
				coldMisses := rs.Stats().UnitMisses

				// Path 3: incremental — units present, bundle not yet saved.
				if _, ok := rs.LoadStudy(r); ok {
					t.Fatal("study bundle stored before SaveStudy")
				}
				stInc, _ := newTestStudy(t, spec, rs)
				resInc, err := stInc.runSession(context.Background(), nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := goldenSnapshot(resInc); got != base {
					t.Fatalf("w=%d: unit-reuse dataset not byte-identical", w)
				}
				if n := rs.Stats().UnitMisses - coldMisses; n != 0 {
					t.Fatalf("w=%d: incremental rerun recomputed %d units, want 0", w, n)
				}
				if coldMisses == 0 {
					t.Fatalf("w=%d: cold run computed no units — probe is broken", w)
				}

				// Path 2: whole-study warm load.
				if err := rs.SaveStudy(r, resCold); err != nil {
					t.Fatal(err)
				}
				resWarm, ok := rs.LoadStudy(r)
				if !ok {
					t.Fatalf("w=%d: saved study missed", w)
				}
				if got := goldenSnapshot(resWarm); got != base {
					t.Fatalf("w=%d: warm-from-store dataset not byte-identical", w)
				}
			}
		})
	}
}

// TestStoreIncrementalOneEnvEdit is the incremental-execution acceptance
// probe: a spec that edits one environment of a previously stored study
// re-executes only that environment's units; every unchanged
// environment's units decode from the store.
func TestStoreIncrementalOneEnvEdit(t *testing.T) {
	t.Parallel()
	rs, _ := quietStore(t)
	models := len(apps.All())

	specA := &StudySpec{Seed: 771001, Envs: []string{"aws-eks-cpu", "google-gke-cpu"}}
	stA, _ := newTestStudy(t, specA, rs)
	if _, err := stA.runSession(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	missesA := rs.Stats().UnitMisses
	if missesA != int64(2*models) {
		t.Fatalf("first run computed %d units, want %d", missesA, 2*models)
	}

	// Edit one env: google-gke-cpu → azure-aks-cpu. aws-eks-cpu's units
	// must come from the store; only azure's may compute.
	specB := &StudySpec{Seed: 771001, Envs: []string{"aws-eks-cpu", "azure-aks-cpu"}}
	stB, _ := newTestStudy(t, specB, rs)
	resB, err := stB.runSession(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := rs.Stats().UnitMisses - missesA; n != int64(models) {
		t.Fatalf("one-env edit recomputed %d units, want exactly %d (the edited env's)", n, models)
	}
	if hits := rs.Stats().UnitHits; hits != int64(models) {
		t.Fatalf("one-env edit decoded %d units from the store, want %d", hits, models)
	}

	// And the reused dataset is byte-identical to a store-free compute.
	stC, _ := newTestStudy(t, specB, nil)
	resC, err := stC.runSession(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if goldenSnapshot(resB) != goldenSnapshot(resC) {
		t.Fatal("unit-reuse dataset differs from store-free compute")
	}
}

// TestRunnerStoreTierServesWithoutCompute pins the tier order: a store
// hit serves the dataset without executing the study.
func TestRunnerStoreTierServesWithoutCompute(t *testing.T) {
	t.Parallel()
	rs, _ := quietStore(t)
	spec := &StudySpec{Seed: 771002, Envs: []string{"onprem-a-cpu"}, Apps: []string{"amg2023", "stream"}}

	r := &Runner{Store: rs}
	res1, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := rs.Stats(); s.StudyMisses != 1 || s.StudyHits != 0 {
		t.Fatalf("cold stats = %+v", s)
	}
	missesAfterCold := rs.Stats().UnitMisses

	res2, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	s := rs.Stats()
	if s.StudyHits != 1 {
		t.Fatalf("warm call missed the store: %+v", s)
	}
	if s.UnitMisses != missesAfterCold {
		t.Fatalf("store hit still computed units: %+v", s)
	}
	if goldenSnapshot(res1) != goldenSnapshot(res2) {
		t.Fatal("store-served dataset differs from computed one")
	}
}

// TestRunnerCorruptBlobFallsBack pins the degraded path: a study bundle
// whose blob bytes no longer match their digest is a logged warning and
// a recompute, never an error or wrong data.
func TestRunnerCorruptBlobFallsBack(t *testing.T) {
	t.Parallel()
	mem := store.NewMemory()
	rs := NewResultStore(mem)
	var mu sync.Mutex
	var warnings []string
	rs.Logf = func(format string, args ...any) {
		mu.Lock()
		warnings = append(warnings, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	spec := &StudySpec{Seed: 771003, Envs: []string{"onprem-a-cpu"}, Apps: []string{"amg2023"}}
	r := &Runner{Store: rs}

	res1, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	key, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}

	// Damage every layer of the stored bundle underneath the registry.
	files, err := rs.reg.Pull("study/" + key)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		if !mem.Corrupt(store.DigestOf(data)) {
			t.Fatalf("layer %s not in store", name)
		}
	}

	res2, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("corrupt store must fall back to compute, got error: %v", err)
	}
	if goldenSnapshot(res1) != goldenSnapshot(res2) {
		t.Fatal("fallback compute produced a different dataset")
	}
	if rs.Stats().CorruptFallbacks == 0 {
		t.Fatal("corruption not accounted")
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "falling back to compute") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no fallback warning logged; warnings: %v", warnings)
	}
}

// TestRunnerConcurrentSameSpecSharesStore: concurrent same-spec callers
// over one store each load or compute, every save of the same bundle
// and unit artifacts succeeds, and the entry they leave serves the next
// call from the store.
func TestRunnerConcurrentSameSpecSharesStore(t *testing.T) {
	t.Parallel()
	rs, _ := quietStore(t)
	spec := &StudySpec{Seed: 771004, Envs: []string{"onprem-b-gpu"}}

	const callers = 8
	results := make([]*Results, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := (&Runner{Store: rs}).Run(context.Background(), spec)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := goldenSnapshot(results[0])
	for i := 1; i < callers; i++ {
		if goldenSnapshot(results[i]) != want {
			t.Fatalf("caller %d got a different dataset", i)
		}
	}
	before := rs.Stats()
	if before.StudyHits+before.StudyMisses != callers || before.CorruptFallbacks != 0 {
		t.Fatalf("concurrent callers: %+v", before)
	}

	res, err := (&Runner{Store: rs}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if after := rs.Stats(); after.StudyHits != before.StudyHits+1 || after.UnitMisses != before.UnitMisses {
		t.Fatalf("run after the concurrent saves was not a store hit: before %+v, after %+v", before, after)
	}
	if goldenSnapshot(res) != want {
		t.Fatal("stored entry serves a different dataset")
	}
}

// TestUnitKeyCoversExactlyUnitInputs pins the sub-hash boundary: the key
// moves with every input that changes a unit's draws or its consumption
// schedule, and with the environment's own chaos slice — and with
// nothing else.
func TestUnitKeyCoversExactlyUnitInputs(t *testing.T) {
	t.Parallel()
	spec, err := apps.EnvByKey("aws-eks-cpu")
	if err != nil {
		t.Fatal(err)
	}
	base := UnitKey(2025, spec, "lammps", 5, nil)
	if UnitKey(2025, spec, "lammps", 5, nil) != base {
		t.Fatal("key not deterministic")
	}
	if UnitKey(2026, spec, "lammps", 5, nil) == base {
		t.Fatal("seed not covered")
	}
	if UnitKey(2025, spec, "kripke", 5, nil) == base {
		t.Fatal("app not covered")
	}
	if UnitKey(2025, spec, "lammps", 4, nil) == base {
		t.Fatal("iterations not covered")
	}
	scaled := spec
	scaled.Scales = []int{8, 16}
	if UnitKey(2025, scaled, "lammps", 5, nil) == base {
		t.Fatal("scale override not covered")
	}

	// A plan whose rules match the env changes the key; a plan that only
	// targets other environments does not — chaos edits elsewhere must
	// not invalidate this env's units.
	matching := &chaos.Plan{Rules: []chaos.Rule{{Kind: chaos.SpotReclaim, Env: "aws-*", Prob: 0.1}}}
	if UnitKey(2025, spec, "lammps", 5, matching) == base {
		t.Fatal("matching chaos slice not covered")
	}
	elsewhere := &chaos.Plan{Rules: []chaos.Rule{{Kind: chaos.SpotReclaim, Env: "azure-*", Prob: 0.1}}}
	if UnitKey(2025, spec, "lammps", 5, elsewhere) != base {
		t.Fatal("non-matching chaos slice leaked into the key")
	}
}

// TestRunErrRehydratesSentinels: every canonical run-error value decodes
// back to itself, so errors.Is answers identically on cold and warm
// datasets; unknown messages survive as plain errors.
func TestRunErrRehydratesSentinels(t *testing.T) {
	t.Parallel()
	for _, s := range runErrSentinels {
		if got := runErr(s.Error()); got != s {
			t.Fatalf("sentinel %v rehydrated as %v", s, got)
		}
	}
	if runErr("") != nil {
		t.Fatal("empty message must decode to nil")
	}
	other := runErr("sched: node went away")
	if other == nil || other.Error() != "sched: node went away" {
		t.Fatalf("unknown message mangled: %v", other)
	}
}

// TestStaleUnitArtifactFallsBack: an artifact that decodes cleanly but
// carries a draw schedule the assembly would not replay (e.g. written
// before a schedule-affecting change that escaped the key) must degrade
// to recompute — never reach unitPlan.take and fail the study.
func TestStaleUnitArtifactFallsBack(t *testing.T) {
	t.Parallel()
	rs, _ := quietStore(t)
	env, err := apps.EnvByKey("onprem-a-cpu")
	if err != nil {
		t.Fatal(err)
	}
	key := UnitKey(771005, env, "stream", Iterations, nil)
	// A well-formed artifact under the right key with a wrong schedule:
	// one record at a node count the environment never runs first.
	files, err := dataset.MarshalUnit(dataset.UnitMeta{
		Version: storeSchemaVersion, Key: key, Seed: 771005,
		Env: env.Key, App: "stream", Iterations: Iterations,
	}, 1, func(int) dataset.Record {
		return dataset.Record{Env: env.Key, App: "stream", Nodes: 7, Iter: 0, FOM: 1, Unit: "GB/s"}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Registry().Push("unit/"+key, dataset.UnitArtifactType, files, nil); err != nil {
		t.Fatal(err)
	}

	spec := &StudySpec{Seed: 771005, Envs: []string{"onprem-a-cpu"}, Apps: []string{"stream"}}
	st, _ := newTestStudy(t, spec, rs)
	res, err := st.runSession(context.Background(), nil)
	if err != nil {
		t.Fatalf("stale unit artifact must fall back to compute, got: %v", err)
	}
	if s := rs.Stats(); s.UnitMisses != 1 || s.CorruptFallbacks == 0 {
		t.Fatalf("fallback not taken: stats=%+v", s)
	}
	// And the dataset matches a store-free run.
	stPlain, _ := newTestStudy(t, spec, nil)
	resPlain, err := stPlain.runSession(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if goldenSnapshot(res) != goldenSnapshot(resPlain) {
		t.Fatal("fallback dataset drifted")
	}
}

// TestUnitRecordCountMismatchFallsBack: a unit artifact whose records
// follow the planned schedule but whose unit.json claims another count
// — one more, a negative one, or one too large to allocate — is refused
// by loadUnit ("unit holds N records, metadata says M"), counted as
// corrupt, recomputed to the store-free bytes, and stored again whole.
func TestUnitRecordCountMismatchFallsBack(t *testing.T) {
	t.Parallel()
	env, err := apps.EnvByKey("onprem-a-cpu")
	if err != nil {
		t.Fatal(err)
	}
	spec := &StudySpec{Seed: 771007, Envs: []string{"onprem-a-cpu"}, Apps: []string{"stream"}}
	stPlain, _ := newTestStudy(t, spec, nil)
	resPlain, err := stPlain.runSession(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	key, files, n := recordCountUnit(t, env)
	for _, claim := range []int{n + 1, -1, 1 << 40} {
		rs, _ := quietStore(t)
		var mu sync.Mutex
		var warnings []string
		rs.Logf = func(format string, args ...any) {
			mu.Lock()
			warnings = append(warnings, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
		if _, err := rs.Registry().Push("unit/"+key, dataset.UnitArtifactType, withRecordClaim(t, files, n, claim), nil); err != nil {
			t.Fatal(err)
		}
		st, _ := newTestStudy(t, spec, rs)
		res, err := st.runSession(context.Background(), nil)
		if err != nil {
			t.Fatalf("claim %d: a unit with a wrong record count must fall back to compute, got: %v", claim, err)
		}
		if s := rs.Stats(); s.UnitHits != 0 || s.UnitMisses != 1 || s.CorruptFallbacks != 1 {
			t.Fatalf("claim %d: the unit was not refused: stats=%+v", claim, s)
		}
		mu.Lock()
		want := fmt.Sprintf("unit holds %d records, metadata says %d", n, claim)
		found := false
		for _, w := range warnings {
			found = found || strings.Contains(w, want)
		}
		mu.Unlock()
		if !found {
			t.Fatalf("claim %d: no warning naming %q; warnings: %v", claim, want, warnings)
		}
		if goldenSnapshot(res) != goldenSnapshot(resPlain) {
			t.Fatalf("claim %d: fallback dataset drifted", claim)
		}
		if _, ok := rs.loadUnit(key, env, "stream", Iterations); !ok {
			t.Fatalf("claim %d: the recomputed unit was not stored again", claim)
		}
	}
}

// TestAcceptUnitRefusesNegativeRecordCount: a pushed unit whose
// unit.json claims a negative record count is refused with an error
// and tagged nowhere.
func TestAcceptUnitRefusesNegativeRecordCount(t *testing.T) {
	t.Parallel()
	env, err := apps.EnvByKey("onprem-a-cpu")
	if err != nil {
		t.Fatal(err)
	}
	key, files, n := recordCountUnit(t, env)
	rs, _ := quietStore(t)
	manifest, err := rs.Registry().Push("staging/"+key, dataset.UnitArtifactType, withRecordClaim(t, files, n, -1), nil)
	if err != nil {
		t.Fatal(err)
	}
	work := UnitWork{Key: key, Seed: 771007, Env: env.Key, Scales: env.Scales, App: "stream", Iterations: Iterations}
	if err := rs.AcceptUnit(work, string(manifest)); err == nil || !strings.Contains(err.Error(), "metadata says -1") {
		t.Fatalf("AcceptUnit = %v, want the record-count refusal", err)
	}
	if _, err := rs.Registry().Pull("unit/" + key); !errors.Is(err, oras.ErrTagUnknown) {
		t.Fatalf("the refused unit was tagged: Pull = %v", err)
	}
}

// recordCountUnit encodes the seed-771007 stream unit of env as stored
// files, returning its key, the files and its record count.
func recordCountUnit(t *testing.T, env apps.EnvSpec) (string, map[string][]byte, int) {
	t.Helper()
	models, err := apps.SelectModels([]string{"stream"})
	if err != nil {
		t.Fatal(err)
	}
	u := planUnit(771007, env, models[0], Iterations, network.NewHookupModel())
	key := UnitKey(771007, env, "stream", Iterations, nil)
	files, err := unitFiles(dataset.UnitMeta{
		Version: storeSchemaVersion, Key: key, Seed: 771007,
		Env: env.Key, App: "stream", Iterations: Iterations,
	}, u)
	if err != nil {
		t.Fatal(err)
	}
	return key, files, len(u.runs)
}

// withRecordClaim returns a copy of a unit's files whose unit.json
// claims claim records instead of its true n.
func withRecordClaim(t *testing.T, files map[string][]byte, n, claim int) map[string][]byte {
	t.Helper()
	old := fmt.Appendf(nil, `"records":%d`, n)
	if !bytes.Contains(files["unit.json"], old) {
		t.Fatalf("unit.json %s does not hold %s", files["unit.json"], old)
	}
	out := maps.Clone(files)
	out["unit.json"] = bytes.Replace(files["unit.json"], old, fmt.Appendf(nil, `"records":%d`, claim), 1)
	return out
}

// TestStudyBundleMissingFileFallsBack: a bundle stripped of runs.jsonl
// must be a miss, not a silently empty dataset.
func TestStudyBundleMissingFileFallsBack(t *testing.T) {
	t.Parallel()
	rs, _ := quietStore(t)
	spec := &StudySpec{Seed: 771006, Envs: []string{"onprem-a-cpu"}, Apps: []string{"osu"}}
	st, r := newTestStudy(t, spec, rs)
	res, err := st.runSession(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.SaveStudy(r, res); err != nil {
		t.Fatal(err)
	}
	// Re-push the bundle without runs.jsonl under the same tag.
	files, err := rs.Registry().Pull("study/" + r.Hash())
	if err != nil {
		t.Fatal(err)
	}
	delete(files, "runs.jsonl")
	if _, err := rs.Registry().Push("study/"+r.Hash(), dataset.StudyBundleType, files, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := rs.LoadStudy(r); ok {
		t.Fatal("bundle without runs.jsonl was served as a hit")
	}
	if rs.Stats().CorruptFallbacks == 0 {
		t.Fatal("stripped bundle not accounted as corrupt")
	}
}

// artifactSums hashes every tagged artifact in the store: for each tag,
// the sha256 of its files in name order, each prefixed by its name and
// length, so a moved byte, a renamed file or a dropped file all show.
func artifactSums(t *testing.T, rs *ResultStore) map[string]string {
	t.Helper()
	sums := make(map[string]string)
	for _, tag := range rs.Registry().Tags() {
		files, err := rs.Registry().Pull(tag)
		if err != nil {
			t.Fatalf("pull %s: %v", tag, err)
		}
		names := make([]string, 0, len(files))
		for n := range files {
			names = append(names, n)
		}
		sort.Strings(names)
		h := sha256.New()
		for _, n := range names {
			fmt.Fprintf(h, "%s %d\n", n, len(files[n]))
			h.Write(files[n])
		}
		sums[tag] = fmt.Sprintf("%x", h.Sum(nil))
	}
	return sums
}

// TestParallelCodecArtifactsSha256Identical pins the serialization
// rework at the artifact level: bundle files encode concurrently, units
// encode/decode as independent pool tasks, and none of that may move a
// single byte — every stored artifact (the study bundle and each unit
// artifact) must hash identically across worker counts 1, 4, and 32. The dataset-level sweep above proves the
// decoded views agree; this proves the stored bytes themselves do.
func TestParallelCodecArtifactsSha256Identical(t *testing.T) {
	t.Parallel()
	var golden map[string]string
	goldenWorkers := 0
	for _, w := range []int{1, 4, 32} {
		spec := &StudySpec{Seed: 2025, Workers: w}
		rs, _ := quietStore(t)
		st, r := newTestStudy(t, spec, rs)
		res, err := st.runSession(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.SaveStudy(r, res); err != nil {
			t.Fatal(err)
		}
		sums := artifactSums(t, rs)
		if len(sums) < 2 {
			t.Fatalf("workers=%d: only %d artifacts stored; expected a study bundle plus units", w, len(sums))
		}
		if golden == nil {
			golden, goldenWorkers = sums, w
			continue
		}
		if len(sums) != len(golden) {
			t.Fatalf("workers=%d stored %d artifacts, workers=%d stored %d", w, len(sums), goldenWorkers, len(golden))
		}
		for tag, sum := range sums {
			if golden[tag] != sum {
				t.Errorf("workers=%d: artifact %s sha256 %s != workers=%d's %s", w, tag, sum, goldenWorkers, golden[tag])
			}
		}
	}
}

// TestStoredManifestsMatchEncodingJSON pins what the golden file below
// does not: the manifests. The golden hashes every artifact's layers,
// not the manifest blob that lists them, so this requires every
// manifest the seed-2025 study stores, clean and under the default chaos
// plan, to be byte for byte json.Marshal of its json.Unmarshal decode,
// the encoding the hand-written manifest codec replaced.
func TestStoredManifestsMatchEncodingJSON(t *testing.T) {
	t.Parallel()
	rs, mem := quietStore(t)
	for _, chaosRef := range []string{"", "default"} {
		st, r := newTestStudy(t, &StudySpec{Seed: 2025, Chaos: chaosRef}, rs)
		res, err := st.runSession(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.SaveStudy(r, res); err != nil {
			t.Fatal(err)
		}
	}
	manifests := 0
	for _, ref := range mem.Refs() {
		if !strings.HasPrefix(ref, "oras/manifest/") {
			continue
		}
		d, _ := mem.Ref(ref)
		data, err := mem.Get(d)
		if err != nil {
			t.Fatal(err)
		}
		var m oras.Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("manifest %s: %v", d, err)
		}
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("manifest %s:\n stored       %s\n json.Marshal %s", d, data, want)
		}
		manifests++
	}
	if want := len(rs.Registry().Tags()); manifests != want {
		t.Fatalf("checked %d manifests, the store holds %d tags", manifests, want)
	}
}

// TestStoreArtifactsGolden pins the stored bytes across commits. The
// worker sweep above compares runs within one commit, so a codec change
// that moved every digest at once would pass it; this test compares
// every artifact the seed-2025 study stores, clean and under the default
// chaos plan, against the committed "tag sha256" lines. Regenerate
// deliberately with:
//
//	go test ./internal/core -run TestStoreArtifactsGolden -update
func TestStoreArtifactsGolden(t *testing.T) {
	t.Parallel()
	rs, _ := quietStore(t)
	for _, chaosRef := range []string{"", "default"} {
		st, r := newTestStudy(t, &StudySpec{Seed: 2025, Chaos: chaosRef}, rs)
		res, err := st.runSession(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.SaveStudy(r, res); err != nil {
			t.Fatal(err)
		}
	}
	sums := artifactSums(t, rs)
	tags := make([]string, 0, len(sums))
	for tag := range sums {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	var b strings.Builder
	for _, tag := range tags {
		fmt.Fprintf(&b, "%s %s\n", tag, sums[tag])
	}
	got := b.String()

	path := filepath.Join("testdata", "store_artifacts_seed2025.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d artifacts)", path, len(tags))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	wantSums := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		if tag, sum, ok := strings.Cut(line, " "); ok {
			wantSums[tag] = sum
		}
	}
	for _, tag := range tags {
		if w, ok := wantSums[tag]; !ok {
			t.Errorf("artifact %s stored but not in the golden file", tag)
		} else if w != sums[tag] {
			t.Errorf("artifact %s sha256 %s, golden %s", tag, sums[tag], w)
		}
		delete(wantSums, tag)
	}
	for tag := range wantSums {
		t.Errorf("golden artifact %s no longer stored", tag)
	}
	t.Error("(rerun with -update only if the change is intentional)")
}
