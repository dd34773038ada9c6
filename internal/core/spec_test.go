package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/chaos"
)

func TestDefaultSpecResolvesToFullMatrix(t *testing.T) {
	t.Parallel()
	r, err := DefaultSpec(2025).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	envs, err := apps.StudyEnvironments()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Envs, envs) {
		t.Fatal("default spec does not resolve to the full study matrix")
	}
	if len(r.Models) != len(apps.All()) {
		t.Fatalf("default spec resolves %d models, want %d", len(r.Models), len(apps.All()))
	}
	if r.Iterations != Iterations {
		t.Fatalf("default iterations = %d, want %d", r.Iterations, Iterations)
	}
	if !r.Plan.Empty() {
		t.Fatal("default spec must not inject chaos")
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	t.Parallel()
	specs := []*StudySpec{
		DefaultSpec(2025),
		{Seed: 7, Envs: []string{"azure-*", "onprem-a-cpu"}, Apps: []string{"amg2023", "lammps"},
			Scales: []int{8, 32}, Iterations: 3, Chaos: "default", Workers: 16},
		{Seed: 8, Pause: 26 * time.Hour, TestClusters: true, AbortOverBudget: true},
	}
	for _, s := range specs {
		s.normalize()
		got, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", s.String(), err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("round trip drifted:\n in:  %+v\n out: %+v", s, got)
		}
	}
}

func TestParseSpecDirectives(t *testing.T) {
	t.Parallel()
	s, err := ParseSpec(`
# a CPU-only scenario
seed 99
envs aws-* google-gke-cpu   # trailing comment
apps kripke
scales 32 64
iterations 2
chaos none
pause 90m
test-clusters on
abort-over-budget off
`)
	if err != nil {
		t.Fatal(err)
	}
	want := &StudySpec{Seed: 99, Envs: []string{"aws-*", "google-gke-cpu"}, Apps: []string{"kripke"},
		Scales: []int{32, 64}, Iterations: 2, Chaos: "none", Pause: 90 * time.Minute, TestClusters: true}
	want.normalize()
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("parsed %+v, want %+v", s, want)
	}
}

func TestParseSpecRejects(t *testing.T) {
	t.Parallel()
	for _, src := range []string{
		"seed x",              // malformed value
		"frobnicate 3",        // unknown key
		"granularity env-app", // removed key: there is one partition plan
		"seed 1\nseed 2",      // repeated key
		"iterations 0",        // out of range
		"iterations 1 2",      // extra value
		"scales 64 32",        // not ascending
		"scales -1",           // out of range
		"envs",                // key without value
		"pause 26",            // duration without a unit
		"pause -1h",           // negative pause
		"pause 721h",          // above the bound
		"test-clusters yes",   // neither on nor off
		"abort-over-budget",   // key without value
	} {
		if _, err := ParseSpec(src); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", src)
		}
	}
	// Negative workers mean all CPUs, like zero, rather than erroring:
	// they normalize to 0.
	s, err := ParseSpec("workers -2")
	if err != nil {
		t.Fatalf("negative workers must normalize, got error: %v", err)
	}
	if s.Workers != 0 {
		t.Fatalf("workers -2 normalized to %d, want 0", s.Workers)
	}
}

// TestParseSpecSeedlessDefaults: a spec file without a seed line means
// the published DefaultSeed, not seed 0 — a dataset silently matching no
// golden artifact would be a trap.
func TestParseSpecSeedlessDefaults(t *testing.T) {
	t.Parallel()
	s, err := ParseSpec("envs onprem-*\n")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != DefaultSeed {
		t.Fatalf("seedless spec parsed to seed %d, want %d", s.Seed, DefaultSeed)
	}
	// An explicit zero seed is still honored.
	s, err = ParseSpec("seed 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 0 {
		t.Fatalf("explicit seed 0 parsed to %d", s.Seed)
	}
}

// TestChaosNoneVsUnset: "" (unset) and "none" (explicitly clean) resolve
// and hash identically, but only the explicit spelling survives String()
// — that distinction is what lets internal/cli fill an unset reference
// with a tool default while an explicit "chaos none" blocks it.
func TestChaosNoneVsUnset(t *testing.T) {
	t.Parallel()
	unset := &StudySpec{Seed: 2025}
	none, err := ParseSpec("chaos none\n")
	if err != nil {
		t.Fatal(err)
	}
	if none.Chaos != "none" {
		t.Fatalf("explicit chaos none parsed to %q", none.Chaos)
	}
	hU, err := unset.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hN, err := none.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hU != hN {
		t.Fatal("unset and explicit none must hash identically (both fault-free)")
	}
	if strings.Contains(unset.String(), "chaos") {
		t.Fatalf("unset chaos must render no chaos line:\n%s", unset.String())
	}
	if !strings.Contains(none.String(), "chaos none") {
		t.Fatalf("explicit none must survive String():\n%s", none.String())
	}
	r, err := none.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Plan.Empty() {
		t.Fatal("chaos none must resolve to no plan")
	}
}

func TestSpecResolveSelections(t *testing.T) {
	t.Parallel()
	s := &StudySpec{Seed: 1, Envs: []string{"azure-*"}, Apps: []string{"lammps", "amg2023"}, Scales: []int{16, 64}}
	r, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Envs) != 4 {
		t.Fatalf("azure-* selects %d envs, want 4", len(r.Envs))
	}
	for _, e := range r.Envs {
		if !strings.HasPrefix(e.Key, "azure-") {
			t.Fatalf("selected %s under azure-*", e.Key)
		}
		if !reflect.DeepEqual(e.Scales, []int{16, 64}) {
			t.Fatalf("%s scales = %v, want the override", e.Key, e.Scales)
		}
	}
	// §2.8 order regardless of name order: amg2023 precedes lammps.
	if r.Models[0].Name() != "amg2023" || r.Models[1].Name() != "lammps" {
		t.Fatalf("models resolved out of canonical order: %s, %s", r.Models[0].Name(), r.Models[1].Name())
	}
	// Typos must not resolve to silent empty studies.
	for _, bad := range []*StudySpec{
		{Envs: []string{"azure-xyz-*"}},
		{Apps: []string{"gromacs"}},
	} {
		if _, err := bad.Resolve(); err == nil {
			t.Errorf("Resolve(%+v) succeeded, want error", bad)
		}
	}
}

func TestSpecRunsSubsetStudy(t *testing.T) {
	t.Parallel()
	spec := &StudySpec{Seed: 2025, Envs: []string{"google-gke-cpu"}, Apps: []string{"lammps"}, Iterations: 2}
	res, err := (&Runner{}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// 1 env × 1 app × 4 default scales × 2 iterations.
	if len(res.Runs) != 8 {
		t.Fatalf("subset study ran %d records, want 8", len(res.Runs))
	}
	for _, rec := range res.Runs {
		if rec.EnvKey != "google-gke-cpu" || rec.App != "lammps" {
			t.Fatalf("record outside the subset: %+v", rec)
		}
	}
}

// TestSpecSubsetIsCompositional is the payoff of per-application streams:
// a spec that selects a subset of environments and applications — at the
// full study's scales and iteration count — reproduces exactly the same
// records the full study holds for that slice, because each (env, app)
// pair draws only from its own "core/run/<env>/<app>" stream.
func TestSpecSubsetIsCompositional(t *testing.T) {
	t.Parallel()
	subset, err := (&Runner{}).Run(context.Background(), &StudySpec{Seed: 2025, Envs: []string{"google-gke-cpu"}, Apps: []string{"lammps"}})
	if err != nil {
		t.Fatal(err)
	}
	full := fullStudy(t)
	fullSlice := full.RunsFor("google-gke-cpu", "lammps")
	if len(subset.Runs) != len(fullSlice) {
		t.Fatalf("subset ran %d records, full-study slice holds %d", len(subset.Runs), len(fullSlice))
	}
	for i, rec := range subset.Runs {
		want := fullSlice[i]
		if rec.FOM != want.FOM || rec.Hookup != want.Hookup || rec.Nodes != want.Nodes || rec.Iter != want.Iter {
			t.Fatalf("subset run %d differs from the full-study slice:\n subset: %+v\n full:   %+v", i, rec, want)
		}
	}
}

func TestSpecHashSeparatesSpecsAtSameSeed(t *testing.T) {
	t.Parallel()
	base := DefaultSpec(2025)
	variants := []*StudySpec{
		{Seed: 2025, Envs: []string{"aws-*"}},
		{Seed: 2025, Apps: []string{"amg2023"}},
		{Seed: 2025, Scales: []int{8}},
		{Seed: 2025, Iterations: 2},
		{Seed: 2025, Chaos: "default"},
		{Seed: 2025, Pause: time.Hour},
		{Seed: 2025, TestClusters: true},
		{Seed: 2025, AbortOverBudget: true},
	}
	baseHash, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{baseHash: -1}
	for i, v := range variants {
		h, err := v.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[h]; dup {
			t.Fatalf("specs %d and %d collide at the same seed", i, prev)
		}
		seen[h] = i
	}
	// Execution policy must NOT change the hash: the dataset is invariant
	// under it, so policy-only variants share a cache entry.
	policy := DefaultSpec(2025)
	policy.Workers = 32
	h, err := policy.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != baseHash {
		t.Fatal("Workers changed the spec hash; cache entries would needlessly split")
	}
	// The chaos reference hashes by resolved plan text, not by spelling:
	// a file containing the default plan hashes like "default".
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.txt")
	if err := os.WriteFile(path, []byte(chaos.DefaultPlanText), 0o644); err != nil {
		t.Fatal(err)
	}
	byRef := &StudySpec{Seed: 2025, Chaos: "default"}
	byFile := &StudySpec{Seed: 2025, Chaos: path}
	hRef, err := byRef.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hFile, err := byFile.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hRef != hFile {
		t.Fatal("equivalent chaos references hash differently; the hash must cover plan content, not the reference")
	}
}

// TestRunnerSameSeedSpecsDoNotCollide: the study store keys by spec
// hash, not seed, so two specs at one seed are two entries, and specs
// differing only in execution policy are one.
func TestRunnerSameSeedSpecsDoNotCollide(t *testing.T) {
	t.Parallel()
	rs, _ := quietStore(t)
	r := &Runner{Store: rs}
	full, err := r.Run(context.Background(), DefaultSpec(2025))
	if err != nil {
		t.Fatal(err)
	}
	subsetSpec := func() *StudySpec { return &StudySpec{Seed: 2025, Envs: []string{"onprem-*"}} }
	subset, err := r.Run(context.Background(), subsetSpec())
	if err != nil {
		t.Fatal(err)
	}
	if s := rs.Stats(); s.StudyHits != 0 || len(subset.Runs) >= len(full.Runs) {
		t.Fatalf("subset dataset (%d runs, stats %+v) not smaller than full (%d) — same-seed specs collided in the store",
			len(subset.Runs), s, len(full.Runs))
	}
	// Same spec, same entry: a store hit with the same dataset.
	again, err := r.Run(context.Background(), subsetSpec())
	if err != nil {
		t.Fatal(err)
	}
	if s := rs.Stats(); s.StudyHits != 1 || goldenSnapshot(again) != goldenSnapshot(subset) {
		t.Fatalf("identical specs must share one store entry: stats %+v", s)
	}
	// And a policy-only difference shares the default spec's entry: the
	// hash excludes workers.
	fullAgain, err := r.Run(context.Background(), &StudySpec{Seed: 2025, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s := rs.Stats(); s.StudyHits != 2 || goldenSnapshot(fullAgain) != goldenSnapshot(full) {
		t.Fatalf("specs differing only in execution policy must share one store entry: stats %+v", s)
	}
}

func TestLoadSpec(t *testing.T) {
	t.Parallel()
	s, err := LoadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != DefaultSeed {
		t.Fatalf("empty -spec seed = %d, want %d", s.Seed, DefaultSeed)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "study.spec")
	if err := os.WriteFile(path, []byte("seed 7\nenvs onprem-*\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || len(s.Envs) != 1 || s.Envs[0] != "onprem-*" {
		t.Fatalf("loaded spec %+v", s)
	}
	if _, err := LoadSpec(filepath.Join(dir, "missing.spec")); err == nil {
		t.Fatal("missing spec file must error")
	}
}
