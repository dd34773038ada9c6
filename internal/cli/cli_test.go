package cli

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cloudhpc/internal/core"
)

func parse(t *testing.T, chaosDefault string, args ...string) *core.StudySpec {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, chaosDefault)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	spec, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestDefaults(t *testing.T) {
	t.Parallel()
	spec := parse(t, "")
	if spec.Seed != core.DefaultSeed || spec.Workers != 0 || spec.Chaos != "" {
		t.Fatalf("default resolution: %+v", spec)
	}
}

func TestExplicitFlagsOverrideSpecFile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "study.spec")
	src := "seed 7\nenvs azure-*\nworkers 2\nchaos default\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// No overrides: the spec file wins.
	spec := parse(t, "", "-spec", path)
	if spec.Seed != 7 || spec.Workers != 2 || spec.Chaos != "default" {
		t.Fatalf("spec file not honored: %+v", spec)
	}
	// Explicit flags override their fields; untouched fields survive.
	spec = parse(t, "", "-spec", path, "-seed", "9", "-workers", "32")
	if spec.Seed != 9 || spec.Workers != 32 {
		t.Fatalf("explicit overrides not applied: %+v", spec)
	}
	if spec.Chaos != "default" || len(spec.Envs) != 1 || spec.Envs[0] != "azure-*" {
		t.Fatalf("non-overridden spec fields drifted: %+v", spec)
	}
	// -chaos none overrides a spec's plan with the explicit clean spelling
	// (which resolves to no plan and blocks any registered default).
	spec = parse(t, "", "-spec", path, "-chaos", "none")
	if spec.Chaos != "none" {
		t.Fatalf("-chaos none left %q", spec.Chaos)
	}
}

func TestChaosDefaultOnlyFillsEmpty(t *testing.T) {
	t.Parallel()
	// chaosbench-style default: no flags → built-in plan.
	spec := parse(t, "default")
	if spec.Chaos != "default" {
		t.Fatalf("chaos default not applied: %q", spec.Chaos)
	}
	// A spec file's own plan wins over the registered default.
	dir := t.TempDir()
	path := filepath.Join(dir, "study.spec")
	if err := os.WriteFile(path, []byte("chaos myplan.txt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec = parse(t, "default", "-spec", path)
	if spec.Chaos != "myplan.txt" {
		t.Fatalf("spec plan overridden by registered default: %q", spec.Chaos)
	}
	// A spec's explicit "chaos none" also blocks the registered default —
	// a file that declares itself clean must never be fault-injected.
	clean := filepath.Join(dir, "clean.spec")
	if err := os.WriteFile(clean, []byte("chaos none\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec = parse(t, "default", "-spec", clean)
	if spec.Chaos != "none" {
		t.Fatalf("explicit chaos none was replaced by %q", spec.Chaos)
	}
}

// TestOpenStore covers the -store flag: unset means no store; set
// opens/creates the directory.
func TestOpenStore(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	rs, err := f.OpenStore()
	if err != nil || rs != nil {
		t.Fatalf("unset -store: got %v %v", rs, err)
	}

	dir := filepath.Join(t.TempDir(), "study-store")
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	f2 := Register(fs2, "")
	if err := fs2.Parse([]string{"-store", dir}); err != nil {
		t.Fatal(err)
	}
	rs2, err := f2.OpenStore()
	if err != nil || rs2 == nil {
		t.Fatalf("-store %s: %v %v", dir, rs2, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "blobs")); err != nil {
		t.Fatalf("store directory not created: %v", err)
	}
}

// TestRunSpecUsesStoreFlag: the -store handle reaches the Runner that
// RunSpec builds. Of two runs of one spec, the second must be a warm hit
// from the store, byte-identical to the first.
func TestRunSpecUsesStoreFlag(t *testing.T) {
	dir := t.TempDir()
	specFile := filepath.Join(dir, "small.spec")
	if err := os.WriteFile(specFile, []byte("seed 660001\nenvs onprem-a-cpu\napps stream osu\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "")
	if err := fs.Parse([]string{"-spec", specFile, "-store", filepath.Join(dir, "store"), "-progress", "off"}); err != nil {
		t.Fatal(err)
	}
	spec, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := f.OpenStore()
	if err != nil || rs == nil {
		t.Fatalf("-store: %v %v", rs, err)
	}
	rs.Logf = t.Logf

	cold, err := f.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := rs.Stats(); s.StudyMisses != 1 || s.StudyHits != 0 {
		t.Fatalf("cold run stats = %+v, want one study miss", s)
	}
	warm, err := f.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := rs.Stats(); s.StudyHits != 1 {
		t.Fatalf("second run stats = %+v, want it served from the -store directory", s)
	}
	if len(warm.Runs) != len(cold.Runs) || warm.Log.Render() != cold.Log.Render() {
		t.Fatal("store-served dataset differs from the computed one")
	}
}

func TestStartProfilesWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := f.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to flush.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	stop()
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s not written: %v", p, err)
		}
	}
}

func TestStartProfilesNoFlagsIsNoop(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := f.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	stop() // must not panic or create files
}
