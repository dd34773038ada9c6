// Package cli deduplicates the study flag plumbing shared by the cmd/
// mains (report, cloudbench, chaosbench, figures, trace, usability,
// archive): the -seed, -workers, -chaos, -spec, -store, -progress,
// -cpuprofile, and -memprofile flags, the precedence rule
// that combines them into one core.StudySpec, and the shared run
// harness (RunSpec: a core.Runner session with SIGINT → graceful
// cancellation, the stderr progress renderer, and pprof profile
// bracketing). Before this package each main grew its own copy of the
// same flags and they drifted; now a main registers the set once,
// resolves it once, and runs through one harness.
package cli

import (
	"flag"
	"os"

	"cloudhpc/internal/core"
)

// StudyFlags is the shared flag set. Register it before flag.Parse and
// resolve it after.
type StudyFlags struct {
	fs         *flag.FlagSet
	seed       *uint64
	workers    *int
	chaos      *string
	spec       *string
	store      *string
	progress   *string
	cpuprofile *string
	memprofile *string
	chaosDflt  string

	storeOpened bool
	storeHandle *core.ResultStore
}

// Register installs the shared study flags on fs. chaosDefault is the
// plan reference used when neither -chaos nor the spec names one — ""
// for the fault-free tools, "default" for chaosbench.
func Register(fs *flag.FlagSet, chaosDefault string) *StudyFlags {
	f := &StudyFlags{fs: fs, chaosDflt: chaosDefault}
	f.seed = fs.Uint64("seed", core.DefaultSeed, "simulation seed (overrides the spec file's seed when set)")
	f.workers = fs.Int("workers", 0, "concurrent work units (0 = all CPUs); the dataset is identical for every value")
	f.chaos = fs.String("chaos", chaosDefault, `fault-injection plan: "none", "default", or a plan file path`)
	f.spec = fs.String("spec", "", `study spec: "default" or a spec file path (envs, apps, scales, iterations, chaos, pause, test-clusters, abort-over-budget, workers)`)
	f.store = fs.String("store", "", "persistent result store directory: studies and (env, app) units are content-addressed there and reused across runs")
	f.progress = fs.String("progress", "auto", `study progress feed on stderr: "auto" (only when stderr is a terminal), "on", or "off"`)
	f.cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the study run to this file")
	f.memprofile = fs.String("memprofile", "", "write a pprof heap profile taken after the study run to this file")
	return f
}

// progressOn resolves the -progress flag: "on" and "off" are explicit;
// "auto" (and anything else) enables the feed only when stderr is a
// terminal, so piped and CI runs stay quiet by default.
func (f *StudyFlags) progressOn() bool {
	switch *f.progress {
	case "on":
		return true
	case "off":
		return false
	}
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// OpenStore resolves the -store flag: when set, it opens (creating if
// needed) the on-disk result store that RunSpec hands to its Runner. It
// returns the store (nil when the flag is unset) for mains that also
// want the underlying registry (cmd/archive shares it to make the
// archive durable). The first call wins; later calls, RunSpec's
// included, return the same handle.
func (f *StudyFlags) OpenStore() (*core.ResultStore, error) {
	if f.storeOpened {
		return f.storeHandle, nil
	}
	if *f.store == "" {
		f.storeOpened = true
		return nil, nil
	}
	rs, err := core.OpenResultStore(*f.store)
	if err != nil {
		return nil, err
	}
	f.storeOpened = true
	f.storeHandle = rs
	return rs, nil
}

// Spec resolves the flags into a StudySpec: the -spec reference is loaded
// (the full default study when empty), then every shared flag the user
// set explicitly overrides the corresponding spec field. An unset -chaos
// falls back to the registered default only when the spec left its chaos
// reference unset — a spec's own plan, or its explicit "chaos none",
// survives unrelated flag use.
func (f *StudyFlags) Spec() (*core.StudySpec, error) {
	spec, err := core.LoadSpec(*f.spec)
	if err != nil {
		return nil, err
	}
	set := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if set["seed"] {
		spec.Seed = *f.seed
	}
	if set["workers"] {
		spec.Workers = *f.workers
	}
	if set["chaos"] {
		spec.Chaos = *f.chaos
	} else if spec.Chaos == "" && f.chaosDflt != "" {
		spec.Chaos = f.chaosDflt
	}
	return spec, nil
}
