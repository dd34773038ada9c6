package main

import (
	"io"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload for three requests, untraced and traced,
// and checks the printed metrics against BENCHMARK.json: every declared
// metric with its declared unit, and nothing undeclared.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q here", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			cfg := &config{root: "..", work: t.TempDir(), workload: w.name, seed: 7, trace: traced,
				setups: 1, requests: 3, warmup: 1, probeReps: 1}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != 3 {
				t.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): declared metric %s not printed", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (traced %v): %s printed in %q, declared in %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(declared) {
				names := map[string]bool{}
				for _, m := range declared {
					names[m.Name] = true
				}
				for k := range res.Metrics {
					if !names[k] {
						t.Errorf("%s (traced %v): undeclared metric %s printed", w.name, traced, k)
					}
				}
			}
		}
	}
}

// TestGoldenCopy checks the benchmark's own copy of the golden snapshot
// against the committed golden file, through a cold and a warm run.
func TestGoldenCopy(t *testing.T) {
	res, err := goldenGate("..")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := snapshot(res), snapshot(res); a != b {
		t.Fatal("snapshot is not deterministic over one dataset")
	}
}
