package core

import (
	"context"
	"reflect"
	"testing"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/cloud"
	"cloudhpc/internal/trace"
	"cloudhpc/internal/usability"
)

// These tests pin Results.FigureFor — the figure-aggregation hot path —
// on its edge cases, using small spec-driven studies so each case is a
// scenario, not a fixture.

// TestFigureForEmptyEnvSubset: a dataset whose environment subset has no
// rows on the requested accelerator must yield a figure with zero series,
// not an error — figures over subsets render as empty panels.
func TestFigureForEmptyEnvSubset(t *testing.T) {
	t.Parallel()
	res, err := (&Runner{}).Run(context.Background(), &StudySpec{Seed: 2025, Envs: []string{"onprem-a-cpu"}, Apps: []string{"amg2023"}})
	if err != nil {
		t.Fatal(err)
	}
	fig, err := res.FigureFor("amg2023", cloud.GPU)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 0 {
		t.Fatalf("GPU figure over a CPU-only subset has %d series, want 0", len(fig.Series))
	}
	if _, err := fig.BestAt(32); err == nil {
		t.Fatal("BestAt over an empty figure must error")
	}
	// An app absent from the dataset behaves the same way; an unknown app
	// is an error (the model list is the authority).
	empty, err := res.FigureFor("lammps", cloud.CPU)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Series) != 0 {
		t.Fatalf("figure for an unselected app has %d series, want 0", len(empty.Series))
	}
	if _, err := res.FigureFor("not-an-app", cloud.CPU); err == nil {
		t.Fatal("unknown application must error")
	}
}

// TestFigureForGPUAxisUnitConversion: GPU figures plot total GPUs, not
// nodes, so cluster B's 4-GPU nodes align with the clouds' 8-GPU nodes —
// the axis convention behind the paper's GPU panels.
func TestFigureForGPUAxisUnitConversion(t *testing.T) {
	t.Parallel()
	res := fullStudy(t)
	fig, err := res.FigureFor("amg2023", cloud.GPU)
	if err != nil {
		t.Fatal(err)
	}
	if fig.XLabel != "GPUs" {
		t.Fatalf("GPU figure x-label = %q, want GPUs", fig.XLabel)
	}
	for _, tc := range []struct {
		env         string
		gpusPerNode int
	}{
		{"onprem-b-gpu", 4}, // POWER9 hosts: 4 GPUs/node, double the nodes
		{"aws-eks-gpu", 8},
	} {
		spec, err := apps.EnvByKey(tc.env)
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.RanksPerNode(); got != tc.gpusPerNode {
			t.Fatalf("%s has %d GPUs/node, test expects %d", tc.env, got, tc.gpusPerNode)
		}
		series := fig.Get(tc.env)
		if len(series.Points) == 0 {
			t.Fatalf("no %s points", tc.env)
		}
		// The series' x values must be exactly {nodes × GPUs/node} over the
		// successful runs — nothing at raw node counts, nothing extra.
		wantX := map[float64]bool{}
		for _, rec := range res.RunsFor(tc.env, "amg2023") {
			if rec.Err == nil && rec.Nodes <= apps.MaxNodesFor(spec) {
				wantX[float64(rec.Nodes*tc.gpusPerNode)] = true
			}
		}
		if len(series.Points) != len(wantX) {
			t.Fatalf("%s: %d points, want %d (x = nodes×GPUs)", tc.env, len(series.Points), len(wantX))
		}
		for _, p := range series.Points {
			if !wantX[p.X] {
				t.Fatalf("%s: unexpected point at x=%v; x must be nodes×GPUs", tc.env, p.X)
			}
		}
	}
	// Both 32-GPU configurations land on the same x — that alignment is
	// the point of the conversion.
	if _, ok := fig.Get("onprem-b-gpu").At(32); !ok {
		t.Fatal("cluster B (8 nodes × 4 GPUs) should have a point at 32 GPUs")
	}
	if _, ok := fig.Get("aws-eks-gpu").At(32); !ok {
		t.Fatal("EKS (4 nodes × 8 GPUs) should have a point at 32 GPUs")
	}
}

// TestFigureForAllErrorRuns: every failed run is excluded from
// aggregation, so an (env, app) pair that only ever fails contributes no
// points — the Quicksilver GPU pinning bug in the real dataset.
func TestFigureForAllErrorRuns(t *testing.T) {
	t.Parallel()
	res := fullStudy(t)
	recs := res.RunsFor("azure-aks-gpu", "quicksilver")
	if len(recs) == 0 {
		t.Fatal("no Quicksilver records on azure-aks-gpu")
	}
	for _, rec := range recs {
		if rec.Err == nil {
			t.Fatalf("expected every azure-aks-gpu Quicksilver run to fail, got %+v", rec)
		}
	}
	fig, err := res.FigureFor("quicksilver", cloud.GPU)
	if err != nil {
		t.Fatal(err)
	}
	if s := fig.Get("azure-aks-gpu"); len(s.Points) != 0 {
		t.Fatalf("all-error series has %d points, want 0", len(s.Points))
	}
}

// TestTable3MatchesPerEnvFilter pins the one-pass Table 3 scorer against
// the per-environment definition it replaced: for every deployable
// environment of the seed-2025 study, clean and with the default chaos
// plan, each category's score and evidence are what that environment's
// own events (Log.ByEnv), filtered to the category, give.
func TestTable3MatchesPerEnvFilter(t *testing.T) {
	t.Parallel()
	threshold := usability.NewScorer().UnexpectedHighThreshold
	for _, chaosRef := range []string{"", "default"} {
		res, err := (&Runner{}).Run(context.Background(), &StudySpec{Seed: 2025, Chaos: chaosRef})
		if err != nil {
			t.Fatal(err)
		}
		table := res.Table3()
		envs := apps.Deployable(res.Envs)
		if len(table) != len(envs) {
			t.Fatalf("chaos %q: Table 3 has %d rows, want %d", chaosRef, len(table), len(envs))
		}
		scored := map[usability.Effort]int{}
		for i, spec := range envs {
			a := table[i]
			if a.Env != spec.Key {
				t.Fatalf("chaos %q: row %d is %s, want %s", chaosRef, i, a.Env, spec.Key)
			}
			events := res.Log.ByEnv(spec.Key)
			withEvidence := 0
			for _, cat := range usability.Categories {
				var unexpected, blocking int
				var evidence []trace.Event
				for _, e := range events {
					if e.Category != cat {
						continue
					}
					switch e.Severity {
					case trace.Unexpected:
						unexpected++
						evidence = append(evidence, e)
					case trace.Blocking:
						blocking++
						evidence = append(evidence, e)
					}
				}
				want := usability.Low
				switch {
				case blocking > 0 || unexpected >= threshold:
					want = usability.High
				case unexpected > 0:
					want = usability.Medium
				}
				if a.Scores[cat] != want {
					t.Errorf("chaos %q: %s %s scored %v, want %v", chaosRef, spec.Key, cat, a.Scores[cat], want)
				}
				if !reflect.DeepEqual(a.Evidence[cat], evidence) {
					t.Errorf("chaos %q: %s %s evidence has %d events, want the %d of its filter in log order", chaosRef, spec.Key, cat, len(a.Evidence[cat]), len(evidence))
				}
				if len(evidence) > 0 {
					withEvidence++
				}
				scored[want]++
			}
			if len(a.Evidence) != withEvidence {
				t.Errorf("chaos %q: %s has evidence under %d categories, want %d", chaosRef, spec.Key, len(a.Evidence), withEvidence)
			}
		}
		if scored[usability.Medium] == 0 || scored[usability.High] == 0 {
			t.Fatalf("chaos %q: scores %v do not exercise every rubric branch", chaosRef, scored)
		}
	}
}
