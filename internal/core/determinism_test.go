package core

import (
	"context"
	"reflect"
	"testing"

	"cloudhpc/internal/chaos"
)

// runWithWorkers executes a fresh study at the given seed and worker
// count, with an optional chaos plan.
func runWithWorkers(t *testing.T, seed uint64, workers int, plan *chaos.Plan) (*study, *Results) {
	t.Helper()
	st, _ := newTestStudy(t, &StudySpec{Seed: seed, Workers: workers}, nil)
	st.Spec.Plan = plan
	res, err := st.runSession(context.Background(), nil)
	if err != nil {
		t.Fatalf("run(workers=%d): %v", workers, err)
	}
	return st, res
}

// assertSameDataset asserts that two runs of the same (seed, plan) are
// byte-identical: run records, derived tables, merged trace (timestamps
// included), billing, incidents, and recovery accounting.
func assertSameDataset(t *testing.T, workers int, baseStudy, st *study, base, res *Results) {
	t.Helper()
	if len(res.Runs) != len(base.Runs) {
		t.Fatalf("workers=%d: %d runs vs %d with workers=1", workers, len(res.Runs), len(base.Runs))
	}
	for i := range res.Runs {
		a, b := base.Runs[i], res.Runs[i]
		// Compare error identity by message; everything else bit-exact.
		aErr, bErr := "", ""
		if a.Err != nil {
			aErr = a.Err.Error()
		}
		if b.Err != nil {
			bErr = b.Err.Error()
		}
		if a.EnvKey != b.EnvKey || a.App != b.App || a.Nodes != b.Nodes || a.Iter != b.Iter ||
			a.FOM != b.FOM || a.Unit != b.Unit || a.Wall != b.Wall || a.Hookup != b.Hookup ||
			a.CostUSD != b.CostUSD || aErr != bErr {
			t.Fatalf("workers=%d: run %d diverged:\n  w1: %+v\n  w%d: %+v", workers, i, a, workers, b)
		}
	}

	if !reflect.DeepEqual(res.Table4(), base.Table4()) {
		t.Errorf("workers=%d: Table4 diverged", workers)
	}
	if !reflect.DeepEqual(res.StudyCosts(), base.StudyCosts()) {
		t.Errorf("workers=%d: StudyCosts diverged", workers)
	}
	if !reflect.DeepEqual(res.ECCOn, base.ECCOn) {
		t.Errorf("workers=%d: ECC survey diverged", workers)
	}
	if !reflect.DeepEqual(res.Findings, base.Findings) {
		t.Errorf("workers=%d: audit findings diverged", workers)
	}
	if !reflect.DeepEqual(res.Hookups, base.Hookups) {
		t.Errorf("workers=%d: hookup series diverged", workers)
	}

	// Injected faults must merge identically too: same incidents at the
	// same campaign timestamps, same recovery totals.
	if !reflect.DeepEqual(res.Incidents, base.Incidents) {
		t.Errorf("workers=%d: incidents diverged (%d vs %d)", workers, len(res.Incidents), len(base.Incidents))
	}
	if res.Recovery != base.Recovery {
		t.Errorf("workers=%d: recovery accounting diverged:\n  w1: %+v\n  w%d: %+v",
			workers, base.Recovery, workers, res.Recovery)
	}

	// The merged trace must be event-for-event identical, timestamps
	// included (the serialized virtual timeline is scheduling-free).
	aEvents, bEvents := base.Log.Events(), res.Log.Events()
	if len(aEvents) != len(bEvents) {
		t.Fatalf("workers=%d: %d trace events vs %d", workers, len(bEvents), len(aEvents))
	}
	for i := range aEvents {
		if aEvents[i] != bEvents[i] {
			t.Fatalf("workers=%d: trace event %d diverged:\n  w1: %+v\n  w%d: %+v",
				workers, i, aEvents[i], workers, bEvents[i])
		}
	}

	// Billing: identical per-provider actual and reported spend at the
	// identical end-of-study clock.
	if st.Sim.Now() != baseStudy.Sim.Now() {
		t.Errorf("workers=%d: end-of-study clock %v vs %v", workers, st.Sim.Now(), baseStudy.Sim.Now())
	}
	if got, want := res.Meter.Spend(""), base.Meter.Spend(""); got != want {
		t.Errorf("workers=%d: total spend %.6f vs %.6f", workers, got, want)
	}
}

// TestRunFullWorkerCountInvariant is the executor's core guarantee: the
// dataset is byte-identical for workers ∈ {1, 4, 32}, with and without
// fault injection. Run records, the derived Table 4, per-cloud spend, the
// merged trace, the merged billing timeline, and (under chaos) the
// incident transcript and recovery accounting must all match exactly.
func TestRunFullWorkerCountInvariant(t *testing.T) {
	const seed = 2025
	plans := []struct {
		name string
		plan *chaos.Plan
	}{
		{"default", nil},
		{"chaos", chaos.DefaultPlan()},
	}
	for _, tc := range plans {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			baseStudy, base := runWithWorkers(t, seed, 1, tc.plan)
			if tc.plan != nil && len(base.Incidents) == 0 {
				t.Fatal("chaos plan injected no incidents; the invariant would be vacuous")
			}
			if tc.plan == nil && len(base.Incidents) != 0 {
				t.Fatalf("default run has %d incidents; chaos must be off by default", len(base.Incidents))
			}
			for _, workers := range []int{4, 32} {
				st, res := runWithWorkers(t, seed, workers, tc.plan)
				assertSameDataset(t, workers, baseStudy, st, base, res)
			}
		})
	}
}

// TestRunFullWorkerCountInvariantAcrossSeeds spot-checks the whole
// dataset invariant on other seeds, one of them also under the default
// chaos plan, so it cannot silently hold only for the default.
func TestRunFullWorkerCountInvariantAcrossSeeds(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		plan *chaos.Plan
	}{
		{1, nil},
		{31337, nil},
		{31337, chaos.DefaultPlan()},
	} {
		baseStudy, base := runWithWorkers(t, tc.seed, 1, tc.plan)
		if tc.plan != nil && len(base.Incidents) == 0 {
			t.Fatalf("seed %d: chaos plan injected no incidents; the check would be vacuous", tc.seed)
		}
		st, res := runWithWorkers(t, tc.seed, 8, tc.plan)
		assertSameDataset(t, 8, baseStudy, st, base, res)
	}
}

// TestScorerSeesMergedPerEnvOrder guards the merge contract the usability
// scorer relies on: within one environment, merged events keep their
// shard-local order and monotone timestamps.
func TestScorerSeesMergedPerEnvOrder(t *testing.T) {
	_, res := runWithWorkers(t, 2025, 8, nil)
	for _, env := range res.Log.Envs() {
		events := res.Log.ByEnv(env)
		for i := 1; i < len(events); i++ {
			if events[i].At < events[i-1].At {
				t.Fatalf("%s: merged events out of order at %d: %v after %v",
					env, i, events[i].At, events[i-1].At)
			}
		}
	}
	// And the global timeline is laid end to end in matrix order: the
	// first event of a later environment never precedes the last event of
	// an earlier one is too strong (pseudo-keys interleave), but the
	// study clock must cover every event.
	for _, e := range res.Log.Events() {
		if e.At < 0 {
			t.Fatalf("negative timestamp after merge: %+v", e)
		}
	}
}
