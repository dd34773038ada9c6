package core

import (
	"context"
	"testing"

	"cloudhpc/internal/trace"
	"cloudhpc/internal/usability"
)

// TestTable3SeedInvariant verifies that the qualitative result of the
// study — the usability assessment — does not depend on the simulation
// seed. The quantitative FOMs jitter; the effort scores must not, because
// they rest on structural events (custom daemonsets, placement failures,
// container bases) and wide margins on the stochastic ones (stall
// pile-ups far above the scoring threshold).
func TestTable3SeedInvariant(t *testing.T) {
	type table map[string][4]usability.Effort
	snapshot := func(seed uint64) table {
		st, _ := newTestStudy(t, DefaultSpec(seed), nil)
		res, err := st.runSession(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		out := table{}
		for _, a := range res.Table3() {
			out[a.Env] = [4]usability.Effort{
				a.Scores[trace.Setup], a.Scores[trace.Development],
				a.Scores[trace.AppSetup], a.Scores[trace.Manual],
			}
		}
		return out
	}

	base := snapshot(2025)
	for _, seed := range []uint64{1, 31337, 987654321} {
		got := snapshot(seed)
		if len(got) != len(base) {
			t.Fatalf("seed %d: %d rows vs %d", seed, len(got), len(base))
		}
		for env, want := range base {
			if got[env] != want {
				t.Errorf("seed %d: %s scores %v, baseline %v — Table 3 must be seed-invariant",
					seed, env, got[env], want)
			}
		}
	}
}
