package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"cloudhpc/internal/cloud"
	"cloudhpc/internal/trace"
)

func TestDefaultOptionsMatchStudy(t *testing.T) {
	// The zero Options must not change the study: Table 3 assertions in
	// study_test.go run with defaults; here just confirm the shakeout and
	// pause leave no trace when off.
	st, _ := newTestStudy(t, DefaultSpec(11), nil)
	res, err := st.runSession(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Log.Events() {
		if strings.Contains(e.Msg, "test cluster") || strings.Contains(e.Msg, "paused") {
			t.Fatalf("default options produced option events: %q", e.Msg)
		}
	}
}

func TestTestClustersShakeout(t *testing.T) {
	st, _ := newTestStudy(t, DefaultSpec(12), nil)
	st.Opts.TestClusters = true
	res, err := st.runSession(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	shakeouts := res.Log.Filter(func(e trace.Event) bool {
		return strings.Contains(e.Msg, "test cluster shakeout")
	})
	// 11 cloud environments get a shakeout (on-prem has no provisioning).
	if len(shakeouts) < 9 {
		t.Fatalf("shakeouts = %d, want one per deployable cloud env", len(shakeouts))
	}
}

func TestPauseBetweenScalesShrinksBlindSpot(t *testing.T) {
	run := func(pause time.Duration) float64 {
		st, _ := newTestStudy(t, DefaultSpec(13), nil)
		st.Opts.PauseBetweenScales = pause
		// Azure environments run last in the matrix, so their freshest
		// charges are the blind spot visible at study end.
		if _, err := st.runSession(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		return st.Meter.UnreportedSpend(cloud.Azure)
	}
	without := run(0)
	with := run(26 * time.Hour) // beyond every provider's reporting lag
	if with >= without {
		t.Fatalf("pausing should shrink the unreported blind spot: $%.2f vs $%.2f", with, without)
	}
	if with != 0 {
		t.Fatalf("a pause beyond the lag should clear the blind spot, $%.2f left", with)
	}
}

func TestAbortOverBudgetStopsEnvironment(t *testing.T) {
	st, _ := newTestStudy(t, DefaultSpec(14), nil)
	st.Opts.AbortOverBudget = true
	st.Meter.SetBudget(cloud.Google, 50) // absurdly tight
	res, err := st.runSession(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	aborts := res.Log.Filter(func(e trace.Event) bool {
		return strings.Contains(e.Msg, "aborting") && strings.Contains(e.Msg, "google")
	})
	if len(aborts) == 0 {
		t.Fatalf("tight budget should abort Google environments")
	}
	// Google runs are cut short; other providers unaffected.
	google := len(res.RunsFor("google-gke-cpu", ""))
	full := len(res.RunsFor("aws-eks-cpu", ""))
	if google >= full {
		t.Fatalf("aborted env ran %d records vs %d on an unaborted one", google, full)
	}
}
