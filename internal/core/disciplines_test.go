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
	// A spec without disciplines must not change the study: Table 3
	// assertions in study_test.go run with defaults; here just confirm
	// the shakeout and pause leave no trace when off.
	st, _ := newTestStudy(t, DefaultSpec(11), nil)
	res, err := st.runSession(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Log.Events() {
		if strings.Contains(e.Msg, "test cluster") || strings.Contains(e.Msg, "paused") {
			t.Fatalf("a spec without disciplines produced discipline events: %q", e.Msg)
		}
	}
}

func TestTestClustersShakeout(t *testing.T) {
	spec := DefaultSpec(12)
	spec.TestClusters = true
	st, _ := newTestStudy(t, spec, nil)
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
		spec := DefaultSpec(13)
		spec.Pause = pause
		st, _ := newTestStudy(t, spec, nil)
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
	spec := DefaultSpec(14)
	spec.AbortOverBudget = true
	st, _ := newTestStudy(t, spec, nil)
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
