package usability

import (
	"strings"
	"testing"
	"time"

	"cloudhpc/internal/trace"
)

func TestScoreRubric(t *testing.T) {
	t.Parallel()
	log := trace.NewLog()
	log.Addf(0, "e", trace.Setup, trace.Routine, "fine")
	log.Addf(0, "e", trace.Development, trace.Unexpected, "debugging")
	log.Addf(0, "e", trace.AppSetup, trace.Blocking, "big effort")
	a := NewScorer().Score(log, "e")
	if a.Scores[trace.Setup] != Low {
		t.Fatalf("routine-only category should be low")
	}
	if a.Scores[trace.Development] != Medium {
		t.Fatalf("unexpected → medium")
	}
	if a.Scores[trace.AppSetup] != High {
		t.Fatalf("blocking → high")
	}
	if a.Scores[trace.Manual] != Low {
		t.Fatalf("empty category defaults to low")
	}
}

func TestUnexpectedPileUpBecomesHigh(t *testing.T) {
	t.Parallel()
	log := trace.NewLog()
	s := NewScorer()
	for i := 0; i < s.UnexpectedHighThreshold; i++ {
		log.Addf(0, "cc", trace.Manual, trace.Unexpected, "job stalled, kicked")
	}
	if got := s.Score(log, "cc").Scores[trace.Manual]; got != High {
		t.Fatalf("sustained babysitting should be high, got %v", got)
	}
	// One fewer stays medium.
	log2 := trace.NewLog()
	for i := 0; i < s.UnexpectedHighThreshold-1; i++ {
		log2.Addf(0, "cc", trace.Manual, trace.Unexpected, "stall")
	}
	if got := s.Score(log2, "cc").Scores[trace.Manual]; got != Medium {
		t.Fatalf("below threshold should be medium, got %v", got)
	}
}

func TestInfoAndBillingNeverCount(t *testing.T) {
	t.Parallel()
	log := trace.NewLog()
	log.Addf(0, "e", trace.Info, trace.Blocking, "noise")
	log.Addf(0, "e", trace.Billing, trace.Blocking, "expensive")
	a := NewScorer().Score(log, "e")
	for _, cat := range Categories {
		if a.Scores[cat] != Low {
			t.Fatalf("%s should be low, got %v", cat, a.Scores[cat])
		}
	}
	for _, cat := range []trace.Category{trace.Info, trace.Billing} {
		if ev, ok := a.Evidence[cat]; ok {
			t.Fatalf("evidence has a %s key: %+v", cat, ev)
		}
	}
}

func TestEventsIsolatedPerEnvironment(t *testing.T) {
	t.Parallel()
	log := trace.NewLog()
	log.Addf(0, "bad", trace.Setup, trace.Blocking, "broken")
	log.Addf(0, "good", trace.Setup, trace.Routine, "fine")
	s := NewScorer()
	if s.Score(log, "good").Scores[trace.Setup] != Low {
		t.Fatalf("scores leaked across environments")
	}
	if s.Score(log, "bad").Scores[trace.Setup] != High {
		t.Fatalf("bad env should be high")
	}
}

func TestEvidenceRecorded(t *testing.T) {
	t.Parallel()
	// Events interleave two environments and four categories; timestamps
	// are deliberately out of order, so evidence must follow the log, not
	// the clock.
	log := trace.NewLog()
	log.Addf(5*time.Minute, "e", trace.Development, trace.Blocking, "custom daemonset")
	log.Addf(1*time.Minute, "e", trace.Setup, trace.Unexpected, "quota request")
	log.Addf(2*time.Minute, "other", trace.Development, trace.Blocking, "other env's daemonset")
	log.Addf(3*time.Minute, "e", trace.Setup, trace.Routine, "cluster up")
	log.Addf(0, "e", trace.Development, trace.Unexpected, "kernel module rebuild")
	log.Addf(4*time.Minute, "e", trace.AppSetup, trace.Routine, "spack install")
	log.Addf(6*time.Minute, "e", trace.Setup, trace.Blocking, "stuck provisioning")
	log.Addf(7*time.Minute, "e", trace.Manual, trace.Unexpected, "job stalled")
	log.Addf(8*time.Minute, "other", trace.Manual, trace.Unexpected, "other env's stall")
	log.Addf(9*time.Minute, "e", trace.Info, trace.Unexpected, "note")
	log.Addf(time.Minute, "e", trace.Development, trace.Blocking, "operator patch")
	a := NewScorer().Score(log, "e")

	want := map[trace.Category][]string{
		trace.Setup:       {"quota request", "stuck provisioning"},
		trace.Development: {"custom daemonset", "kernel module rebuild", "operator patch"},
		trace.Manual:      {"job stalled"},
	}
	if len(a.Evidence) != len(want) {
		t.Fatalf("evidence keys = %d categories, want %d: %+v", len(a.Evidence), len(want), a.Evidence)
	}
	for cat, msgs := range want {
		ev := a.Evidence[cat]
		if len(ev) != len(msgs) {
			t.Fatalf("%s evidence = %+v, want %q", cat, ev, msgs)
		}
		for i, e := range ev {
			if e.Msg != msgs[i] || e.Env != "e" || e.Category != cat {
				t.Fatalf("%s evidence[%d] = %+v, want %q in env e", cat, i, e, msgs[i])
			}
		}
	}
}

func TestTableRendering(t *testing.T) {
	t.Parallel()
	log := trace.NewLog()
	log.Addf(0, "azure-aks-cpu", trace.Development, trace.Blocking, "daemonset")
	out := Table(NewScorer().ScoreAll(log, []string{"azure-aks-cpu"}))
	if !strings.Contains(out, "azure-aks-cpu") || !strings.Contains(out, "high") {
		t.Fatalf("table missing content:\n%s", out)
	}
	if !strings.Contains(out, "Setup") || !strings.Contains(out, "Manual") {
		t.Fatalf("table missing headers:\n%s", out)
	}
}

func TestSummaryAndHardest(t *testing.T) {
	t.Parallel()
	log := trace.NewLog()
	log.Addf(0, "hard", trace.Setup, trace.Blocking, "x")
	log.Addf(0, "hard", trace.Manual, trace.Blocking, "y")
	log.Addf(0, "easy", trace.Setup, trace.Routine, "z")
	as := NewScorer().ScoreAll(log, []string{"easy", "hard"})
	sum := Summary(as)
	if sum[High] != 2 || sum[Low] != 6 {
		t.Fatalf("summary = %v", sum)
	}
	order := HardestEnvironments(as)
	if order[0] != "hard" || order[1] != "easy" {
		t.Fatalf("hardest order = %v", order)
	}
}

func TestDiffDetectsChanges(t *testing.T) {
	t.Parallel()
	logBefore := trace.NewLog()
	logBefore.Addf(0, "aks", trace.Development, trace.Blocking, "custom daemonset required")
	logAfter := trace.NewLog()
	logAfter.Addf(0, "aks", trace.Development, trace.Routine, "vendor now documents InfiniBand install")
	s := NewScorer()
	before := s.ScoreAll(logBefore, []string{"aks"})
	after := s.ScoreAll(logAfter, []string{"aks"})
	deltas := Diff(before, after)
	if len(deltas) != 1 {
		t.Fatalf("deltas = %+v", deltas)
	}
	d := deltas[0]
	if d.Category != trace.Development || d.Before != High || d.After != Low || !d.Improved() {
		t.Fatalf("delta = %+v", d)
	}
	// Identical assessments diff to nothing; unmatched envs are skipped.
	if ds := Diff(before, before); len(ds) != 0 {
		t.Fatalf("self-diff = %+v", ds)
	}
	if ds := Diff(before, s.ScoreAll(logAfter, []string{"other"})); len(ds) != 0 {
		t.Fatalf("unmatched env diffed: %+v", ds)
	}
}

func TestEffortString(t *testing.T) {
	t.Parallel()
	for e, want := range map[Effort]string{Low: "low", Medium: "medium", High: "high", Effort(7): "effort(7)"} {
		if e.String() != want {
			t.Fatalf("Effort(%d) = %q", int(e), e.String())
		}
	}
}
