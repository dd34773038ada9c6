package core

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"cloudhpc/internal/trace"
)

// collectEvents drains a subscription in the background and returns a
// join func yielding everything received (the channel closes when the
// session finishes).
func collectEvents(ch <-chan Event) func() []Event {
	done := make(chan []Event, 1)
	go func() {
		var evs []Event
		for ev := range ch {
			evs = append(evs, ev)
		}
		done <- evs
	}()
	return func() []Event { return <-done }
}

// kinds filters an event list down to one kind.
func kinds(evs []Event, k EventKind) []Event {
	var out []Event
	for _, ev := range evs {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// TestSessionIsPureObservation is the acceptance check for the event
// layer: a fully subscribed session at 32 workers must produce the
// dataset byte-for-byte pinned by the committed seed-2025 golden file —
// events draw nothing and reorder nothing. It also pins the stream's shape: opens with
// study-started, closes with study-finished, brackets every environment
// and unit, and drives progress exactly through the partition plan.
func TestSessionIsPureObservation(t *testing.T) {
	t.Parallel()
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_seed2025.txt"))
	if err != nil {
		t.Fatal(err)
	}
	spec := &StudySpec{Seed: 2025, Workers: 32}
	st, _ := newTestStudy(t, spec, nil)
	sess := newSession(func() {})
	ch, _ := sess.Subscribe()
	join := collectEvents(ch)
	res, err := st.runSession(context.Background(), sess)
	sess.finish(res, err)
	if err != nil {
		t.Fatal(err)
	}
	if goldenSnapshot(res) != string(golden) {
		t.Fatal("subscribed-session dataset diverged from the committed golden file: events are not pure observation")
	}

	evs := join()
	if len(evs) == 0 || evs[0].Kind != EventStudyStarted {
		t.Fatalf("stream must open with %s, got %+v", EventStudyStarted, evs[:min(3, len(evs))])
	}
	if last := evs[len(evs)-1]; last.Kind != EventStudyFinished {
		t.Fatalf("stream must close with %s, got %s", EventStudyFinished, last.Kind)
	}
	deployable, skipped := 0, 0
	for _, e := range st.Spec.Envs {
		if e.Unavailable == "" {
			deployable++
		} else {
			skipped++
		}
	}
	if got := len(kinds(evs, EventEnvFinished)); got != deployable {
		t.Errorf("env-finished events = %d, want %d", got, deployable)
	}
	if got := len(kinds(evs, EventEnvSkipped)); got != skipped {
		t.Errorf("env-skipped events = %d, want %d", got, skipped)
	}
	wantUnits := deployable * len(st.Spec.Models)
	if got := len(kinds(evs, EventUnitFinished)) + len(kinds(evs, EventUnitCached)); got != wantUnits {
		t.Errorf("unit completion events = %d, want %d", got, wantUnits)
	}
	done, total := sess.Progress()
	if total != deployable+skipped+wantUnits || done != total {
		t.Errorf("progress = %d/%d, want %d/%d (partition plan: envs + units)",
			done, total, deployable+skipped+wantUnits, deployable+skipped+wantUnits)
	}
	progress := kinds(evs, EventProgress)
	if len(progress) != total {
		t.Errorf("progress events = %d, want one per plan task (%d)", len(progress), total)
	}
	if p := progress[len(progress)-1]; p.Done != total || p.Percent() != 100 {
		t.Errorf("final progress = %d/%d (%.1f%%), want %d/%d", p.Done, p.Total, p.Percent(), total, total)
	}
	if sess.Dropped() != 0 {
		t.Errorf("%d events dropped under an actively-draining subscriber", sess.Dropped())
	}
}

// TestSessionEmitsIncidents: a chaotic session surfaces every injected
// fault as an EventIncident — and stays byte-identical to the same
// chaotic study run blind.
func TestSessionEmitsIncidents(t *testing.T) {
	t.Parallel()
	spec := &StudySpec{Seed: 11, Chaos: "default", Workers: 4}
	stBase, _ := newTestStudy(t, spec, nil)
	base, err := stBase.runSession(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Incidents) == 0 {
		t.Fatal("chaotic baseline injected nothing; the test would be vacuous")
	}
	st, _ := newTestStudy(t, spec, nil)
	sess := newSession(func() {})
	ch, _ := sess.Subscribe()
	join := collectEvents(ch)
	res, err := st.runSession(context.Background(), sess)
	sess.finish(res, err)
	if err != nil {
		t.Fatal(err)
	}
	if goldenSnapshot(res) != goldenSnapshot(base) {
		t.Fatal("chaotic subscribed session diverged from the blind run")
	}
	incidents := kinds(join(), EventIncident)
	if len(incidents) != len(base.Incidents) {
		t.Fatalf("incident events = %d, want %d (one per injected fault)", len(incidents), len(base.Incidents))
	}
	for _, ev := range incidents {
		if ev.Incident == nil || ev.Env == "" {
			t.Fatalf("incident event missing payload: %+v", ev)
		}
	}
}

// TestRunnerStoreTierEmitsStudyCached: a Start served warm from the
// persistent store announces it on the event stream.
func TestRunnerStoreTierEmitsStudyCached(t *testing.T) {
	t.Parallel()
	rs, _ := quietStore(t)
	spec := &StudySpec{Seed: 880005, Envs: []string{"google-gke-cpu"}, Scales: []int{2}, Iterations: 1}
	r := &Runner{Store: rs}
	if _, err := r.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	sess, err := r.Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	ch, _ := sess.Subscribe()
	evs := collectEvents(ch)()
	cached := kinds(evs, EventStudyCached)
	if len(cached) != 1 || cached[0].Tier != "store" {
		t.Fatalf("store-tier Start events = %+v, want one study-cached tier=store", evs)
	}
}

// TestRunnerKeepsNoDatasetBetweenRuns: a Runner holds nothing of a
// finished run, so one that serves many distinct specs does not grow.
// After a warm-up run, 200 distinct one-environment specs through one
// store-less Runner must leave the heap, after a GC, less than 1 MB
// above where it stood. Not parallel: other tests' allocations would
// land in the measurement.
func TestRunnerKeepsNoDatasetBetweenRuns(t *testing.T) {
	r := &Runner{}
	run := func(seed uint64) {
		t.Helper()
		spec := &StudySpec{Seed: seed, Envs: []string{"google-gke-cpu"}, Scales: []int{2, 4}, Iterations: 2}
		if _, err := r.Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	run(880100)
	before := heap()
	for seed := uint64(880101); seed <= 880300; seed++ {
		run(seed)
	}
	const bound = 1 << 20
	grew := heap() - before
	t.Logf("200 distinct specs grew the heap by %d bytes", grew)
	if grew >= bound {
		t.Fatalf("200 distinct specs grew the heap by %d bytes, want < %d: the Runner keeps datasets between runs", grew, bound)
	}
}

// TestDisciplinesAreSpecDirectives: the §4.2 disciplines are part of
// the spec. A paused spec runs a different dataset from the plain one,
// and one with all three disciplines survives a save to the study store
// and a warm load unchanged. (That each discipline changes the hash, and
// that they round-trip through the spec text, is pinned by the spec
// tests.)
func TestDisciplinesAreSpecDirectives(t *testing.T) {
	t.Parallel()
	spec := func() *StudySpec {
		return &StudySpec{Seed: 880006, Envs: []string{"google-gke-cpu"}, Scales: []int{2, 4}, Iterations: 1}
	}
	pause := spec()
	pause.Pause = time.Hour

	r := &Runner{}
	plain, err := r.Run(context.Background(), spec())
	if err != nil {
		t.Fatal(err)
	}
	paused, err := r.Run(context.Background(), pause)
	if err != nil {
		t.Fatal(err)
	}
	if goldenSnapshot(paused) == goldenSnapshot(plain) {
		t.Fatal("a paused spec ran the unpaused dataset")
	}
	if n := len(paused.Log.Filter(func(e trace.Event) bool { return strings.HasPrefix(e.Msg, "paused 1h0m0s") })); n != 2 {
		t.Fatalf("paused dataset logs %d pauses, want one per cluster size (2)", n)
	}

	all := spec()
	all.Pause, all.TestClusters, all.AbortOverBudget = 26*time.Hour, true, true
	rs, _ := quietStore(t)
	computed, err := (&Runner{Store: rs}).Run(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	rspec, err := all.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	loaded, ok := rs.LoadStudy(rspec)
	if !ok {
		t.Fatal("the disciplined study was not stored")
	}
	if got, want := goldenSnapshot(loaded), goldenSnapshot(computed); got != want {
		t.Fatalf("the stored disciplined study loads differently:\nloaded:\n%s\ncomputed:\n%s", got, want)
	}
}

// TestFullStudyAllocs caps what computing the default study allocates
// through a store-less Runner, which computes the study end to end on
// every run.
func TestFullStudyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are off under -race")
	}
	const ceiling = 9300
	got := testing.AllocsPerRun(3, func() {
		if _, err := (&Runner{}).Run(context.Background(), DefaultSpec(2025)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("the seed-2025 study allocates %.0f/op", got)
	if got > ceiling {
		t.Errorf("the seed-2025 study allocates %.0f/op, want <= %d", got, ceiling)
	}
}
