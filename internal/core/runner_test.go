package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudhpc/internal/store"
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
	for _, e := range st.Envs {
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
	wantUnits := deployable * len(st.Models)
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

// TestRunnerSingleFlight: concurrent same-spec callers through one
// Runner share a single execution — every caller receives the same
// *Results value — and later callers are served from the memory tier
// with a study-cached event.
func TestRunnerSingleFlight(t *testing.T) {
	t.Parallel()
	spec := &StudySpec{Seed: 880001, Envs: []string{"azure-aks-cpu"}, Scales: []int{2, 4}, Iterations: 2}
	r := &Runner{}
	const callers = 8
	results := make([]*Results, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Run(context.Background(), spec)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different Results value: single-flight failed", i)
		}
	}

	// A later Start is a memory-tier hit, visible on its event stream.
	sess, err := r.Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Wait()
	if err != nil || res != results[0] {
		t.Fatalf("memory-tier Start: res=%p err=%v, want shared %p", res, err, results[0])
	}
	ch, _ := sess.Subscribe()
	evs := collectEvents(ch)()
	cached := kinds(evs, EventStudyCached)
	if len(cached) != 1 || cached[0].Tier != "memory" {
		t.Fatalf("memory hit events = %+v, want one study-cached tier=memory", evs)
	}
}

// TestRunnerSharedCtxErrorNotMemoized: cancelling the leading session
// hands every concurrent caller the shared context error, and the
// cancellation is not memoized — the next caller computes fresh.
func TestRunnerSharedCtxErrorNotMemoized(t *testing.T) {
	t.Parallel()
	spec := &StudySpec{Seed: 880002, Workers: 1}
	r := &Runner{}
	leader, err := r.Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := leader.Subscribe()
	// Wait until execution is demonstrably under way before attaching
	// followers and cancelling.
	for ev := range ch {
		if ev.Kind == EventEnvStarted || ev.Kind == EventUnitStarted {
			break
		}
	}
	var followers []*Session
	for i := 0; i < 3; i++ {
		f, err := r.Start(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		followers = append(followers, f)
	}
	leader.Cancel()
	if _, err := leader.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("leader Wait = %v, want context.Canceled", err)
	}
	for i, f := range followers {
		if _, err := f.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("follower %d Wait = %v, want the shared context.Canceled", i, err)
		}
	}
	// Not poisoned: a fresh caller computes and succeeds.
	res, err := r.Run(context.Background(), spec)
	if err != nil || res == nil {
		t.Fatalf("post-cancellation Run = (%v, %v), want a fresh dataset", res, err)
	}
}

// TestRunnerFollowerDetachesOnOwnCtx: a follower whose own context is
// cancelled detaches immediately while the shared execution keeps
// running to a successful result for everyone else.
func TestRunnerFollowerDetachesOnOwnCtx(t *testing.T) {
	t.Parallel()
	spec := &StudySpec{Seed: 880003, Workers: 1}
	r := &Runner{}
	leader, err := r.Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	fctx, fcancel := context.WithCancel(context.Background())
	follower, err := r.Start(fctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	fcancel()
	if _, err := follower.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("detached follower Wait = %v, want its own context.Canceled", err)
	}
	res, err := leader.Wait()
	if err != nil || res == nil {
		t.Fatalf("leader Wait after follower detach = (%v, %v), want success", res, err)
	}
}

// TestRunnerLogfCapturesStoreWarnings pins the injectable-logger
// satellite: a Runner's Logf receives the persist-layer warnings its
// executions raise (here, a corrupted study bundle degrading to
// recompute), and the shared store's own logger stays silent for them.
func TestRunnerLogfCapturesStoreWarnings(t *testing.T) {
	t.Parallel()
	rs, mem := quietStore(t)
	var storeOwn []string
	rs.Logf = func(format string, args ...any) { storeOwn = append(storeOwn, format) }
	spec := &StudySpec{Seed: 880004, Envs: []string{"google-gke-cpu"}, Scales: []int{2}, Iterations: 1}
	r := &Runner{Store: rs}
	if _, err := r.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	key := dropCacheEntry(t, spec)
	// Damage every layer of the stored bundle so the warm load degrades
	// and warns.
	files, err := rs.reg.Pull("study/" + key)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		if !mem.Corrupt(store.DigestOf(data)) {
			t.Fatalf("layer %s not in store", name)
		}
	}

	var mu sync.Mutex
	var captured []string
	r2 := &Runner{Store: rs, Logf: func(format string, args ...any) {
		mu.Lock()
		captured = append(captured, format)
		mu.Unlock()
	}}
	storeOwn = nil
	if _, err := r2.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, f := range captured {
		if strings.Contains(f, "falling back to compute") || strings.Contains(f, "recomputing") {
			found = true
		}
	}
	if !found {
		t.Fatalf("injected Logf captured %q, want a corrupt-fallback warning", captured)
	}
	for _, f := range storeOwn {
		if strings.Contains(f, "falling back") || strings.Contains(f, "recomputing") || strings.Contains(f, "warm hit") {
			t.Fatalf("store's own logger still received %q despite the injected one", f)
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
	dropCacheEntry(t, spec)
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

// TestRunnerConfigureBypassesCacheTiers: non-spec options produce
// datasets that depend on more than the spec, so configured runs are
// never served from (or memoized into) the study tiers.
func TestRunnerConfigureBypassesCacheTiers(t *testing.T) {
	t.Parallel()
	spec := &StudySpec{Seed: 880006, Envs: []string{"google-gke-cpu"}, Scales: []int{2}, Iterations: 1}
	plain := &Runner{}
	base, err := plain.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	configured := &Runner{Configure: func(o *Options) { o.PauseBetweenScales = time.Hour }}
	a, err := configured.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := configured.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a == base || b == base {
		t.Fatal("configured run was served from the spec-keyed memory tier")
	}
	if a == b {
		t.Fatal("configured runs must not memoize: got the same Results twice")
	}
	// And the memory tier still serves the unconfigured dataset.
	again, err := plain.Run(context.Background(), spec)
	if err != nil || again != base {
		t.Fatalf("plain rerun = (%p, %v), want memoized %p", again, err, base)
	}
}

// TestFullStudyAllocs caps what computing the default study allocates
// through a store-less Runner. The memory tier is flushed before every
// run, so each one computes the study end to end.
func TestFullStudyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are off under -race")
	}
	defer FlushCachedRuns()
	const ceiling = 22000
	got := testing.AllocsPerRun(3, func() {
		FlushCachedRuns()
		if _, err := (&Runner{}).Run(context.Background(), DefaultSpec(2025)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("the seed-2025 study allocates %.0f/op", got)
	if got > ceiling {
		t.Errorf("the seed-2025 study allocates %.0f/op, want <= %d", got, ceiling)
	}
}
