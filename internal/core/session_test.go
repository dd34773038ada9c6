package core

import (
	"context"
	"reflect"
	"testing"
)

// TestSubscribeFromResumesExactly pins the reattach primitive: a
// subscriber that detaches mid-stream and resubscribes with its last
// sequence number receives exactly the events it missed, in order, with
// nothing counted missed — provided the replay ring is wide enough.
func TestSubscribeFromResumesExactly(t *testing.T) {
	t.Parallel()
	spec := &StudySpec{Seed: 770001, Workers: 1}
	r := &Runner{}
	sess, err := r.Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	full := collectEvents(sess.SubscribeFrom(0).Events)

	// A second subscriber reads a prefix, detaches, then resumes.
	early := sess.SubscribeFrom(0)
	var prefix []Event
	for ev := range early.Events {
		prefix = append(prefix, ev)
		if len(prefix) == 5 {
			break
		}
	}
	early.Close()
	if _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(prefix) != 5 || prefix[0].Kind != EventStudyStarted || prefix[0].Total == 0 {
		t.Fatalf("the stream must open with a planned %s and hold a 5-event prefix, got %+v", EventStudyStarted, prefix)
	}
	resumed := sess.SubscribeFrom(prefix[len(prefix)-1].Seq)
	if resumed.Missed != 0 {
		t.Fatalf("resume missed %d events despite a wide replay ring", resumed.Missed)
	}
	var tail []Event
	for ev := range resumed.Events {
		tail = append(tail, ev)
	}

	whole := append(append([]Event(nil), prefix...), tail...)
	want := full()
	if len(whole) != len(want) {
		t.Fatalf("prefix+resume = %d events, full subscriber saw %d", len(whole), len(want))
	}
	for i := range want {
		if whole[i].Seq != want[i].Seq || whole[i].Kind != want[i].Kind ||
			whole[i].Env != want[i].Env || whole[i].App != want[i].App {
			t.Fatalf("event %d diverged after resume: %+v vs %+v", i, whole[i], want[i])
		}
		if uint64(i+1) != want[i].Seq {
			t.Fatalf("sequence numbers must be contiguous from 1: event %d has seq %d", i, want[i].Seq)
		}
	}
}

// TestReplayRingOverflowCounted: overflowing the replay ring is
// counted — a subscriber whose cursor predates the kept window is told
// exactly how many events it can never see, instead of a silent gap. The
// session emits ReplayEvents+extra events after a plan-size hint far
// below that, so the ring also outgrows its hint.
func TestReplayRingOverflowCounted(t *testing.T) {
	t.Parallel()
	const extra = 8
	sess := newSession(func() {})
	sess.setTotal(1)
	for i := 0; i < ReplayEvents+extra-1; i++ {
		sess.emit(Event{Kind: EventEnvStarted})
	}
	sess.finish(&Results{}, nil)
	last := sess.Seq()
	if last != ReplayEvents+extra {
		t.Fatalf("session numbered %d events, want %d", last, ReplayEvents+extra)
	}
	sub := sess.SubscribeFrom(0)
	var got []Event
	for ev := range sub.Events {
		got = append(got, ev)
	}
	if len(got) != ReplayEvents {
		t.Fatalf("replay after overflow = %d events, want the ring bound %d", len(got), ReplayEvents)
	}
	if want := last - ReplayEvents; sub.Missed != want {
		t.Fatalf("Missed = %d, want %d (emitted %d, kept %d)", sub.Missed, want, last, ReplayEvents)
	}
	if sess.Lost() != sub.Missed {
		t.Fatalf("Session.Lost = %d, Subscription.Missed = %d: the counters must agree from seq 0", sess.Lost(), sub.Missed)
	}
	// The kept window is the newest tail, ending at the closing event.
	if got[len(got)-1].Seq != last || got[len(got)-1].Kind != EventStudyFinished {
		t.Fatalf("ring tail = seq %d %s, want seq %d %s", got[len(got)-1].Seq, got[len(got)-1].Kind, last, EventStudyFinished)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("kept window must be contiguous: seq %d follows %d", got[i].Seq, got[i-1].Seq)
		}
	}
	// A cursor inside the kept window resumes cleanly.
	mid := sess.SubscribeFrom(got[3].Seq)
	if mid.Missed != 0 {
		t.Fatalf("in-window cursor missed %d events", mid.Missed)
	}
	n := 0
	for range mid.Events {
		n++
	}
	if n != ReplayEvents-4 {
		t.Fatalf("in-window resume delivered %d events, want %d", n, ReplayEvents-4)
	}
}

// TestEventStreamIndependentOfStore pins the single partition plan: a
// 1-worker session emits the same stream — kinds, coordinates and plan
// counts — with no result store as over a fresh one, because every
// deployed environment's units run as their own pool tasks either way.
func TestEventStreamIndependentOfStore(t *testing.T) {
	t.Parallel()
	spec := &StudySpec{Seed: 770005, Envs: []string{"aws-eks-cpu", "onprem-a-cpu"}, Scales: []int{2, 4}, Iterations: 2, Workers: 1}
	type step struct {
		Kind        EventKind
		Env, App    string
		Done, Total int
	}
	stream := func(rs *ResultStore) []step {
		t.Helper()
		sess, err := (&Runner{Store: rs}).Start(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		ch, _ := sess.Subscribe()
		join := collectEvents(ch)
		if _, err := sess.Wait(); err != nil {
			t.Fatal(err)
		}
		var steps []step
		for _, ev := range join() {
			steps = append(steps, step{ev.Kind, ev.Env, ev.App, ev.Done, ev.Total})
		}
		return steps
	}
	bare := stream(nil)
	rs, _ := quietStore(t)
	stored := stream(rs)
	if !reflect.DeepEqual(bare, stored) {
		t.Fatalf("event stream depends on the store: %d events without one, %d with one\nwithout: %v\nwith:    %v",
			len(bare), len(stored), bare, stored)
	}
}

// TestSessionDoneBeforeTerminalEvent pins the order in which a session
// publishes its end: by the time a subscriber reads the closing event,
// Done is closed and Wait answers, so a progress query sent right after
// it can never find the session still running. A wrong order shows only
// when the subscriber wins a narrow race, so the test runs many short
// sessions.
func TestSessionDoneBeforeTerminalEvent(t *testing.T) {
	t.Parallel()
	spec := &StudySpec{Seed: 770006, Envs: []string{"google-gke-cpu"}, Apps: []string{"lammps"}, Scales: []int{2}, Iterations: 1, Workers: 1}
	r := &Runner{}
	for i := 0; i < 4000; i++ {
		sess, err := r.Start(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		ch, _ := sess.Subscribe()
		terminal := 0
		for ev := range ch {
			if ev.Kind != EventStudyFinished && ev.Kind != EventStudyFailed {
				continue
			}
			terminal++
			select {
			case <-sess.Done():
			default:
				t.Fatalf("session %d: %s delivered before Done closed", i, ev.Kind)
			}
		}
		if terminal != 1 {
			t.Fatalf("session %d: %d closing events, want 1", i, terminal)
		}
		if _, err := sess.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOneWorkerEventOrderFixed: at one worker the event stream is a
// function of the spec alone. Every planned task is queued before the
// pool starts, so the worker never overtakes the feeding loop; the rpc
// reattach transcript depends on it. The spec is that transcript's, run
// 200 times, each run required to emit the first run's (kind, env, app)
// sequence.
func TestOneWorkerEventOrderFixed(t *testing.T) {
	t.Parallel()
	spec, err := ParseSpec("seed 880003\nenvs aws-eks-cpu google-gke-cpu\nscales 2 4\niterations 2\n")
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 1
	order := func() []string {
		st, _ := newTestStudy(t, spec, nil)
		sess := newSession(func() {})
		sub := sess.SubscribeFrom(0)
		res, err := st.runSession(context.Background(), sess)
		sess.finish(res, err)
		if err != nil {
			t.Fatal(err)
		}
		var seq []string
		for ev := range sub.Events {
			seq = append(seq, string(ev.Kind)+" "+ev.Env+" "+ev.App)
		}
		if sess.Dropped() != 0 {
			t.Fatalf("%d events dropped", sess.Dropped())
		}
		return seq
	}
	want := order()
	if len(want) < 40 {
		t.Fatalf("the study emitted %d events, want a whole two-environment stream", len(want))
	}
	for run := 1; run < 200; run++ {
		got := order()
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("run %d diverged at event %d: %q, first run %q", run, i+1, got[min(i, len(got)-1)], want[i])
				}
			}
			t.Fatalf("run %d emitted %d events, first run %d", run, len(got), len(want))
		}
	}
}
