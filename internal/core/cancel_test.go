package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// coreGoroutines counts live goroutines spawned by this package's code —
// a goleak-style probe. Test goroutines themselves (which also carry
// core frames) are excluded by their testing.tRunner frame; executor
// workers and runner goroutines never have one.
func coreGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	count := 0
	for _, stack := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(stack, "cloudhpc/internal/core.") &&
			!strings.Contains(stack, "testing.tRunner") &&
			!strings.Contains(stack, "testing.(*T).Run") {
			count++
		}
	}
	return count
}

// assertNoCoreGoroutineLeak polls until the package's goroutine count
// returns to the baseline (worker pools and session goroutines exit
// asynchronously after Wait returns).
func assertNoCoreGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := coreGoroutines(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d core goroutines, baseline %d\n%s", coreGoroutines(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// verifyStoreReopens re-opens a disk-backed result store from scratch
// and self-verifies every artifact in it: each tag must pull cleanly,
// which re-reads every blob and re-checks every digest end to end. A
// cancellation that tore an artifact would fail here. It returns the
// number of artifacts verified.
func verifyStoreReopens(t *testing.T, dir string) int {
	t.Helper()
	rs, err := OpenResultStore(dir)
	if err != nil {
		t.Fatalf("store did not re-open after cancellation: %v", err)
	}
	rs.Logf = t.Logf
	tags := rs.Registry().Tags()
	for _, tag := range tags {
		if _, err := rs.Registry().Pull(tag); err != nil {
			t.Fatalf("artifact %s failed self-verification after cancellation: %v", tag, err)
		}
	}
	t.Logf("store re-opened clean: %d artifacts verified", len(tags))
	return len(tags)
}

// TestCancellationMatrix is the cancellation coverage matrix: cancel
// mid-study at both granularities of the partition plan × workers
// {1, 32}, with a live on-disk store attached. The granularity names
// the kind of pool task in flight when the cancel lands: env-app
// cancels on the first unit-finished, while (env, app) unit tasks run
// and one unit's planned draws are already stored; env cancels on the
// first env-started, while an environment's assembly task runs (at
// workers=1 every unit task precedes it in the queue, so all units are
// stored by then). Each cell asserts that Wait returns the
// context error promptly after the in-flight work drains, that no
// executor or session goroutines leak, and that the store — whose
// writes a cancellation may race — passes a full self-verifying
// re-open.
func TestCancellationMatrix(t *testing.T) {
	baseline := coreGoroutines()
	cell := 0
	for _, level := range []struct {
		granularity string
		cancelOn    EventKind
	}{
		{"env", EventEnvStarted},
		{"env-app", EventUnitFinished},
	} {
		for _, workers := range []int{1, 32} {
			cell++
			t.Run(fmt.Sprintf("granularity=%s/workers=%d", level.granularity, workers), func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "store")
				rs, err := OpenResultStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				rs.Logf = t.Logf
				spec := &StudySpec{Seed: uint64(990000 + cell), Workers: workers}
				r := &Runner{Store: rs}
				sess, err := r.Start(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				ch, _ := sess.Subscribe()
				started := make(chan struct{})
				collected := make(chan []Event, 1)
				go func() {
					var evs []Event
					signaled := false
					for ev := range ch {
						evs = append(evs, ev)
						if !signaled && ev.Kind == level.cancelOn {
							signaled = true
							close(started)
						}
					}
					if !signaled {
						close(started)
					}
					collected <- evs
				}()
				// Cancel once execution is demonstrably mid-study.
				<-started
				start := time.Now()
				sess.Cancel()
				res, err := sess.Wait()
				elapsed := time.Since(start)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Wait = (%v, %v), want context.Canceled", res, err)
				}
				if res != nil {
					t.Fatal("cancelled session returned a dataset")
				}
				// Promptness: the drain is bounded by a fraction of one
				// in-flight unit's runtime (the full study takes well under
				// a second per shard; the bound here is generous for CI).
				if elapsed > 5*time.Second {
					t.Fatalf("cancellation took %v, want prompt return", elapsed)
				}
				evs := <-collected // channel closed by finish
				if last := evs[len(evs)-1]; last.Kind != EventStudyFailed || !errors.Is(last.Err, context.Canceled) {
					t.Fatalf("stream must close with study-failed(context.Canceled), got %+v", last)
				}
				done, total := sess.Progress()
				if total == 0 {
					t.Fatal("session never recorded a partition plan")
				}
				// At workers=1 the cancel lands while one task is in flight
				// and later tasks of the plan are still queued, so the
				// skipped tail is deterministic; at 32 workers every task
				// may already have been dispatched before the cancel and
				// only the asserts above apply.
				if workers == 1 && done >= total {
					t.Fatalf("progress %d/%d: cancellation at workers=1 should leave the plan unfinished", done, total)
				}
				assertNoCoreGoroutineLeak(t, baseline)
				if n := verifyStoreReopens(t, dir); level.cancelOn == EventUnitFinished && n == 0 {
					t.Fatal("a unit finished before the cancel, but the re-opened store holds no artifact")
				}

				// The same store must then serve a full run cleanly.
				res, err = (&Runner{Store: rs}).Run(context.Background(), spec)
				if err != nil || res == nil {
					t.Fatalf("post-cancellation run against the same store = (%v, %v)", res, err)
				}
			})
		}
	}
}

// TestCancelBeforeStartReturnsImmediately: a context already cancelled
// at Start never begins executing, and neither does a study handed one.
func TestCancelBeforeStartReturnsImmediately(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Runner{}).Start(ctx, DefaultSpec(990100)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Start with dead ctx = %v, want context.Canceled", err)
	}
	st, _ := newTestStudy(t, &StudySpec{Seed: 990101, Envs: []string{"google-gke-cpu"}, Scales: []int{2}, Iterations: 1}, nil)
	if _, err := st.runSession(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("runSession with dead ctx = %v, want context.Canceled", err)
	}
}

// TestManyConcurrentSubscribersRace exercises the subscription plumbing
// under -race: many subscribers attach, drain, and detach concurrently
// while one session runs to completion; every full-lifetime subscriber
// must observe an ordered stream (study-started first, study-finished
// last) with zero drops.
func TestManyConcurrentSubscribersRace(t *testing.T) {
	t.Parallel()
	spec := &StudySpec{Seed: 990200, Workers: 8}
	r := &Runner{}
	sess, err := r.Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	const drainers, churners = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, drainers+churners)
	for i := 0; i < drainers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch, _ := sess.Subscribe()
			var first, last EventKind
			n := 0
			for ev := range ch {
				if n == 0 {
					first = ev.Kind
				}
				last = ev.Kind
				n++
			}
			if n == 0 {
				errs <- fmt.Errorf("subscriber saw no events")
				return
			}
			// Subscribers may attach after study-started; only the ones
			// that saw the opening event assert on it.
			if first == EventStudyStarted && last != EventStudyFinished {
				errs <- fmt.Errorf("subscriber stream ended with %s, want %s", last, EventStudyFinished)
			}
		}()
	}
	for i := 0; i < churners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				ch, unsub := sess.Subscribe()
				select {
				case <-ch:
				default:
				}
				unsub()
				select {
				case <-sess.Done():
					return
				default:
				}
			}
		}()
	}
	res, err := sess.Wait()
	if err != nil || res == nil {
		t.Fatalf("Wait = (%v, %v)", res, err)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if sess.Dropped() != 0 {
		t.Logf("dropped %d events under churn (drops are allowed, never blocking)", sess.Dropped())
	}
}
