// The shared progress renderer and run harness: every study-running
// main executes through RunSpec, which wires SIGINT → graceful session
// cancellation and (when stderr is a terminal, or -progress on) renders
// the session's event stream as a compact line-oriented feed. Rendering
// is pure observation on a Runner session — it can never change the
// dataset — and everything goes to stderr so piped stdout stays clean.
package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"cloudhpc/internal/core"
)

// RunSpec executes spec through a core.Runner session over the -store
// flag's result store: SIGINT/SIGTERM cancel the run cooperatively
// (in-flight work drains, the store is left consistent) and the shared
// progress feed renders on stderr per the -progress flag. On
// interruption the error satisfies IsInterrupt; mains report it via Fail.
func (f *StudyFlags) RunSpec(spec *core.StudySpec) (*core.Results, error) {
	rs, err := f.OpenStore()
	if err != nil {
		return nil, err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stopProfiles, err := f.StartProfiles()
	if err != nil {
		return nil, err
	}
	defer stopProfiles()
	r := &core.Runner{Store: rs}
	sess, err := r.Start(ctx, spec)
	if err != nil {
		return nil, err
	}
	var drain func()
	if f.progressOn() {
		drain = Progress(os.Stderr, sess)
	}
	res, err := sess.Wait()
	if drain != nil {
		drain()
	}
	return res, err
}

// Run is RunSpec over the flags' own resolved spec, returning the spec
// alongside the dataset (mains print its seed).
func (f *StudyFlags) Run() (*core.Results, *core.StudySpec, error) {
	spec, err := f.Spec()
	if err != nil {
		return nil, nil, err
	}
	res, err := f.RunSpec(spec)
	return res, spec, err
}

// IsInterrupt reports whether a run error came from cooperative
// cancellation (SIGINT/SIGTERM or an explicit Session.Cancel) rather
// than a study failure.
func IsInterrupt(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Fail is the shared main-error exit: interrupts report the clean
// cancellation and exit 130 (the conventional SIGINT status), anything
// else prints the error and exits 1.
func Fail(tool string, err error) {
	if IsInterrupt(err) {
		fmt.Fprintf(os.Stderr, "%s: interrupted — in-flight work drained, partial results discarded, store left consistent\n", tool)
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}

// Progress subscribes to sess and renders its event stream on w as a
// line-oriented feed (environment lifecycle, plan completion, incident
// and unit-reuse tallies). Plan completion is read from the stream — the
// latest study-started or progress event — not from sess.Progress, whose
// live counters run ahead of a renderer that trails the executor. The
// returned func blocks until the stream is fully drained — call it after
// Wait so the closing line lands before the main's own output.
func Progress(w io.Writer, sess *core.Session) func() {
	ch, _ := sess.Subscribe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		incidents, unitsCached, unitsRemote, leasesLost := 0, 0, 0, 0
		var plan core.Event // the latest study-started or progress event
		for ev := range ch {
			switch ev.Kind {
			case core.EventStudyStarted:
				plan = ev
				fmt.Fprintf(w, "study: started — %d work units planned\n", ev.Total)
			case core.EventStudyCached:
				fmt.Fprintf(w, "study: served from the %s cache, no execution needed\n", ev.Tier)
			case core.EventEnvStarted:
				fmt.Fprintf(w, "  env %-26s started\n", ev.Env)
			case core.EventProgress:
				plan = ev
			case core.EventEnvFinished:
				fmt.Fprintf(w, "  env %-26s done        [%3.0f%% — %d/%d units]\n", ev.Env, plan.Percent(), plan.Done, plan.Total)
			case core.EventEnvSkipped:
				fmt.Fprintf(w, "  env %-26s not deployed\n", ev.Env)
			case core.EventEnvFailed:
				fmt.Fprintf(w, "  env %-26s FAILED: %v\n", ev.Env, ev.Err)
			case core.EventUnitCached:
				unitsCached++
			case core.EventUnitRemote:
				unitsRemote++
			case core.EventUnitLeaseExpired:
				leasesLost++
			case core.EventIncident:
				incidents++
			case core.EventStudyFinished:
				if ev.Total == 0 {
					continue // cache-served: the study-cached line already told the story
				}
				fmt.Fprintf(w, "study: complete — %d/%d work units", ev.Done, ev.Total)
				if unitsCached > 0 {
					fmt.Fprintf(w, ", %d units served from the store", unitsCached)
				}
				if unitsRemote > 0 {
					fmt.Fprintf(w, ", %d units computed by fleet workers", unitsRemote)
				}
				if leasesLost > 0 {
					fmt.Fprintf(w, ", %d leases expired and re-queued", leasesLost)
				}
				if incidents > 0 {
					fmt.Fprintf(w, ", %d injected incidents", incidents)
				}
				fmt.Fprintln(w)
			case core.EventStudyFailed:
				if IsInterrupt(ev.Err) {
					fmt.Fprintf(w, "study: cancelled at %d/%d work units — draining cleanly\n", ev.Done, ev.Total)
				} else {
					fmt.Fprintf(w, "study: failed at %d/%d work units: %v\n", ev.Done, ev.Total, ev.Err)
				}
			}
		}
	}()
	return func() { <-done }
}
