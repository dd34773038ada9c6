package core

import "context"

// Runner is the one way to run a study: a handle that turns StudySpecs
// into datasets through the store → compute tiers, with context
// cancellation and — via Start — an observable Session per execution.
// The zero value is ready to use: no persistent store.
//
// Run and Start are safe for concurrent use. Each call runs its own
// execution: a Runner keeps no dataset between calls, so two concurrent
// calls for one spec each load or compute it, and with a store the
// second save deduplicates to the same blobs. The study service joins
// repeat submissions by spec hash before they reach a Runner.
type Runner struct {
	// Store is the persistent result store consulted and fed by this
	// runner's executions — the only way a store reaches a run (the cmd/
	// tools pass their -store flag's handle here). Nil disables the
	// persistent tier: every run computes.
	Store *ResultStore
	// Fleet, when non-nil, is the work-distribution delegate attached to
	// every study this runner executes (effective only when a result
	// store is attached too — the store is the unit-artifact exchange).
	// The study store still runs first: only units of a study that
	// misses it are offered to the fleet, and any fleet refusal falls
	// back to local compute.
	Fleet FleetDelegate
}

// Run resolves and executes spec through the store → compute tiers and
// returns the dataset. On cancellation Run returns promptly with ctx's
// error; work already dispatched drains cleanly and the persistent store
// is left consistent (every artifact write is atomic).
func (r *Runner) Run(ctx context.Context, spec *StudySpec) (*Results, error) {
	sess, err := r.Start(ctx, spec)
	if err != nil {
		return nil, err
	}
	return sess.Wait()
}

// Start begins executing spec and returns its Session without waiting:
// subscribe for events, poll Progress, Cancel, and Wait for the dataset.
// Spec resolution errors surface here, before any execution.
func (r *Runner) Start(ctx context.Context, spec *StudySpec) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rspec, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	sess := newSession(cancel)
	go r.run(runCtx, cancel, sess, rspec)
	return sess, nil
}

// run is one session's execution: a study-store hit if there is one,
// otherwise a compute that is saved to the store when one is attached.
func (r *Runner) run(ctx context.Context, cancel context.CancelFunc, sess *Session, rspec *ResolvedSpec) {
	defer cancel()
	rs := r.Store
	if rs != nil {
		if res, ok := rs.LoadStudy(rspec); ok {
			sess.emit(Event{Kind: EventStudyCached, Tier: "store"})
			sess.finish(res, nil)
			return
		}
	}
	st := newStudy(rspec)
	st.Store, st.Fleet = rs, r.Fleet
	res, err := st.runSession(ctx, sess)
	if err == nil && rs != nil {
		if serr := rs.SaveStudy(rspec, res); serr != nil {
			rs.logf("core: result store: saving study/%s failed: %v", rspec.Hash(), serr)
		}
	}
	sess.finish(res, err)
}

// FlushCachedRuns does nothing: a Runner keeps no dataset between runs,
// so every run already goes store → compute.
//
// Deprecated: there is nothing to flush; a caller that wants a cold run
// runs without a store, or with a fresh one.
func FlushCachedRuns() {}
