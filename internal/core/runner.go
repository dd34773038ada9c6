package core

import (
	"context"
	"errors"
)

// Runner is the one way to run a study: a handle that turns StudySpecs
// into datasets through the memory → store → compute tiers, with context
// cancellation, single-flight deduplication, and — via Start — an
// observable Session per execution. The zero value is ready to use: no
// persistent store.
//
// Run and Start are safe for concurrent use. Concurrent calls for the
// same resolved spec share one execution: one caller leads (computes or
// loads), the rest follow and receive the shared Results — or, if the
// leader's context is cancelled, the shared context error. A
// cancellation error is never memoized: the next caller recomputes.
type Runner struct {
	// Store is the persistent result store consulted and fed by this
	// runner's executions — the only way a store reaches a run (the cmd/
	// tools pass their -store flag's handle here). Nil disables the
	// persistent tier: memory → compute.
	Store *ResultStore
	// Fleet, when non-nil, is the work-distribution delegate attached to
	// every study this runner executes (effective only when a result
	// store is attached too — the store is the unit-artifact exchange).
	// The study-store and memory tiers still run first: only units that
	// miss both are offered to the fleet, and any fleet refusal falls
	// back to local compute.
	Fleet FleetDelegate
}

// Run resolves and executes spec through the cache tiers and returns the
// dataset. The returned Results are shared: treat them as read-only. On
// cancellation Run returns promptly with ctx's error; work already
// dispatched drains cleanly and the persistent store is left consistent
// (every artifact write is atomic).
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
//
// Concurrent Start calls for the same resolved spec share one
// execution. The leading session observes it fully (env, unit, incident
// events); following sessions observe only its study-level events
// (started, then cached/failed) — their Wait returns the shared result
// either way. Cancelling the leading session cancels the shared
// execution; cancelling a follower detaches only that follower.
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

	key := rspec.Hash()
	cacheMu.Lock()
	e, ok := cache[key]
	if !ok {
		e = &cacheEntry{done: make(chan struct{})}
		cache[key] = e
	}
	cacheMu.Unlock()
	if ok {
		go sess.follow(runCtx, cancel, e)
		return sess, nil
	}
	go r.lead(runCtx, cancel, sess, rspec, key, e)
	return sess, nil
}

// lead runs the single-flight execution for a cache entry: store tier
// first, compute otherwise, then publishes the outcome to the entry (for
// followers) and the session. A context error is broadcast but never
// memoized — the entry is dropped so the next caller recomputes —
// whereas a study error is memoized like any other outcome.
func (r *Runner) lead(ctx context.Context, cancel context.CancelFunc, sess *Session, rspec *ResolvedSpec, key string, e *cacheEntry) {
	defer cancel()
	rs := r.Store
	var res *Results
	var err error
	if rs != nil {
		if warm, ok := rs.LoadStudy(rspec); ok {
			res = warm
			sess.emit(Event{Kind: EventStudyCached, Tier: "store"})
		}
	}
	if res == nil {
		st := newStudy(rspec)
		st.Store, st.Fleet = rs, r.Fleet
		res, err = st.runSession(ctx, sess)
		if err == nil && rs != nil {
			if serr := rs.SaveStudy(rspec, res); serr != nil {
				rs.logf("core: result store: saving study/%s failed: %v", key, serr)
			}
		}
	}
	if err != nil && errors.Is(err, ctx.Err()) {
		// Cancelled: share the error with current followers, but do not
		// poison the memoization for future callers.
		cacheMu.Lock()
		if cache[key] == e {
			delete(cache, key)
		}
		cacheMu.Unlock()
	}
	e.res, e.err = res, err
	close(e.done)
	sess.finish(res, err)
}

// follow attaches a session to an in-flight (or already-complete)
// single-flight entry: study-level events only, shared outcome.
// The follower's own context can detach it early; the shared execution
// keeps running for whoever leads it.
func (s *Session) follow(ctx context.Context, cancel context.CancelFunc, e *cacheEntry) {
	defer cancel()
	select {
	case <-e.done:
	default:
		// In flight: this session observes the study from the outside.
		s.emit(Event{Kind: EventStudyStarted})
		select {
		case <-e.done:
		case <-ctx.Done():
			s.finish(nil, ctx.Err())
			return
		}
	}
	if e.err == nil && e.res != nil {
		s.emit(Event{Kind: EventStudyCached, Tier: "memory"})
	}
	s.finish(e.res, e.err)
}
