package core

import "sync"

// The cached-dataset layer is a three-tier pipeline driven by Runner:
//
//	memory  → the process-wide map below, keyed by canonical spec hash
//	store   → the persistent ResultStore (when one is configured):
//	          whole-study bundles under "study/<hash>", and — during
//	          compute — per-(env, app) unit artifacts under
//	          "unit/<sub-hash>" for incremental reuse
//	compute → one context-aware study execution (study.runSession)
//
// Every consumer that only needs a given spec's dataset (the root
// benchmark harness, cmd/figures, cmd/report, cmd/trace, the examples)
// runs it through a Runner and shares one execution per spec per
// process; with a store, one execution per spec per store *across*
// processes, and a spec that shares (env, app) units with a previously
// stored study recomputes only the units it doesn't share.
//
// Keying by spec hash rather than by seed matters now that specs vary:
// two different specs at the same seed (an env subset vs the full
// matrix, a chaotic run vs a clean one) are different datasets and must
// not collide. The hash covers exactly the dataset-determining inputs —
// seed, resolved environments and scales, resolved models, iterations,
// the disciplines the spec sets, resolved chaos plan text — and
// deliberately excludes the execution policy (Workers), under which the
// dataset is invariant, so callers that differ only in policy share one
// entry. The same
// invariance is what makes a store entry trustworthy: whatever policy
// computed it, a warm load is byte-identical.
//
// The map lock is held only for entry lookup; each entry is resolved by
// exactly one leading Runner session (single-flight), so concurrent
// calls for different specs execute in parallel while duplicate
// same-spec calls coalesce onto one load-or-compute and all receive the
// shared result — or, if the leader's context is cancelled, the shared
// context error (which is then dropped from the map, never memoized).
var (
	cacheMu sync.Mutex
	cache   = map[string]*cacheEntry{}
)

// cacheEntry is one single-flight memoization slot: the leader fills res
// and err, then closes done; followers wait on done (or their own
// context) and read the shared outcome.
type cacheEntry struct {
	done chan struct{}
	res  *Results
	err  error
}

// FlushCachedRuns drops every memoized dataset from the in-process
// memory tier (the persistent store, if any, is untouched). It exists
// for benchmarks and tests that measure or exercise the store tier,
// which the memory tier would otherwise shadow; production callers never
// need it. In-flight executions are unaffected: their entries are
// dropped from the map, but callers already attached still receive the
// shared outcome.
func FlushCachedRuns() {
	cacheMu.Lock()
	cache = map[string]*cacheEntry{}
	cacheMu.Unlock()
}
