package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
)

// subscriberBuffer is each subscriber channel's live capacity (replayed
// events are buffered on top of it). A full study emits well under a
// thousand events, so an actively-draining subscriber never drops; one
// that stalls loses events (counted by Dropped) rather than ever
// blocking execution.
const subscriberBuffer = 1024

// DefaultReplayEvents is the default bound on the events a session
// retains for replay (Options.ReplayEvents overrides it per run). Before
// the first subscriber attaches the ring captures the opening events —
// Start necessarily races the caller's Subscribe, so subscribing right
// after Start still observes the stream from the beginning — and once a
// subscriber has attached (or Retain was called) it keeps the most
// recent events so a disconnected subscriber can resume from its last
// sequence number. A session nobody ever subscribes to stops recording
// at the bound and degrades to a few atomic operations per event.
const DefaultReplayEvents = 256

// Session is one observable study execution started by Runner.Start. It
// exposes the event stream (Subscribe, SubscribeFrom), plan-completion
// counters (Progress), cooperative cancellation (Cancel), and the
// terminal result (Wait). A session is safe for concurrent use by any
// number of subscribers and waiters.
//
// Every emitted event carries a monotonic 1-based sequence number
// (Event.Seq), and the session retains a bounded ring of recent events:
// SubscribeFrom(afterSeq) replays the retained events the cursor has not
// seen and reports how many are gone for good (Subscription.Missed) —
// the reattach-after-disconnect primitive the RPC service is built on.
//
// Observation is pure and close to free when unused: events draw from no
// RNG stream and impose no ordering, and with zero subscribers the emit
// path is a few atomic operations once the replay ring fills, so a
// no-subscriber session runs within noise of an unobserved run.
type Session struct {
	cancel context.CancelFunc
	done   chan struct{}
	res    *Results
	err    error

	total     atomic.Int64
	completed atomic.Int64
	dropped   atomic.Int64
	seq       atomic.Uint64 // last assigned event sequence number
	lost      atomic.Uint64 // events no longer replayable

	mu     sync.Mutex
	subs   map[chan Event]bool
	closed bool
	ring   []Event // retained events, ascending by Seq
	bound  int     // ring capacity; 0 means DefaultReplayEvents
	// retain: a subscriber has attached (or Retain was called), so the
	// ring rolls — newest events evict oldest — instead of stopping at
	// the bound as it does while capturing opening events.
	retain bool
	// saturated: never-retained ring hit its bound, so emit degrades to
	// the lock-free counting path until a first subscriber arrives.
	saturated atomic.Bool
	nsubs     atomic.Int32
}

// Subscription is one attachment to a session's event stream, created by
// SubscribeFrom.
type Subscription struct {
	// Events delivers the replayed and live events in sequence order and
	// is closed when the session completes or the subscription is closed.
	Events <-chan Event
	// Missed counts the events after the requested cursor that can never
	// be delivered: they were evicted from the bounded replay ring (or
	// emitted while nothing retained them) before this attach. A missed
	// count of zero guarantees the subscription observes every event
	// after its cursor exactly once, in order.
	Missed uint64
	cancel func()
}

// Close detaches the subscription and closes its channel. Safe to call
// more than once and after the session has completed.
func (sub *Subscription) Close() { sub.cancel() }

func newSession(cancel context.CancelFunc) *Session {
	return &Session{cancel: cancel, done: make(chan struct{}), subs: make(map[chan Event]bool)}
}

// setReplayBound installs the session's replay-ring capacity
// (Options.ReplayEvents). Called before any event is emitted.
func (s *Session) setReplayBound(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.mu.Lock()
	s.bound = n
	if len(s.ring) > n { // defensive: never called after events today
		s.lost.Add(uint64(len(s.ring) - n))
		s.ring = append([]Event(nil), s.ring[len(s.ring)-n:]...)
	}
	s.mu.Unlock()
}

func (s *Session) replayBound() int {
	if s.bound > 0 {
		return s.bound
	}
	return DefaultReplayEvents
}

// Retain switches the replay ring to rolling retention — newest events
// evict oldest — even before (or without) a subscriber, so a later
// SubscribeFrom can resume from any recent cursor. Without it a session
// nobody subscribes to stops recording at the ring bound (keeping the
// opening events for a late first subscriber, at a few atomic operations
// per further event). The RPC session registry calls Retain on every
// session it starts: service clients attach, detach, and reattach at
// will, and the ring must hold the most recent window when they do.
func (s *Session) Retain() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.retain = true
	s.saturated.Store(false)
	s.mu.Unlock()
}

// Subscribe registers a new event stream on the session and returns the
// channel plus an unsubscribe func — shorthand for SubscribeFrom(0),
// discarding the replay accounting. The subscriber receives the retained
// events first (for a subscriber attaching right after Start, that is
// the stream from the beginning), then the live stream. Delivery never
// blocks execution: a subscriber that falls more than subscriberBuffer
// events behind loses the overflow (counted by Dropped) instead of
// stalling the study. The channel is closed when the session completes
// or the subscriber unsubscribes; subscribing after completion yields
// the retained events and a closed channel.
func (s *Session) Subscribe() (<-chan Event, func()) {
	sub := s.SubscribeFrom(0)
	return sub.Events, sub.cancel
}

// SubscribeFrom registers an event stream resuming after the given
// sequence cursor: retained events with Seq > afterSeq are replayed in
// order, then the live stream follows. afterSeq 0 requests the stream
// from the beginning; a subscriber that was disconnected passes the last
// sequence number it saw and receives exactly the events it missed —
// unless the bounded ring has already evicted some of them, which the
// returned Subscription.Missed counts (it is 0 in the common case).
func (s *Session) SubscribeFrom(afterSeq uint64) *Subscription {
	s.mu.Lock()
	s.retain = true
	s.saturated.Store(false)
	// The ring ascends by Seq, so the replay is its tail; it is read
	// under s.mu and copied into the channel, never staged.
	first := sort.Search(len(s.ring), func(i int) bool { return s.ring[i].Seq > afterSeq })
	replay := s.ring[first:]
	missed := uint64(0)
	if last := s.seq.Load(); afterSeq < last {
		missed = last - afterSeq - uint64(len(replay))
	}
	// A finished session emits nothing more: its channel holds exactly
	// the replay. A live one also buffers subscriberBuffer live events.
	size := len(replay)
	if !s.closed {
		size += subscriberBuffer
	}
	ch := make(chan Event, size)
	for _, ev := range replay {
		ch <- ev
	}
	if s.closed {
		s.mu.Unlock()
		close(ch)
		return &Subscription{Events: ch, Missed: missed, cancel: func() {}}
	}
	// Register before unlocking: emit's lock-free fast path reads the
	// subscriber count without s.mu, so a subscriber must be countable
	// the instant its replay capture ends or an event landing in that
	// window would vanish unobserved.
	s.subs[ch] = true
	s.nsubs.Add(1)
	s.mu.Unlock()
	var once sync.Once
	return &Subscription{Events: ch, Missed: missed, cancel: func() {
		once.Do(func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.subs[ch] {
				delete(s.subs, ch)
				s.nsubs.Add(-1)
				close(ch)
			}
		})
	}}
}

// Wait blocks until the session completes and returns its dataset. All
// waiters receive the same (shared, read-only) Results or the same
// error; after cancellation that error is the context's.
func (s *Session) Wait() (*Results, error) {
	<-s.done
	return s.res, s.err
}

// Done returns a channel closed when the session completes, for callers
// that select rather than block.
func (s *Session) Done() <-chan struct{} { return s.done }

// Cancel requests cooperative cancellation: the executor stops
// dispatching new work units, drains in-flight ones, and Wait returns
// the context error. Cancelling a session that leads a single-flight
// execution cancels it for every caller sharing it; cancelling a
// follower detaches only that follower.
func (s *Session) Cancel() {
	if s.cancel != nil {
		s.cancel()
	}
}

// Progress reports completed and planned work-unit counts from the
// partition plan. Total is 0 until the study starts (and stays 0 for a
// dataset served from a cache tier — there is no plan to execute).
func (s *Session) Progress() (done, total int) {
	return int(s.completed.Load()), int(s.total.Load())
}

// Dropped reports how many events were discarded because a subscriber's
// buffer was full.
func (s *Session) Dropped() int64 { return s.dropped.Load() }

// Seq reports the sequence number of the last event the session
// assigned — the high-water mark a reattaching subscriber's cursor is
// measured against.
func (s *Session) Seq() uint64 { return s.seq.Load() }

// Lost reports how many events are no longer replayable: evicted from
// the bounded replay ring, or emitted after the ring filled while
// nothing retained the stream. A SubscribeFrom cursor older than the
// retained window sees them as Subscription.Missed.
func (s *Session) Lost() uint64 { return s.lost.Load() }

// setTotal records the partition plan size. Nil-safe: an unobserved run
// passes a nil *Session through the executor and every observation hook
// degrades to a no-op.
func (s *Session) setTotal(n int) {
	if s == nil {
		return
	}
	s.total.Store(int64(n))
}

// taskDone counts one completed work unit and publishes the progress
// event; emit counts it (see there). Nil-safe.
func (s *Session) taskDone() {
	if s == nil {
		return
	}
	s.emit(Event{Kind: EventProgress, Total: int(s.total.Load())})
}

// emit assigns the event its sequence number, records it in the replay
// ring, and delivers it to every subscriber — without ever blocking the
// caller. Nil-safe, and a few atomic operations on the steady
// no-subscriber path once the ring has saturated.
func (s *Session) emit(ev Event) {
	if s == nil {
		return
	}
	if s.nsubs.Load() == 0 && s.saturated.Load() {
		// Nobody is listening and nothing retains the stream: the event
		// is numbered and counted, never delivered. (An emit racing the
		// first-ever subscribe on a saturated ring may land here and be
		// counted missed rather than delivered — the count stays honest.)
		ev.Seq = s.seq.Add(1)
		if ev.Kind == EventProgress {
			s.completed.Add(1)
		}
		s.lost.Add(1)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ev.Seq = s.seq.Add(1) // under s.mu: the ring stays seq-ascending
	if ev.Kind == EventProgress {
		// Counted under s.mu too, so progress events reach subscribers
		// in Done order, however the workers finishing them interleave.
		ev.Done = int(s.completed.Add(1))
	}
	s.record(ev)
	for ch := range s.subs {
		select {
		case ch <- ev:
		default:
			s.dropped.Add(1)
		}
	}
}

// record appends one event to the replay ring, holding s.mu. While
// capturing opening events (no subscriber yet, no Retain) a full ring
// stops recording and flips the lock-free emit path on; under retention
// it rolls, evicting the oldest event. Either way the overflow is
// counted in lost, never silent.
func (s *Session) record(ev Event) {
	bound := s.replayBound()
	if len(s.ring) < bound {
		s.ring = append(s.ring, ev)
		return
	}
	if !s.retain {
		s.saturated.Store(true)
		s.lost.Add(1)
		return
	}
	copy(s.ring, s.ring[1:])
	s.ring[bound-1] = ev
	s.lost.Add(1)
}

// counts stamps the current plan counters onto a study-closing event.
func (s *Session) counts(ev Event) Event {
	if s != nil {
		ev.Done, ev.Total = int(s.completed.Load()), int(s.total.Load())
	}
	return ev
}

// finish publishes the terminal state exactly once: the result and the
// closed done channel, then the closing event, then the close of every
// subscriber channel. Done closes first so that a subscriber holding the
// closing event always finds the session done — Wait answers and a
// progress query reports the terminal state, never "running". The
// replay ring is kept — a subscriber reattaching after completion still
// replays the retained tail of the stream.
func (s *Session) finish(res *Results, err error) {
	if s == nil {
		return
	}
	s.res, s.err = res, err
	close(s.done)
	if err != nil {
		s.emit(s.counts(Event{Kind: EventStudyFailed, Err: err}))
	} else {
		s.emit(s.counts(Event{Kind: EventStudyFinished}))
	}
	s.mu.Lock()
	s.closed = true
	for ch := range s.subs {
		delete(s.subs, ch)
		s.nsubs.Add(-1)
		close(ch)
	}
	s.mu.Unlock()
}
