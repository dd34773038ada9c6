package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
)

// subscriberBuffer is each subscriber channel's live capacity (replayed
// events are buffered on top of it). A full study emits well under a
// thousand events, so an actively-draining subscriber never drops; one
// that stalls loses events (counted by Dropped) rather than ever
// blocking execution.
const subscriberBuffer = 1024

// ReplayEvents bounds the events a session keeps for replay. Every
// session records its stream from the first event on and keeps the
// newest ReplayEvents of them, so a subscriber that attaches late, or
// detaches and reattaches, resumes from any recent cursor. A whole study
// emits well under a thousand events, so the window holds all of it.
const ReplayEvents = 4096

// Session is one observable study execution started by Runner.Start. It
// exposes the event stream (Subscribe, SubscribeFrom), plan-completion
// counters (Progress), cooperative cancellation (Cancel), and the
// terminal result (Wait). A session is safe for concurrent use by any
// number of subscribers and waiters.
//
// Every emitted event carries a monotonic 1-based sequence number
// (Event.Seq), and the session keeps the newest ReplayEvents events:
// SubscribeFrom(afterSeq) replays the kept events the cursor has not
// seen and reports how many are gone for good (Subscription.Missed) —
// the reattach-after-disconnect primitive the RPC service is built on.
//
// Observation is pure: events draw from no RNG stream and impose no
// ordering, so a session never changes the dataset it observes.
type Session struct {
	cancel context.CancelFunc
	done   chan struct{}
	res    *Results
	err    error

	total     atomic.Int64
	completed atomic.Int64
	dropped   atomic.Int64

	mu     sync.Mutex
	subs   map[chan Event]bool
	closed bool
	seq    uint64 // last assigned event sequence number
	// ring keeps the newest events: event k sits at (k-1) % len(ring),
	// so the kept window is seq-len(ring)+1 .. seq.
	ring []Event
}

// Subscription is one attachment to a session's event stream, created by
// SubscribeFrom.
type Subscription struct {
	// Events delivers the replayed and live events in sequence order and
	// is closed when the session completes or the subscription is closed.
	Events <-chan Event
	// Missed counts the events after the requested cursor that can never
	// be delivered: they left the bounded replay ring before this attach.
	// A missed count of zero guarantees the subscription observes every
	// event after its cursor exactly once, in order.
	Missed uint64
	cancel func()
}

// Close detaches the subscription and closes its channel. Safe to call
// more than once and after the session has completed.
func (sub *Subscription) Close() { sub.cancel() }

func newSession(cancel context.CancelFunc) *Session {
	return &Session{cancel: cancel, done: make(chan struct{}), subs: make(map[chan Event]bool)}
}

// Subscribe registers a new event stream on the session and returns the
// channel plus an unsubscribe func — shorthand for SubscribeFrom(0),
// discarding the replay accounting. The subscriber receives the kept
// events first (for a study of up to ReplayEvents events, that is the
// stream from the beginning), then the live stream. Delivery never
// blocks execution: a subscriber that falls more than subscriberBuffer
// events behind loses the overflow (counted by Dropped) instead of
// stalling the study. The channel is closed when the session completes
// or the subscriber unsubscribes; subscribing after completion yields
// the kept events and a closed channel.
func (s *Session) Subscribe() (<-chan Event, func()) {
	sub := s.SubscribeFrom(0)
	return sub.Events, sub.cancel
}

// SubscribeFrom registers an event stream resuming after the given
// sequence cursor: kept events with Seq > afterSeq are replayed in
// order, then the live stream follows. afterSeq 0 requests the stream
// from the beginning; a subscriber that was disconnected passes the last
// sequence number it saw and receives exactly the events it missed —
// unless the bounded ring has already evicted some of them, which the
// returned Subscription.Missed counts (it is 0 in the common case).
func (s *Session) SubscribeFrom(afterSeq uint64) *Subscription {
	s.mu.Lock()
	// The replay is seqs from+1 .. s.seq, read from the ring under s.mu
	// and copied into the channel, never staged.
	from := max(afterSeq, s.lost())
	missed := from - afterSeq
	// A finished session emits nothing more: its channel holds exactly
	// the replay. A live one also buffers subscriberBuffer live events.
	size := 0
	if from < s.seq {
		size = int(s.seq - from)
	}
	if !s.closed {
		size += subscriberBuffer
	}
	ch := make(chan Event, size)
	for k := from; k < s.seq; k++ {
		ch <- s.ring[k%uint64(len(s.ring))]
	}
	if s.closed {
		s.mu.Unlock()
		close(ch)
		return &Subscription{Events: ch, Missed: missed, cancel: func() {}}
	}
	// Registered in the same hold of s.mu as the replay, so no event
	// falls between the replay and the live stream.
	s.subs[ch] = true
	s.mu.Unlock()
	var once sync.Once
	return &Subscription{Events: ch, Missed: missed, cancel: func() {
		once.Do(func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.subs[ch] {
				delete(s.subs, ch)
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
// the context error.
func (s *Session) Cancel() {
	if s.cancel != nil {
		s.cancel()
	}
}

// Progress reports completed and planned work-unit counts from the
// partition plan. Total is 0 until the study starts (and stays 0 for a
// dataset served from the store — there is no plan to execute).
func (s *Session) Progress() (done, total int) {
	return int(s.completed.Load()), int(s.total.Load())
}

// Dropped reports how many events were discarded because a subscriber's
// buffer was full.
func (s *Session) Dropped() int64 { return s.dropped.Load() }

// Seq reports the sequence number of the last event the session
// assigned — the high-water mark a reattaching subscriber's cursor is
// measured against.
func (s *Session) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Lost reports how many events are no longer replayable: evicted from
// the bounded replay ring. A SubscribeFrom cursor older than the kept
// window sees them as Subscription.Missed.
func (s *Session) Lost() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lost()
}

// lost is Lost, holding s.mu.
func (s *Session) lost() uint64 { return s.seq - uint64(len(s.ring)) }

// setTotal records the partition plan size and sizes the replay ring
// from it: about three events per planned task (started, closing event,
// progress), capped at ReplayEvents. The size is only a capacity hint;
// incidents grow the ring past it. Nil-safe: an unobserved run passes a
// nil *Session through the executor and every observation hook degrades
// to a no-op.
func (s *Session) setTotal(n int) {
	if s == nil {
		return
	}
	s.total.Store(int64(n))
	s.mu.Lock()
	if c := min(3*n+2, ReplayEvents); cap(s.ring) < c {
		s.ring = slices.Grow(s.ring, c-len(s.ring))
	}
	s.mu.Unlock()
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
// caller. Nil-safe.
func (s *Session) emit(ev Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	ev.Seq = s.seq
	if ev.Kind == EventProgress {
		// Counted under s.mu too, so progress events reach subscribers
		// in Done order, however the workers finishing them interleave.
		ev.Done = int(s.completed.Add(1))
	}
	if len(s.ring) < ReplayEvents {
		s.ring = append(s.ring, ev)
	} else {
		s.ring[(ev.Seq-1)%ReplayEvents] = ev
	}
	for ch := range s.subs {
		select {
		case ch <- ev:
		default:
			s.dropped.Add(1)
		}
	}
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
// replays the kept tail of the stream.
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
		close(ch)
	}
	s.mu.Unlock()
}
