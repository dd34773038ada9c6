package sim

import (
	"container/heap"
	"time"
)

// Action is the work an event does when the clock reaches it. A type
// that is its own pending event (a scheduled job, say) implements Fire
// on a pointer, so scheduling it allocates nothing; Func adapts a
// closure for the call sites that need one.
type Action interface{ Fire() }

// Func adapts an ordinary function to an Action.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Event is a unit of scheduled work in the simulation. Action fires when
// the clock reaches At. Events at the same virtual time fire in the order
// they were scheduled (FIFO), which keeps simulations deterministic. An
// event carries no label, so scheduling one builds no string.
type Event struct {
	At     time.Duration
	Action Action

	seq int // tie-breaker: insertion order
}

// eventHeap implements heap.Interface ordered by (At, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// EventQueue is a priority queue of events keyed by virtual time.
// The zero value is ready to use.
type EventQueue struct {
	h   eventHeap
	seq int

	// free recycles executed Event structs (Simulation.Step returns them
	// via recycle once their Action has fired); a steady-state simulation
	// then allocates one Event per level of queue depth, not one per
	// schedule.
	free []*Event
}

// Schedule enqueues a to fire at virtual time at.
func (q *EventQueue) Schedule(at time.Duration, a Action) {
	q.seq++
	var e *Event
	if n := len(q.free); n > 0 {
		e, q.free = q.free[n-1], q.free[:n-1]
	} else {
		e = new(Event)
	}
	*e = Event{At: at, Action: a, seq: q.seq}
	heap.Push(&q.h, e)
}

// recycle returns an executed event to the freelist. Only safe once no
// caller retains the pointer — Simulation.Step calls it after firing the
// Action; external Pop callers simply never feed the freelist.
func (q *EventQueue) recycle(e *Event) {
	*e = Event{}
	q.free = append(q.free, e)
}

// Len reports the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// PeekTime returns the virtual time of the next event. The boolean is false
// when the queue is empty.
func (q *EventQueue) PeekTime() (time.Duration, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].At, true
}

// Pop removes and returns the next event, or nil if the queue is empty.
func (q *EventQueue) Pop() *Event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*Event)
}
