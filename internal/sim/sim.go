package sim

import "time"

// Simulation bundles a virtual clock, an event queue, and a root seed from
// which all named random streams are derived. It is the spine every
// substrate (cloud provisioner, schedulers, network models) hangs off.
type Simulation struct {
	Clock Clock
	Queue EventQueue

	seed    uint64
	streams map[string]*Stream
}

// New creates a simulation with the given root seed.
func New(seed uint64) *Simulation {
	return &Simulation{seed: seed, streams: make(map[string]*Stream)}
}

// Seed returns the root seed the simulation was created with.
func (s *Simulation) Seed() uint64 { return s.seed }

// Stream returns the named random stream, creating it on first use.
// Repeated calls with the same name return the same stream instance, so
// consumers observe a continuous sequence of draws.
func (s *Simulation) Stream(name string) *Stream {
	st, ok := s.streams[name]
	if !ok {
		st = NewStream(s.seed, name)
		s.streams[name] = st
	}
	return st
}

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration { return s.Clock.Now() }

// After schedules fn to run d after the current virtual time.
func (s *Simulation) After(d time.Duration, fn func()) {
	s.Queue.Schedule(s.Clock.Now()+d, fn)
}

// Step runs the single next event, advancing the clock to it.
// It reports whether an event was run.
func (s *Simulation) Step() bool {
	e := s.Queue.Pop()
	if e == nil {
		return false
	}
	s.Clock.AdvanceTo(e.At)
	e.Fn()
	s.Queue.recycle(e)
	return true
}

// Run drains the event queue, advancing the clock as it goes, and returns
// the number of events executed.
func (s *Simulation) Run() int {
	n := 0
	for s.Step() {
		n++
	}
	return n
}

// RunUntil executes events with At <= deadline, leaving later events queued.
// The clock finishes at deadline (or at the last event time if the queue
// drains early — it never exceeds deadline).
func (s *Simulation) RunUntil(deadline time.Duration) int {
	n := 0
	for {
		at, ok := s.Queue.PeekTime()
		if !ok || at > deadline {
			break
		}
		s.Step()
		n++
	}
	if s.Clock.Now() < deadline {
		s.Clock.AdvanceTo(deadline)
	}
	return n
}
