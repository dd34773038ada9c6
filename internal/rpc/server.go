package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cloudhpc/internal/core"
	"cloudhpc/internal/fleet"
)

// DrainWait and DrainCancel are the shutdown drain policies: wait lets
// every running study finish before shutdown acknowledges; cancel
// cancels them all first and waits only for the cooperative drain.
// Either way sessions end through the normal executor path, so every
// store write stays atomic and the store is consistent on exit.
const (
	DrainWait   = "wait"
	DrainCancel = "cancel"
)

// Server is the study service: a long-lived registry of Runner sessions
// addressed by ID, shared by every connection (stdio or HTTP). Submitting
// a spec whose hash is already registered returns the existing session —
// the single-flight: a Runner runs every call it gets — so any number of
// clients submitting the same study observe one execution and one event
// stream. The zero value serves with a zero Runner and the
// wait drain policy; fields must be set before the first connection is
// served.
type Server struct {
	// Runner executes submitted studies as given; nil means a zero
	// core.Runner (no result store).
	Runner *core.Runner
	// Drain is the shutdown policy: DrainWait (default) or DrainCancel.
	Drain string
	// Logf, when non-nil, receives server diagnostics. Nil discards them.
	// Store warnings go to the Runner's ResultStore.Logf.
	Logf func(format string, args ...any)
	// Info is the serverInfo reported by initialize; a zero value is
	// filled with the module's name.
	Info Implementation
	// Fleet, when non-nil, serves the fleet.* worker family: remote
	// workers register, claim leased units, and push artifacts back. The
	// same coordinator should be attached to the Runner (Runner.Fleet) so
	// studies offload to it. Shutdown closes the coordinator before
	// draining sessions — blocked offloads fall back to local compute, so
	// the drain always completes.
	Fleet *fleet.Coordinator

	mu       sync.Mutex
	byHash   map[string]*studySession
	byID     map[string]*studySession
	nextID   int
	down     bool
	drained  chan struct{}
	shutOnce sync.Once
}

// studySession is one registered execution: the service-layer identity
// (ID, spec hash) around a core.Session.
type studySession struct {
	id   string
	hash string
	sess *core.Session
}

// state derives the session's lifecycle state and terminal error.
func (ss *studySession) state() (string, error) {
	select {
	case <-ss.sess.Done():
	default:
		return "running", nil
	}
	_, err := ss.sess.Wait()
	switch {
	case err == nil:
		return "done", nil
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "cancelled", err
	default:
		return "failed", err
	}
}

func (s *Server) drainPolicy() string {
	if s.Drain == DrainCancel {
		return DrainCancel
	}
	return DrainWait
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// ensureLocked lazily builds the registry.
func (s *Server) ensureLocked() {
	if s.byID != nil {
		return
	}
	s.byHash = make(map[string]*studySession)
	s.byID = make(map[string]*studySession)
	s.drained = make(chan struct{})
}

// submit registers (or rejoins) the execution of one spec text.
func (s *Server) submit(specText string) (*SubmitResult, *Error) {
	spec, err := core.ParseSpec(specText)
	if err != nil {
		return nil, errf(CodeInvalidParams, "spec: %v", err)
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, errf(CodeInvalidParams, "spec: %v", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureLocked()
	if s.down {
		return nil, errf(CodeShuttingDown, "server is shutting down")
	}
	if ss, ok := s.byHash[hash]; ok {
		return &SubmitResult{Session: ss.id, SpecHash: hash, Created: false}, nil
	}
	// Start under s.mu: it only resolves the spec and spawns the
	// execution goroutine, and holding the lock makes submit itself
	// single-flight — two clients racing the same hash cannot both
	// register a session. The session's context is the server's (not the
	// connection's): studies outlive the connections that submitted them.
	r := s.Runner
	if r == nil {
		r = &core.Runner{}
	}
	sess, err := r.Start(context.Background(), spec)
	if err != nil {
		return nil, errf(CodeInvalidParams, "spec: %v", err)
	}
	s.nextID++
	ss := &studySession{id: fmt.Sprintf("S%d", s.nextID), hash: hash, sess: sess}
	s.byHash[hash] = ss
	s.byID[ss.id] = ss
	s.logf("rpc: session %s started (spec %s)", ss.id, hash[:12])
	return &SubmitResult{Session: ss.id, SpecHash: hash, Created: true}, nil
}

// lookup resolves a session ID.
func (s *Server) lookup(id string) (*studySession, *Error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureLocked()
	ss, ok := s.byID[id]
	if !ok {
		return nil, errf(CodeUnknownSession, "unknown session %q", id)
	}
	return ss, nil
}

// Shutdown drains the server per its policy and returns when every
// registered session has completed. It is idempotent and safe to call
// concurrently (from the shutdown RPC and a signal handler at once);
// every caller blocks until the one drain finishes. New submissions are
// refused with CodeShuttingDown the moment it is called.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.ensureLocked()
	s.down = true
	sessions := make([]*studySession, 0, len(s.byID))
	for _, ss := range s.byID {
		sessions = append(sessions, ss)
	}
	drained := s.drained
	s.mu.Unlock()
	s.shutOnce.Do(func() {
		// Close the fleet first: every parked worker claim returns closed,
		// and every study blocked on an offload falls back to local compute
		// — a draining daemon never waits on remote workers.
		if s.Fleet != nil {
			s.Fleet.Close()
		}
		if s.drainPolicy() == DrainCancel {
			for _, ss := range sessions {
				ss.sess.Cancel()
			}
		}
		for _, ss := range sessions {
			<-ss.sess.Done()
		}
		s.logf("rpc: drained %d session(s) (%s policy)", len(sessions), s.drainPolicy())
		close(drained)
	})
	<-drained
}

// Drained returns a channel closed when a Shutdown drain has completed —
// the daemon main selects on it (against its signal handler) to know
// when an RPC-initiated shutdown should exit the process.
func (s *Server) Drained() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureLocked()
	return s.drained
}

// Health snapshots the server for GET /healthz and the shutdown reply:
// session tallies by state, whether a store is attached, and — with a
// coordinator attached — the fleet's lease-table counters.
func (s *Server) Health() Health {
	s.mu.Lock()
	s.ensureLocked()
	h := Health{Status: "ok", Store: s.hasStore(), Server: s.Info}
	if s.down {
		h.Status = "draining"
	}
	sessions := make([]*studySession, 0, len(s.byID))
	for _, ss := range s.byID {
		sessions = append(sessions, ss)
	}
	s.mu.Unlock()
	if h.Server.Name == "" {
		h.Server.Name = "cloudhpc-serve"
	}
	h.Sessions.Total = len(sessions)
	for _, ss := range sessions {
		// state() may call Wait on a finished session; never under s.mu.
		switch state, _ := ss.state(); state {
		case "running":
			h.Sessions.Running++
		case "done":
			h.Sessions.Done++
		case "cancelled":
			h.Sessions.Cancelled++
		case "failed":
			h.Sessions.Failed++
		}
	}
	if s.Fleet != nil {
		st := s.Fleet.Stats()
		h.Fleet = &st
	}
	return h
}
