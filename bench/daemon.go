package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/core"
	"cloudhpc/internal/fleet"
	"cloudhpc/internal/rpc"
)

// daemon is the service path: an in-process rpc.Server over loopback
// HTTP with a result store and a fleet coordinator that has no workers,
// so every unit takes the local-fallback path (cmd/serve -store DIR
// -fleet). Two callers share one HTTP transport capped at two
// connections.
type daemon struct {
	env   *setupEnv
	envs  []string
	order []int // rotation over envs
	http  *http.Client
	gen   *generation
}

// generation is one daemon lifetime: server, store, listener, and the
// streams its sessions produced, which reattaches replay.
type generation struct {
	srv    *rpc.Server
	fleet  *timedFleet
	hs     *http.Server
	served chan struct{}
	client *rpc.Client

	mu      sync.Mutex
	history []*stream
}

// stream is a completed fresh request: its spec and every event line.
type stream struct {
	spec, session string
	lines         [][]byte
}

func newDaemon(h *setupEnv) (instance, error) {
	envs, err := apps.StudyEnvironments()
	if err != nil {
		return nil, err
	}
	d := &daemon{env: h, http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}}
	for _, e := range apps.Deployable(envs) {
		d.envs = append(d.envs, e.Key)
	}
	d.order = rotation(h.cfg.seed, len(d.envs))
	if d.gen, err = d.start(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *daemon) start() (*generation, error) {
	g := &generation{served: make(chan struct{})}
	rs, _ := newStore(d.env.tr)
	co := fleet.New(fleet.Options{}, rs)
	g.fleet = &timedFleet{FleetDelegate: co, tr: d.env.tr}
	g.srv = &rpc.Server{Runner: &core.Runner{Store: rs, Fleet: g.fleet}, Fleet: co}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		co.Close()
		return nil, err
	}
	g.hs = &http.Server{Handler: g.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(g.served)
		g.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	g.client = &rpc.Client{URL: "http://" + ln.Addr().String(), HTTP: d.http}
	return g, nil
}

// stop drains the generation's sessions (all are finished: callers wait
// for their streams to end), closes the listener and waits for it, and
// drops the memory tier.
func (d *daemon) stop() {
	g := d.gen
	g.srv.Shutdown()
	g.hs.Close()
	<-g.served
	d.http.CloseIdleConnections()
	core.FlushCachedRuns()
}

func (d *daemon) reset() error {
	d.stop()
	var err error
	d.gen, err = d.start()
	return err
}

func (d *daemon) close() { d.stop() }

// do sends one request: three in four are a fresh study (a new seed and
// one to three environments, submitted and streamed from the start); the
// fourth reattaches to a random earlier study of this generation from
// half way through its stream.
func (d *daemon) do(c *call) error {
	g := d.gen
	var old *stream
	if c.i%4 == 3 {
		g.mu.Lock()
		if n := len(g.history); n > 0 {
			old = g.history[c.rng().Intn(n)]
		}
		g.mu.Unlock()
	}
	if old != nil {
		return d.reattach(c, g, old)
	}

	seed := c.seed<<20 + uint64(c.i)
	spec := studySpec(seed)
	spec.Envs = d.pick(c.i)
	if c.tr != nil {
		g.fleet.attribute(seed, scope{req: c.i, parent: c.root})
	}
	st := &stream{spec: spec.String()}
	var seqs []uint64
	var last rpc.StudyEvent
	res, err := d.exchange(c, g, st.spec, 0, func(sub rpc.SubmitResult) error {
		if !sub.Created {
			return fmt.Errorf("fresh spec joined existing session %s", sub.Session)
		}
		st.session = sub.Session
		return nil
	}, func(raw []byte, ev rpc.StudyEvent) {
		st.lines = append(st.lines, raw)
		seqs = append(seqs, ev.Seq)
		last = ev
	})
	if err != nil {
		return err
	}
	if res.Missed != 0 {
		return fmt.Errorf("session %s: %d events missed from seq 0", st.session, res.Missed)
	}
	for j, s := range seqs {
		if s != uint64(j+1) {
			return fmt.Errorf("session %s: event %d has seq %d, want a contiguous stream from 1", st.session, j, s)
		}
	}
	if last.Kind != string(core.EventStudyFinished) {
		return fmt.Errorf("session %s: stream ended with %q, want %q", st.session, last.Kind, core.EventStudyFinished)
	}
	g.mu.Lock()
	g.history = append(g.history, st)
	g.mu.Unlock()
	return nil
}

// pick is request i's environments when it is fresh: one, two or three
// in turn, taken consecutively from the rotation, so a run submits every
// environment and every count equally often.
func (d *daemon) pick(i int) []string {
	k := 3*(i/4) + i%4 // fresh requests before i
	start := 6*(k/3) + []int{0, 1, 3}[k%3]
	envs := make([]string, 1+k%3)
	for j := range envs {
		envs[j] = d.envs[d.order[(start+j)%len(d.order)]]
	}
	return envs
}

// reattach re-submits an earlier spec, which must join its session, and
// subscribes from half its last sequence number: the replay must be the
// recorded lines, byte for byte, with nothing missed.
func (d *daemon) reattach(c *call, g *generation, old *stream) error {
	after := len(old.lines) / 2
	var got [][]byte
	res, err := d.exchange(c, g, old.spec, uint64(after), func(sub rpc.SubmitResult) error {
		if sub.Created || sub.Session != old.session {
			return fmt.Errorf("re-submit created=%v session %s, want a join of %s", sub.Created, sub.Session, old.session)
		}
		return nil
	}, func(raw []byte, _ rpc.StudyEvent) { got = append(got, raw) })
	if err != nil {
		return err
	}
	c.counts.joined = true
	if res.Missed != 0 {
		return fmt.Errorf("reattach to %s after %d missed %d events", old.session, after, res.Missed)
	}
	want := old.lines[after:]
	if len(got) != len(want) {
		return fmt.Errorf("reattach to %s after %d replayed %d lines, want %d", old.session, after, len(got), len(want))
	}
	for j := range want {
		if !bytes.Equal(got[j], want[j]) {
			return fmt.Errorf("reattach to %s: replayed line %d differs from the recorded stream", old.session, after+j)
		}
	}
	return nil
}

// exchange is the timed part of a daemon request: submit the spec,
// check the reply, and subscribe after the cursor until the stream ends.
func (d *daemon) exchange(c *call, g *generation, spec string, after uint64,
	check func(rpc.SubmitResult) error, line func(raw []byte, ev rpc.StudyEvent)) (rpc.SubscribeResult, error) {
	var res rpc.SubscribeResult
	var evs []stamped
	err := c.timed(func() error {
		ctx := context.Background()
		t0 := time.Now()
		sub, err := g.client.Submit(ctx, spec)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if err := check(sub); err != nil {
			return err
		}
		res, err = g.client.Subscribe(ctx, sub.Session, after, func(raw []byte, ev rpc.StudyEvent) error {
			at := time.Now()
			evs = append(evs, stamped{ev.Kind, ev.Env, ev.App, at})
			c.counts.bytes += len(raw) + 1
			line(raw, ev)
			return nil
		})
		t2 := time.Now()
		if c.tr != nil {
			streamID := c.tr.id()
			c.tr.add(c.tr.id(), c.root, c.i, "rpc", "submit", t0, t1)
			c.tr.add(streamID, c.root, c.i, "rpc", "stream", t1, t2)
			eventSpans(c.tr, c.i, streamID, evs)
		}
		if err == nil && len(evs) == 0 {
			err = errors.New("stream ended without an event")
		}
		return err
	})
	c.counts.observe(c.start, evs)
	c.counts.lines = len(evs)
	c.counts.missed = res.Missed
	return res, err
}
