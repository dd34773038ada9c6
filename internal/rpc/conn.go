package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"cloudhpc/internal/core"
)

// errConnClosed poisons writes after the connection's peer is gone, so
// forwarders racing the teardown fail fast instead of writing into a
// dead pipe.
var errConnClosed = errors.New("rpc: connection closed")

// conn is one client connection's protocol state: the line writer every
// reply and notification serialises through, the initialize gate, and
// the connection's active subscriptions with their forwarder goroutines.
type conn struct {
	srv *Server
	// initialized gates the study methods. Stdio connections start false
	// (the handshake is mandatory); HTTP connections start true — each
	// POST is a fresh conn, and re-negotiating per request would make the
	// streamable transport unusable.
	initialized bool
	// streamTail keeps subscriptions alive after the input side ends: the
	// HTTP transport sends its requests as the POST body and then reads
	// the streamed response until its sessions finish. Stdio is full
	// duplex — input EOF there means the client is gone.
	streamTail bool
	// ctx is the connection's lifetime context (the HTTP request's, or
	// serve's argument): long-polling handlers (fleet.claim) block on it
	// so a vanished peer releases them.
	ctx context.Context

	writeMu sync.Mutex
	bw      *bufio.Writer
	dst     io.Writer
	closed  atomic.Bool

	mu   sync.Mutex
	subs map[string]*core.Subscription
	wg   sync.WaitGroup

	// Store-sync staging (guarded by mu): the one in-flight chunked
	// upload, dropped when a ref batch lands or the connection ends.
	upDigest string
	upBuf    []byte
}

func (s *Server) newConn(w io.Writer, initialized bool) *conn {
	return &conn{
		srv:         s,
		initialized: initialized,
		bw:          bufio.NewWriter(w),
		dst:         w,
		subs:        make(map[string]*core.Subscription),
	}
}

// writeLine marshals one message and writes it as one line. Every
// writer on the connection — the request loop and each forwarder —
// serialises through writeMu, so lines never interleave. flush pushes
// the line, and any lines buffered before it, to the peer: replies
// always flush, and forward flushes once per burst of events.
func (c *conn) writeLine(v any, flush bool) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed.Load() {
		return errConnClosed
	}
	if _, err := c.bw.Write(data); err != nil {
		c.closed.Store(true)
		return err
	}
	if err := c.bw.WriteByte('\n'); err != nil {
		c.closed.Store(true)
		return err
	}
	if !flush {
		return nil
	}
	if err := c.bw.Flush(); err != nil {
		c.closed.Store(true)
		return err
	}
	// A streamed HTTP response reaches the client only when the
	// transport flushes too: push its own flush when it has one
	// (http.Flusher; bufio.Writer's error-returning Flush doesn't match).
	if f, ok := c.dst.(interface{ Flush() }); ok {
		f.Flush()
	}
	return nil
}

func (c *conn) reply(id json.RawMessage, result any, rpcErr *Error) {
	if id == nil {
		// Notification: executed, never answered.
		return
	}
	if rpcErr != nil {
		c.writeLine(response{JSONRPC: "2.0", ID: id, Error: rpcErr}, true)
		return
	}
	c.writeLine(response{JSONRPC: "2.0", ID: id, Result: result}, true)
}

// ServeConn speaks the line protocol over one reader/writer pair until
// the input ends or a shutdown request completes — the stdio transport
// (and, via Handler, the body/response halves of a streamable HTTP
// request). The first request on a stdio connection must be initialize.
func (s *Server) ServeConn(ctx context.Context, r io.Reader, w io.Writer) error {
	return s.newConn(w, false).serve(ctx, r)
}

func (c *conn) serve(ctx context.Context, r io.Reader) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c.ctx = ctx
	// A cancelled context (client disconnect on HTTP, daemon teardown on
	// stdio) tears the connection's streams down even when no read or
	// write is in flight to notice.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			c.teardown()
		case <-watchDone:
		}
	}()

	sc := newLineScanner(r)
	closing := false
	for !closing && sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		closing = c.handleLine(line)
	}
	err := sc.Err()
	if errors.Is(err, bufio.ErrTooLong) {
		// The framing bound is a protocol error, not a transport failure:
		// report it on the wire (the line cannot be parsed, so no id).
		c.writeLine(response{JSONRPC: "2.0", Error: errf(CodeParse, "line exceeds %d bytes", maxLineBytes)}, true)
	}
	if !closing && !c.streamTail {
		c.teardown()
	}
	// Let active forwarders finish: on stdio after a shutdown they have
	// already drained; on streamable HTTP this is what holds the response
	// open until the subscribed sessions end.
	c.wg.Wait()
	// The conversation is over: an upload still staged can never finish.
	c.resetUpload()
	if closing {
		return nil
	}
	return err
}

// teardown poisons the writer and detaches every subscription: the peer
// is gone, so forwarders must stop rather than block on a dead pipe.
func (c *conn) teardown() {
	c.closed.Store(true)
	c.mu.Lock()
	subs := make([]*core.Subscription, 0, len(c.subs))
	for _, sub := range c.subs {
		subs = append(subs, sub)
	}
	c.mu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
	c.resetUpload()
}

// handleLine decodes and dispatches one request line. It reports whether
// the connection should close (a completed shutdown).
func (c *conn) handleLine(line []byte) (closing bool) {
	var req request
	if err := json.Unmarshal(line, &req); err != nil {
		c.writeLine(response{JSONRPC: "2.0", Error: errf(CodeParse, "parse error: %v", err)}, true)
		return false
	}
	if req.JSONRPC != "2.0" || req.Method == "" {
		c.reply(req.ID, nil, errf(CodeInvalidRequest, "not a JSON-RPC 2.0 request"))
		return false
	}

	if req.Method == "shutdown" {
		// Drain before answering: the shutdown reply is the
		// drain-complete acknowledgement, and waiting for this
		// connection's forwarders first guarantees every subscribed
		// terminal event is on the wire before it. The reply carries the
		// post-drain health snapshot — the daemon's closing tallies.
		c.srv.Shutdown()
		c.wg.Wait()
		h := c.srv.Health()
		c.reply(req.ID, ShutdownResult{OK: true, Health: &h}, nil)
		return true
	}

	var result any
	var rpcErr *Error
	var after func()
	switch req.Method {
	case "initialize":
		result, rpcErr = c.initialize(req.Params)
	case "study.submit", "study.subscribe", "study.unsubscribe", "study.progress", "study.cancel",
		"store.inventory", "store.fetch", "store.put", "store.refs",
		"fleet.register", "fleet.claim", "fleet.heartbeat", "fleet.complete", "fleet.nack":
		if !c.initialized {
			rpcErr = errf(CodeNotInitialized, "initialize required before %q", req.Method)
			break
		}
		switch req.Method {
		case "study.submit":
			result, rpcErr = c.submit(req.Params)
		case "study.subscribe":
			result, rpcErr, after = c.subscribe(req.Params)
		case "study.unsubscribe":
			result, rpcErr = c.unsubscribe(req.Params)
		case "study.progress":
			result, rpcErr = c.progress(req.Params)
		case "study.cancel":
			result, rpcErr, after = c.cancelStudy(req.Params)
		case "store.inventory":
			result, rpcErr = c.storeInventory()
		case "store.fetch":
			result, rpcErr = c.storeFetch(req.Params)
		case "store.put":
			result, rpcErr = c.storePut(req.Params)
		case "store.refs":
			result, rpcErr = c.storeRefs(req.Params)
		case "fleet.register":
			result, rpcErr = c.fleetRegister(req.Params)
		case "fleet.claim":
			result, rpcErr = c.fleetClaim(req.Params)
		case "fleet.heartbeat":
			result, rpcErr = c.fleetHeartbeat(req.Params)
		case "fleet.complete":
			result, rpcErr = c.fleetComplete(req.Params)
		case "fleet.nack":
			result, rpcErr = c.fleetNack(req.Params)
		}
	default:
		rpcErr = errf(CodeMethodNotFound, "unknown method %q", req.Method)
	}
	c.reply(req.ID, result, rpcErr)
	// Post-reply actions keep the wire order deterministic: the
	// subscribe forwarder must not emit an event notification before the
	// subscribe response, and a cancel must be acknowledged before the
	// cancellation's own failure events can appear.
	if after != nil {
		after()
	}
	return false
}

func unmarshalParams(raw json.RawMessage, v any) *Error {
	if len(raw) == 0 {
		return errf(CodeInvalidParams, "missing params")
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return errf(CodeInvalidParams, "params: %v", err)
	}
	return nil
}

func (c *conn) initialize(raw json.RawMessage) (any, *Error) {
	var p InitializeParams
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, errf(CodeInvalidParams, "params: %v", err)
		}
	}
	if p.ProtocolVersion != ProtocolVersion {
		e := errf(CodeInvalidParams, "unsupported protocol version %q", p.ProtocolVersion)
		e.Data = map[string]any{"supported": []string{ProtocolVersion}}
		return nil, e
	}
	c.initialized = true
	info := c.srv.Info
	if info.Name == "" {
		info.Name = "cloudhpc-serve"
	}
	return InitializeResult{
		ProtocolVersion: ProtocolVersion,
		Capabilities: Capabilities{
			Study: StudyCapabilities{
				Subscribe:    true,
				Replay:       core.ReplayEvents,
				Cancel:       true,
				SingleFlight: true,
			},
			Store: c.srv.hasStore(),
			Drain: c.srv.drainPolicy(),
		},
		ServerInfo: info,
	}, nil
}

func (c *conn) submit(raw json.RawMessage) (any, *Error) {
	var p SubmitParams
	if e := unmarshalParams(raw, &p); e != nil {
		return nil, e
	}
	if p.Spec == "" {
		return nil, errf(CodeInvalidParams, "empty spec")
	}
	res, e := c.srv.submit(p.Spec)
	if e != nil {
		return nil, e
	}
	return res, nil
}

func (c *conn) subscribe(raw json.RawMessage) (any, *Error, func()) {
	var p SubscribeParams
	if e := unmarshalParams(raw, &p); e != nil {
		return nil, e, nil
	}
	ss, e := c.srv.lookup(p.Session)
	if e != nil {
		return nil, e, nil
	}
	sub := ss.sess.SubscribeFrom(p.After)
	c.mu.Lock()
	if old, ok := c.subs[ss.id]; ok {
		// Re-subscribing replaces this connection's stream for the
		// session (the old forwarder unwinds on its closed channel).
		old.Close()
	}
	c.subs[ss.id] = sub
	c.mu.Unlock()
	c.wg.Add(1)
	// The forwarder starts only after the subscribe response is written,
	// so the response always precedes the first event notification.
	return SubscribeResult{Session: ss.id, After: p.After, Missed: sub.Missed}, nil, func() {
		go c.forward(ss, sub)
	}
}

// forward pumps one subscription's events onto the wire as study.event
// notifications until the stream closes (session end or unsubscribe) or
// the connection dies. It flushes when the subscription has nothing
// more queued, so a replay or a burst of events goes out in one write.
// No line waits for a later event: only the forwarder receives from the
// queue, so a non-empty queue means the next event is already there.
func (c *conn) forward(ss *studySession, sub *core.Subscription) {
	defer c.wg.Done()
	defer func() {
		c.mu.Lock()
		if c.subs[ss.id] == sub {
			delete(c.subs, ss.id)
		}
		c.mu.Unlock()
	}()
	for ev := range sub.Events {
		note := notification{JSONRPC: "2.0", Method: "study.event", Params: wireEvent(ss.id, ev)}
		if err := c.writeLine(note, len(sub.Events) == 0); err != nil {
			sub.Close()
			return
		}
	}
}

// wireEvent renders one core.Event for the wire.
func wireEvent(session string, ev core.Event) StudyEvent {
	we := StudyEvent{
		Session: session,
		Seq:     ev.Seq,
		Kind:    string(ev.Kind),
		Env:     ev.Env,
		App:     ev.App,
		Tier:    ev.Tier,
		Done:    ev.Done,
		Total:   ev.Total,
	}
	if ev.Err != nil {
		we.Err = ev.Err.Error()
	}
	if ev.Incident != nil {
		we.Incident = fmt.Sprintf("%s: %s", ev.Incident.Kind, ev.Incident.Detail)
	}
	return we
}

func (c *conn) unsubscribe(raw json.RawMessage) (any, *Error) {
	var p SessionParams
	if e := unmarshalParams(raw, &p); e != nil {
		return nil, e
	}
	ss, e := c.srv.lookup(p.Session)
	if e != nil {
		return nil, e
	}
	c.mu.Lock()
	sub, ok := c.subs[ss.id]
	if ok {
		delete(c.subs, ss.id)
	}
	c.mu.Unlock()
	if ok {
		sub.Close()
	}
	return UnsubscribeResult{Session: ss.id, Unsubscribed: ok}, nil
}

func (c *conn) progress(raw json.RawMessage) (any, *Error) {
	var p SessionParams
	if e := unmarshalParams(raw, &p); e != nil {
		return nil, e
	}
	ss, e := c.srv.lookup(p.Session)
	if e != nil {
		return nil, e
	}
	done, total := ss.sess.Progress()
	state, serr := ss.state()
	pr := ProgressResult{
		Session: ss.id,
		State:   state,
		Done:    done,
		Total:   total,
		Seq:     ss.sess.Seq(),
		Lost:    ss.sess.Lost(),
		Dropped: ss.sess.Dropped(),
	}
	if serr != nil {
		pr.Err = serr.Error()
	}
	return pr, nil
}

func (c *conn) cancelStudy(raw json.RawMessage) (any, *Error, func()) {
	var p SessionParams
	if e := unmarshalParams(raw, &p); e != nil {
		return nil, e, nil
	}
	ss, e := c.srv.lookup(p.Session)
	if e != nil {
		return nil, e, nil
	}
	state, _ := ss.state()
	// Cancel only after the reply is on the wire: every event the
	// cancellation provokes then follows the acknowledgement.
	return CancelResult{Session: ss.id, Cancelled: state == "running"}, nil, ss.sess.Cancel
}
