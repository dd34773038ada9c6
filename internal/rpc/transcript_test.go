package rpc

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden transcripts from the live protocol")

// The protocol conformance suite: each scenario drives a scripted client
// conversation against a live Server over in-memory pipes and records
// the exact wire traffic — every request line, every response and
// notification line, and every connection lifecycle step — as a
// transcript compared against a golden file in testdata/. The studies
// run with one worker, so the event stream (and therefore the whole
// transcript) is deterministic; regenerate after an intentional
// protocol change with
//
//	go test ./internal/rpc -run TestTranscript -update
//
// Each scenario uses a distinct seed so the scenarios stay independent.
// A Runner keeps no dataset between runs, so a repeat run in one process
// (-count=N) recomputes and transcribes identically.

// transcript accumulates the scripted conversation, safe for the
// forwarder-driven interleavings of multi-connection scenarios.
type transcript struct {
	t  *testing.T
	mu sync.Mutex
	b  strings.Builder
}

func (tr *transcript) logf(format string, args ...any) {
	tr.mu.Lock()
	fmt.Fprintf(&tr.b, format+"\n", args...)
	tr.mu.Unlock()
}

func (tr *transcript) String() string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.b.String()
}

// scriptTimeout bounds every wait on the server. A script that diverges
// from the live protocol — expecting a line that never comes, or leaving
// lines unread — fails within it, printing the transcript so far, rather
// than hanging until the go test timeout.
const scriptTimeout = 10 * time.Second

// scriptConn is one scripted client connection served by ServeConn over
// an io.Pipe pair. The server's output is read ahead into lines as it is
// written, so the server never blocks on the synchronous pipe however
// far the script falls behind; recv consumes from there.
type scriptConn struct {
	t     *testing.T
	tr    *transcript
	name  string
	in    *io.PipeWriter
	outR  *io.PipeReader
	lines chan string
	done  chan error
}

func (tr *transcript) connect(srv *Server, name string) *scriptConn {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	c := &scriptConn{
		t: tr.t, tr: tr, name: name,
		in: inW, outR: outR,
		// Far more lines than any scripted conversation, diverging or
		// not, so the read-ahead never stalls the server.
		lines: make(chan string, 4096),
		done:  make(chan error, 1),
	}
	go func() {
		err := srv.ServeConn(context.Background(), inR, outW)
		outW.Close()
		c.done <- err
	}()
	go func() {
		defer close(c.lines)
		out := bufio.NewReader(outR)
		for {
			line, err := out.ReadString('\n')
			if err != nil {
				return
			}
			c.lines <- strings.TrimSuffix(line, "\n")
		}
	}()
	tr.logf("-- %s connected", name)
	return c
}

func (c *scriptConn) send(line string) {
	c.t.Helper()
	c.tr.logf("%s >> %s", c.name, line)
	stalled := time.AfterFunc(scriptTimeout, func() { c.in.Close() })
	_, err := io.WriteString(c.in, line+"\n")
	stalled.Stop()
	if err != nil {
		c.t.Fatalf("%s: send: %v (the server stopped reading within %s)\ntranscript so far:\n%s", c.name, err, scriptTimeout, c.tr.String())
	}
}

func (c *scriptConn) recv() string {
	c.t.Helper()
	select {
	case line, ok := <-c.lines:
		if !ok {
			c.t.Fatalf("%s: recv: the server closed the connection\ntranscript so far:\n%s", c.name, c.tr.String())
		}
		c.tr.logf("%s << %s", c.name, line)
		return line
	case <-time.After(scriptTimeout):
		c.t.Fatalf("%s: recv: no line within %s\ntranscript so far:\n%s", c.name, scriptTimeout, c.tr.String())
	}
	return ""
}

func (c *scriptConn) recvN(n int) []string {
	c.t.Helper()
	lines := make([]string, n)
	for i := range lines {
		lines[i] = c.recv()
	}
	return lines
}

// drop severs the connection abruptly — both pipe halves die at once,
// the disconnect the reattach machinery exists for.
func (c *scriptConn) drop() {
	c.t.Helper()
	c.outR.Close()
	c.in.Close()
	c.wait()
	c.tr.logf("-- %s dropped", c.name)
}

// finish ends the conversation cleanly and waits for the server side to
// unwind. Any line the server wrote that the script never read is a
// divergence from the expected conversation: it is transcribed and fails
// the test.
func (c *scriptConn) finish() {
	c.t.Helper()
	c.in.Close()
	if err := c.wait(); err != nil {
		c.t.Fatalf("%s: serve: %v", c.name, err)
	}
	unread := 0
	for line := range c.lines {
		c.tr.logf("%s << %s (unread)", c.name, line)
		unread++
	}
	c.outR.Close()
	c.tr.logf("-- %s closed", c.name)
	if unread > 0 {
		c.t.Fatalf("%s: the server wrote %d line(s) the script never read\ntranscript:\n%s", c.name, unread, c.tr.String())
	}
}

// wait returns ServeConn's result once the server side has unwound.
func (c *scriptConn) wait() error {
	c.t.Helper()
	select {
	case err := <-c.done:
		return err
	case <-time.After(scriptTimeout):
		c.t.Fatalf("%s: the server did not unwind within %s\ntranscript so far:\n%s", c.name, scriptTimeout, c.tr.String())
	}
	return nil
}

// eventSeq extracts the sequence number from a study.event notification
// line (0 for non-notification lines).
func eventSeq(t *testing.T, line string) uint64 {
	t.Helper()
	var note struct {
		Method string     `json:"method"`
		Params StudyEvent `json:"params"`
	}
	if err := json.Unmarshal([]byte(line), &note); err != nil {
		t.Fatalf("bad wire line %q: %v", line, err)
	}
	if note.Method != "study.event" {
		return 0
	}
	return note.Params.Seq
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden transcript (regenerate with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("transcript diverges from %s at line %d:\n got: %s\nwant: %s\n\nfull transcript:\n%s", path, i+1, g, w, got)
		}
	}
}

const initLine = `{"jsonrpc":"2.0","id":1,"method":"initialize","params":{"protocolVersion":"1","client":{"name":"conformance","version":"test"}}}`

// transcriptServer builds the server under test over a zero Runner, so
// every submit computes — see the package comment. The scripts' specs
// say "workers 1" for a deterministic event order.
func transcriptServer() *Server {
	return &Server{Info: Implementation{Name: "cloudhpc-serve", Version: "test"}}
}

// TestTranscriptHappyPath pins the full life of one study over one
// connection: handshake, submit, subscribe from the beginning, the
// complete event stream, a terminal progress poll, a cancel that arrives
// too late to matter, and a graceful shutdown.
func TestTranscriptHappyPath(t *testing.T) {
	tr := &transcript{t: t}
	srv := transcriptServer()
	c := tr.connect(srv, "C1")
	c.send(initLine)
	c.recv()
	c.send(`{"jsonrpc":"2.0","id":2,"method":"study.submit","params":{"spec":"seed 880001\nenvs google-gke-cpu\nscales 2\niterations 1\nworkers 1\n"}}`)
	c.recv()
	c.send(`{"jsonrpc":"2.0","id":3,"method":"study.subscribe","params":{"session":"S1"}}`)
	// Response, then study-started, started/finished/progress for each of
	// the 11 units, env-started, env-finished, progress, study-finished.
	lines := c.recvN(39)
	c.send(`{"jsonrpc":"2.0","id":4,"method":"study.progress","params":{"session":"S1"}}`)
	c.recv()
	c.send(`{"jsonrpc":"2.0","id":5,"method":"study.cancel","params":{"session":"S1"}}`)
	c.recv()
	c.send(`{"jsonrpc":"2.0","id":6,"method":"shutdown"}`)
	c.recv()
	c.finish()

	for i, line := range lines[1:] {
		if seq := eventSeq(t, line); seq != uint64(i+1) {
			t.Errorf("event %d has seq %d, want %d (sequence numbers are 1-based and contiguous)", i, seq, i+1)
		}
	}
	checkGolden(t, "happy.txt", tr.String())
}

// TestTranscriptCancelMidStudy pins cooperative cancellation while an
// environment is mid-flight, plus live unsubscribe/resubscribe-from-
// cursor: the big single-environment spec emits nothing between
// env-started (which follows its 11 units) and the cancellation's own
// events, so the stream around the cancel is deterministic. The cancel acknowledgement is written
// before the cancellation is triggered, so it always precedes the
// failure events it provokes.
func TestTranscriptCancelMidStudy(t *testing.T) {
	tr := &transcript{t: t}
	srv := transcriptServer()
	c := tr.connect(srv, "C1")
	c.send(initLine)
	c.recv()
	c.send(`{"jsonrpc":"2.0","id":2,"method":"study.submit","params":{"spec":"seed 880002\nenvs google-gke-cpu\nscales 2 4 8 16 32 64 128 256\niterations 1000\nworkers 1\n"}}`)
	c.recv()
	c.send(`{"jsonrpc":"2.0","id":3,"method":"study.subscribe","params":{"session":"S1"}}`)
	c.recvN(36) // response, study-started, 11 units × 3 events, env-started — then the stream goes quiet
	c.send(`{"jsonrpc":"2.0","id":4,"method":"study.unsubscribe","params":{"session":"S1"}}`)
	c.recv()
	c.send(`{"jsonrpc":"2.0","id":5,"method":"study.subscribe","params":{"session":"S1","after":35}}`)
	c.recv()
	c.send(`{"jsonrpc":"2.0","id":6,"method":"study.cancel","params":{"session":"S1"}}`)
	c.recvN(4) // ack, then env-failed, progress, study-failed
	c.send(`{"jsonrpc":"2.0","id":7,"method":"study.progress","params":{"session":"S1"}}`)
	c.recv()
	c.send(`{"jsonrpc":"2.0","id":8,"method":"shutdown"}`)
	c.recv()
	c.finish()
	checkGolden(t, "cancel.txt", tr.String())
}

// TestTranscriptReattach pins the acceptance scenario: a client reads a
// prefix of the stream and drops mid-study; a second client submits the
// same spec (joining the same session, created=false), subscribes after
// the first client's last sequence number, and receives exactly the rest
// of the stream with nothing missed.
func TestTranscriptReattach(t *testing.T) {
	tr := &transcript{t: t}
	srv := transcriptServer()
	const submitLine = `{"jsonrpc":"2.0","id":2,"method":"study.submit","params":{"spec":"seed 880003\nenvs aws-eks-cpu google-gke-cpu\nscales 2 4\niterations 2\nworkers 1\n"}}`

	c1 := tr.connect(srv, "C1")
	c1.send(initLine)
	c1.recv()
	c1.send(submitLine)
	c1.recv()
	c1.send(`{"jsonrpc":"2.0","id":3,"method":"study.subscribe","params":{"session":"S1"}}`)
	// Response plus the first four events (through the first unit's
	// progress), then the connection dies mid-stream.
	prefix := c1.recvN(5)
	c1.drop()

	c2 := tr.connect(srv, "C2")
	c2.send(initLine)
	c2.recv()
	c2.send(submitLine)
	c2.recv()
	c2.send(`{"jsonrpc":"2.0","id":3,"method":"study.subscribe","params":{"session":"S1","after":4}}`)
	tail := c2.recvN(71) // response plus events 5..74
	c2.send(`{"jsonrpc":"2.0","id":4,"method":"study.progress","params":{"session":"S1"}}`)
	c2.recv()
	c2.send(`{"jsonrpc":"2.0","id":5,"method":"shutdown"}`)
	c2.recv()
	c2.finish()

	// The cursor arithmetic, independent of the golden bytes: C1 saw
	// seqs 1..4, C2 resumed after 4 and saw 5..74 — one contiguous stream.
	for i, line := range append(append([]string(nil), prefix[1:]...), tail[1:]...) {
		if seq := eventSeq(t, line); seq != uint64(i+1) {
			t.Errorf("event %d has seq %d, want %d (reattach must continue the sequence exactly)", i, seq, i+1)
		}
	}
	checkGolden(t, "reattach.txt", tr.String())
}

// TestTranscriptMalformed pins the error surface: unparseable lines,
// non-2.0 requests, requests before initialize, a rejected protocol
// version, unknown methods, bad specs, bad params, and unknown sessions
// each map to their JSON-RPC error code.
func TestTranscriptMalformed(t *testing.T) {
	tr := &transcript{t: t}
	srv := transcriptServer()
	c := tr.connect(srv, "C1")
	c.send(`this is not json`)
	c.recv()
	c.send(`{"jsonrpc":"1.0","id":1,"method":"initialize"}`)
	c.recv()
	c.send(`{"jsonrpc":"2.0","id":2,"method":"study.submit","params":{"spec":"seed 1"}}`)
	c.recv()
	c.send(`{"jsonrpc":"2.0","id":3,"method":"initialize","params":{"protocolVersion":"99"}}`)
	c.recv()
	c.send(initLine)
	c.recv()
	c.send(`{"jsonrpc":"2.0","id":4,"method":"study.levitate"}`)
	c.recv()
	c.send(`{"jsonrpc":"2.0","id":5,"method":"study.submit","params":{"spec":"bogus directive\n"}}`)
	c.recv()
	c.send(`{"jsonrpc":"2.0","id":6,"method":"study.submit","params":{}}`)
	c.recv()
	c.send(`{"jsonrpc":"2.0","id":7,"method":"study.subscribe","params":{"session":"S404"}}`)
	c.recv()
	c.send(`{"jsonrpc":"2.0","id":8,"method":"study.cancel","params":"not an object"}`)
	c.recv()
	c.finish()
	checkGolden(t, "malformed.txt", tr.String())
}
