package rpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudhpc/internal/core"
	"cloudhpc/internal/store"
)

// flushRecorder is an http.ResponseWriter that records the response
// bytes and, at every Flush, how many of them had been written: the
// points at which a streamed response reaches the client.
type flushRecorder struct {
	header  http.Header
	mu      sync.Mutex
	buf     bytes.Buffer
	flushes []int
}

func (w *flushRecorder) Header() http.Header { return w.header }
func (w *flushRecorder) WriteHeader(int)     {}

func (w *flushRecorder) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *flushRecorder) Flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flushes = append(w.flushes, w.buf.Len())
}

// postRecorded serves one POST /rpc with body through h and returns the
// recorded response; it returns once the response is complete.
func postRecorded(h http.Handler, body string) *flushRecorder {
	rec := &flushRecorder{header: http.Header{}}
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rpc", strings.NewReader(body+"\n")))
	return rec
}

// goldenReplies returns the n lines the golden transcript name shows
// conn receiving right after it sent request.
func goldenReplies(t *testing.T, name, conn, request string, n int) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		if line != conn+" >> "+request {
			continue
		}
		var out []string
		for _, l := range lines[i+1:] {
			if len(out) == n || !strings.HasPrefix(l, conn+" << ") {
				break
			}
			out = append(out, strings.TrimPrefix(l, conn+" << "))
		}
		if len(out) != n {
			t.Fatalf("%s: %d lines follow %q, want %d", name, len(out), request, n)
		}
		return out
	}
	t.Fatalf("%s: no request %q", name, request)
	return nil
}

// TestSubscribeFinishedSessionFlushesOnce pins the burst write on the
// HTTP transport: subscribing to a finished session queues its whole
// stream at once, so the response is the subscribe reply, flushed on its
// own, then every event line in one more flush. The lines are the ones
// the happy-path transcript records for the same spec, byte for byte.
func TestSubscribeFinishedSessionFlushesOnce(t *testing.T) {
	srv := transcriptServer()
	defer srv.Shutdown()
	h := srv.Handler()
	postRecorded(h, `{"jsonrpc":"2.0","id":2,"method":"study.submit","params":{"spec":"seed 880001\nenvs google-gke-cpu\nscales 2\niterations 1\nworkers 1\n"}}`)
	ss, e := srv.lookup("S1")
	if e != nil {
		t.Fatal(e)
	}
	// Wait for the whole stream, not just Wait: a session reports done
	// before it emits its closing event, and a subscriber's channel
	// closes only after that event.
	for range ss.sess.SubscribeFrom(0).Events {
	}

	const subscribe = `{"jsonrpc":"2.0","id":3,"method":"study.subscribe","params":{"session":"S1"}}`
	rec := postRecorded(h, subscribe)
	got := strings.SplitAfter(rec.buf.String(), "\n")
	if last := got[len(got)-1]; last != "" {
		t.Fatalf("response ends in an unterminated line %q", last)
	}
	got = got[:len(got)-1]
	want := goldenReplies(t, "happy.txt", "C1", subscribe, 39)
	if len(got) != len(want) {
		t.Fatalf("response has %d lines, want %d (the reply and 38 events)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i]+"\n" {
			t.Fatalf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
	if wantFlushes := []int{len(got[0]), rec.buf.Len()}; fmt.Sprint(rec.flushes) != fmt.Sprint(wantFlushes) {
		t.Fatalf("flushed at byte offsets %v, want %v: the reply alone, then the whole replay at once", rec.flushes, wantFlushes)
	}
}

// gatedStore blocks the first Put until release is closed: a store
// write that stalls the study mid-stream.
type gatedStore struct {
	store.BlobStore
	once    sync.Once
	blocked chan struct{} // closed when the first Put starts waiting
	release chan struct{}
}

func (g *gatedStore) Put(data []byte) (string, error) {
	g.once.Do(func() {
		close(g.blocked)
		<-g.release
	})
	return g.BlobStore.Put(data)
}

// TestEventsReachClientWhileStudyBlocks pins that burst flushing never
// holds an event back for a later one: the study's first unit Put
// blocks, and every event emitted before it must reach an HTTP client
// while it is still blocked. A forwarder that flushed only at the end of
// the stream would leave them buffered on the server.
func TestEventsReachClientWhileStudyBlocks(t *testing.T) {
	gate := &gatedStore{BlobStore: store.NewMemory(), blocked: make(chan struct{}), release: make(chan struct{})}
	rs := core.NewResultStore(gate)
	rs.Logf = nil
	srv := &Server{
		Runner: &core.Runner{Store: rs},
		Drain:  DrainCancel,
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown()
	// Deferred after Shutdown, so it runs first: a drain cannot finish
	// while the study waits on the gate.
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 2*scriptTimeout)
	defer cancel()
	c := &Client{URL: ts.URL}

	sub, err := c.Submit(ctx, "seed 880004\nenvs google-gke-cpu\nscales 2\niterations 1\nworkers 1\n")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.blocked:
	case <-time.After(scriptTimeout):
		t.Fatalf("the study made no store Put within %s", scriptTimeout)
	}
	ss, e := srv.lookup(sub.Session)
	if e != nil {
		t.Fatal(e)
	}
	emitted := ss.sess.Seq()
	if emitted == 0 {
		t.Fatal("no event was emitted before the first unit Put")
	}

	// Room for every event of the stream, so the callback never blocks
	// the client while the test is not reading.
	seqs := make(chan uint64, core.ReplayEvents)
	streamed := make(chan error, 1)
	var kinds []string
	go func() {
		_, err := c.Subscribe(ctx, sub.Session, 0, func(_ []byte, ev StudyEvent) error {
			kinds = append(kinds, ev.Kind)
			seqs <- ev.Seq
			return nil
		})
		close(seqs)
		streamed <- err
	}()
	wait := time.After(scriptTimeout)
	for next := uint64(1); next <= emitted; next++ {
		select {
		case seq, ok := <-seqs:
			if !ok {
				t.Fatalf("the stream ended after %d of the %d events emitted before the block", next-1, emitted)
			}
			if seq != next {
				t.Fatalf("received seq %d, want %d", seq, next)
			}
		case <-wait:
			release()
			t.Fatalf("only %d of the %d events emitted before the blocked Put reached the client within %s", next-1, emitted, scriptTimeout)
		}
	}
	release()
	for seq := range seqs {
		emitted++
		if seq != emitted {
			t.Fatalf("received seq %d, want %d", seq, emitted)
		}
	}
	if err := <-streamed; err != nil {
		t.Fatal(err)
	}
	if last := kinds[len(kinds)-1]; last != "study-finished" {
		t.Fatalf("the stream ended with %q, want study-finished", last)
	}
}

// TestServerKeepsRunnerCacheTiers: a server starts sessions on its
// Runner as given, so its sessions keep the Runner's store. A second
// Server over the same Runner submits a spec the first server finished,
// and its stream is the store's: study-cached with tier store, then
// study-finished, with no unit event.
func TestServerKeepsRunnerCacheTiers(t *testing.T) {
	rs := core.NewResultStore(store.NewMemory())
	rs.Logf = nil
	r := &core.Runner{Store: rs}
	stream := func() []StudyEvent {
		t.Helper()
		srv := &Server{Runner: r}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Shutdown()
		ctx, cancel := context.WithTimeout(context.Background(), scriptTimeout)
		defer cancel()
		c := &Client{URL: ts.URL}
		sub, err := c.Submit(ctx, "seed 880006\nenvs google-gke-cpu\nscales 2\niterations 1\n")
		if err != nil {
			t.Fatal(err)
		}
		var evs []StudyEvent
		if _, err := c.Subscribe(ctx, sub.Session, 0, func(_ []byte, ev StudyEvent) error {
			evs = append(evs, ev)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(evs) == 0 || evs[len(evs)-1].Kind != "study-finished" {
			t.Fatalf("the stream %+v does not end with study-finished", evs)
		}
		return evs
	}
	stream()
	cached := 0
	for _, ev := range stream() {
		switch {
		case ev.Kind == "study-cached" && ev.Tier == "store":
			cached++
		case strings.HasPrefix(ev.Kind, "unit-"):
			t.Fatalf("the second server's stream carries %s %s/%s: the study was not served from the store", ev.Kind, ev.Env, ev.App)
		}
	}
	if cached != 1 {
		t.Fatalf("the second server's stream carries %d study-cached tier=store events, want 1", cached)
	}
}

// TestRequestLineOverCap pins the framing bound: a request line one
// byte over maxLineBytes gets the CodeParse framing error, with a null
// id since the line is never parsed, and ends the connection. Lines
// below the cap but far above the scanner's first 4 KiB read are the
// store.put chunks of TestStoreSyncChunksLargeBlobs.
func TestRequestLineOverCap(t *testing.T) {
	srv := transcriptServer()
	defer srv.Shutdown()
	var out bytes.Buffer
	huge := strings.Repeat("x", maxLineBytes+1) + "\n"
	if err := srv.ServeConn(context.Background(), strings.NewReader(huge), &out); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("ServeConn = %v, want bufio.ErrTooLong", err)
	}
	if want := fmt.Sprintf(`{"jsonrpc":"2.0","id":null,"error":{"code":%d,"message":"line exceeds %d bytes"}}`+"\n", CodeParse, maxLineBytes); out.String() != want {
		t.Fatalf("an oversized line got %q, want %q", out.String(), want)
	}
}
