package rpc

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rpcGoroutines counts live goroutines running this module's code — the
// goleak-style probe from internal/core, widened to every cloudhpc
// package so connection servers and event forwarders count too. Test
// goroutines are excluded by their testing frames.
func rpcGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	count := 0
	for _, stack := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(stack, "cloudhpc/internal/") &&
			!strings.Contains(stack, "testing.tRunner") &&
			!strings.Contains(stack, "testing.(*T).Run") {
			count++
		}
	}
	return count
}

func assertNoRPCGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := rpcGoroutines(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d module goroutines, baseline %d\n%s", rpcGoroutines(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// testClient is a raw pipe connection for the concurrency tests — no
// transcript, just framed lines in and out.
type testClient struct {
	t    *testing.T
	in   *io.PipeWriter
	outR *io.PipeReader
	out  *bufio.Reader
	done chan error
}

func dial(t *testing.T, srv *Server) *testClient {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	tc := &testClient{t: t, in: inW, outR: outR, out: bufio.NewReader(outR), done: make(chan error, 1)}
	go func() {
		err := srv.ServeConn(context.Background(), inR, outW)
		outW.Close()
		tc.done <- err
	}()
	return tc
}

func (tc *testClient) close() {
	tc.outR.Close()
	tc.in.Close()
	<-tc.done
}

func (tc *testClient) send(line string) {
	tc.t.Helper()
	if _, err := io.WriteString(tc.in, line+"\n"); err != nil {
		tc.t.Errorf("send: %v", err)
	}
}

func (tc *testClient) readLine() (string, error) {
	line, err := tc.out.ReadString('\n')
	return strings.TrimSuffix(line, "\n"), err
}

// wireMsg is the union decode of one incoming line.
type wireMsg struct {
	Method string          `json:"method"`
	ID     json.RawMessage `json:"id"`
	Result json.RawMessage `json:"result"`
	Error  *Error          `json:"error"`
	Params StudyEvent      `json:"params"`
}

// readResponse reads lines — passing event notifications to onEvent —
// until the next response line arrives.
func (tc *testClient) readResponse(onEvent func(StudyEvent)) (wireMsg, error) {
	for {
		line, err := tc.readLine()
		if err != nil {
			return wireMsg{}, err
		}
		var msg wireMsg
		if err := json.Unmarshal([]byte(line), &msg); err != nil {
			return wireMsg{}, fmt.Errorf("bad line %q: %w", line, err)
		}
		if msg.Method == "study.event" {
			if onEvent != nil {
				onEvent(msg.Params)
			}
			continue
		}
		return msg, nil
	}
}

// eventKey is the comparable identity of one observed event.
func eventKey(ev StudyEvent) string {
	return fmt.Sprintf("%d|%s|%s|%s|%s|%d/%d", ev.Seq, ev.Kind, ev.Env, ev.App, ev.Tier, ev.Done, ev.Total)
}

func isTerminal(kind string) bool {
	return kind == "study-finished" || kind == "study-failed"
}

// TestConcurrentClientsSingleFlightRace is the protocol race test: N
// clients concurrently submit the same spec and subscribe from zero,
// while churn clients subscribe and unsubscribe in a loop, all under
// one server. It asserts the single-flight contract — one session is
// created, every submit names it — and the stream contract: every
// collector observes the identical, contiguous event sequence. After a
// shutdown RPC and connection teardown, no server goroutine survives.
// Run with -race; the schedule nondeterminism is the point (workers are
// left at all-CPUs, so event order across environments is arbitrary but
// must be one shared order).
func TestConcurrentClientsSingleFlightRace(t *testing.T) {
	baseline := rpcGoroutines()
	srv := &Server{Drain: DrainCancel}
	const spec = "seed 881001\\nenvs aws-eks-cpu google-gke-cpu\\nscales 2 4\\niterations 2\\n"
	submitLine := `{"jsonrpc":"2.0","id":2,"method":"study.submit","params":{"spec":"` + spec + `"}}`

	const collectors = 5
	var created atomic.Int32
	sessions := make([]string, collectors)
	streams := make([][]string, collectors)
	errs := make([]error, collectors)
	studyDone := make(chan struct{})

	var wg sync.WaitGroup
	var closeDone sync.Once
	for i := 0; i < collectors; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc := dial(t, srv)
			defer tc.close()
			run := func() error {
				tc.send(initLine)
				if msg, err := tc.readResponse(nil); err != nil || msg.Error != nil {
					return fmt.Errorf("initialize: %v / %v", err, msg.Error)
				}
				tc.send(submitLine)
				msg, err := tc.readResponse(nil)
				if err != nil || msg.Error != nil {
					return fmt.Errorf("submit: %v / %v", err, msg.Error)
				}
				var sub SubmitResult
				if err := json.Unmarshal(msg.Result, &sub); err != nil {
					return err
				}
				if sub.Created {
					created.Add(1)
				}
				sessions[i] = sub.Session
				tc.send(`{"jsonrpc":"2.0","id":3,"method":"study.subscribe","params":{"session":"` + sub.Session + `"}}`)
				var res SubscribeResult
				msg, err = tc.readResponse(nil)
				if err != nil || msg.Error != nil {
					return fmt.Errorf("subscribe: %v / %v", err, msg.Error)
				}
				if err := json.Unmarshal(msg.Result, &res); err != nil {
					return err
				}
				if res.Missed != 0 {
					return fmt.Errorf("subscribe from 0 missed %d events despite the server replay ring", res.Missed)
				}
				for {
					line, err := tc.readLine()
					if err != nil {
						return fmt.Errorf("stream: %w", err)
					}
					var note wireMsg
					if err := json.Unmarshal([]byte(line), &note); err != nil {
						return fmt.Errorf("bad stream line %q: %w", line, err)
					}
					if note.Method != "study.event" {
						continue
					}
					streams[i] = append(streams[i], eventKey(note.Params))
					if isTerminal(note.Params.Kind) {
						return nil
					}
				}
			}
			errs[i] = run()
			closeDone.Do(func() { close(studyDone) })
		}()
	}

	// Churners: subscribe far past the stream and unsubscribe, over and
	// over, while the collectors stream — the subscribe/unsubscribe
	// registry churn the satellite asks for.
	const churners = 3
	for i := 0; i < churners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc := dial(t, srv)
			defer tc.close()
			tc.send(initLine)
			if _, err := tc.readResponse(nil); err != nil {
				return
			}
			tc.send(submitLine)
			msg, err := tc.readResponse(nil)
			if err != nil || msg.Error != nil {
				return
			}
			var sub SubmitResult
			if err := json.Unmarshal(msg.Result, &sub); err != nil {
				return
			}
			if sub.Created {
				created.Add(1)
			}
			for n := 0; ; n++ {
				select {
				case <-studyDone:
					return
				default:
				}
				tc.send(`{"jsonrpc":"2.0","id":10,"method":"study.subscribe","params":{"session":"` + sub.Session + `"}}`)
				if _, err := tc.readResponse(nil); err != nil {
					return
				}
				tc.send(`{"jsonrpc":"2.0","id":11,"method":"study.unsubscribe","params":{"session":"` + sub.Session + `"}}`)
				if _, err := tc.readResponse(nil); err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()

	for i := 0; i < collectors; i++ {
		if errs[i] != nil {
			t.Fatalf("collector %d: %v", i, errs[i])
		}
		if sessions[i] != sessions[0] {
			t.Fatalf("collector %d joined session %q, collector 0 joined %q: submits of one spec-hash must share a session", i, sessions[i], sessions[0])
		}
		if len(streams[i]) == 0 {
			t.Fatalf("collector %d observed no events", i)
		}
		if len(streams[i]) != len(streams[0]) {
			t.Fatalf("collector %d observed %d events, collector 0 observed %d: all subscribers must observe the identical stream", i, len(streams[i]), len(streams[0]))
		}
		for j, key := range streams[i] {
			if want := streams[0][j]; key != want {
				t.Fatalf("collector %d event %d = %s, collector 0 saw %s: all subscribers must observe the identical stream", i, j, key, want)
			}
			if !strings.HasPrefix(key, fmt.Sprintf("%d|", j+1)) {
				t.Fatalf("event %d has key %s: sequence numbers must be contiguous from 1", j, key)
			}
		}
	}
	if got := created.Load(); got != 1 {
		t.Fatalf("created=true on %d submits, want exactly 1 (single-flight)", got)
	}

	// Graceful shutdown over the protocol, then nothing may linger.
	tc := dial(t, srv)
	tc.send(`{"jsonrpc":"2.0","id":1,"method":"shutdown"}`)
	if msg, err := tc.readResponse(nil); err != nil || msg.Error != nil {
		t.Fatalf("shutdown: %v / %v", err, msg.Error)
	}
	tc.close()
	assertNoRPCGoroutineLeak(t, baseline)
}
