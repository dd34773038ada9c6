package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Client speaks the study protocol to a Server's HTTP transport — the
// minimal client the CLI's -connect mode and the CI smoke are built on.
// Each call is one POST to <URL>/rpc; Subscribe holds its POST open and
// streams the event notifications. The zero HTTP field means
// http.DefaultClient.
type Client struct {
	URL  string // base URL, e.g. "http://127.0.0.1:8787"
	HTTP *http.Client
}

// clientResponse is the decode-side response shape (the server side
// marshals Result as any; the client needs the raw bytes back).
type clientResponse struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Result  json.RawMessage `json:"result"`
	Error   *Error          `json:"error"`
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) endpoint() string {
	return strings.TrimSuffix(c.URL, "/") + "/rpc"
}

// post sends one request line and returns the streamed response body.
func (c *Client) post(ctx context.Context, method string, params any) (io.ReadCloser, error) {
	var b batch
	if err := b.add(method, params); err != nil {
		return nil, err
	}
	return c.postBody(ctx, b.body)
}

// batch is one POST body of request lines numbered from 1. Chunked
// uploads send a blob's store.put chunks (addBlob), then whatever request
// the upload feeds, in one batch: the server stages an upload per
// connection, and each POST is one connection.
type batch struct {
	body []byte
	n    int
}

// add appends one request line under the next id.
func (b *batch) add(method string, params any) error {
	praw, err := json.Marshal(params)
	if err != nil {
		return err
	}
	b.n++
	line, err := json.Marshal(request{JSONRPC: "2.0", ID: json.RawMessage(strconv.Itoa(b.n)), Method: method, Params: praw})
	if err != nil {
		return err
	}
	if b.body == nil {
		b.body = line // the first line is framed in place, with no copy
	} else {
		b.body = append(b.body, line...)
	}
	b.body = append(b.body, '\n')
	return nil
}

// send posts the batch through c and reads one reply per line. Any error
// reply fails the batch; the last reply decodes into last.
func (b *batch) send(ctx context.Context, c *Client, what string, last any) error {
	body, err := c.postBody(ctx, b.body)
	if err != nil {
		return err
	}
	defer body.Close()
	sc := newLineScanner(body)
	for i := 0; i < b.n; i++ {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return err
			}
			return fmt.Errorf("rpc: %s: %d of %d replies", what, i, b.n)
		}
		var result any
		if i == b.n-1 {
			result = last
		}
		if err := decodeResponse(sc.Bytes(), result); err != nil {
			return err
		}
	}
	return nil
}

// postBody sends pre-framed request lines as one POST body.
func (c *Client) postBody(ctx context.Context, body []byte) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.endpoint(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("rpc: POST %s: HTTP %s", c.endpoint(), resp.Status)
	}
	return resp.Body, nil
}

// newLineScanner builds the protocol's line scanner, for the server's
// request lines and the client's response lines alike: NDJSON lines up
// to the framing cap. It starts from bufio's 4 KiB first read and grows
// only when a line needs more, so a POST of short lines allocates no
// large buffer.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLineBytes)
	return sc
}

// decodeResponse parses one response line into result.
func decodeResponse(line []byte, result any) error {
	var resp clientResponse
	if err := json.Unmarshal(line, &resp); err != nil {
		return fmt.Errorf("rpc: bad response line: %w", err)
	}
	if resp.Error != nil {
		return resp.Error
	}
	if result == nil {
		return nil
	}
	return json.Unmarshal(resp.Result, result)
}

// call performs one request/response round trip.
func (c *Client) call(ctx context.Context, method string, params, result any) error {
	body, err := c.post(ctx, method, params)
	if err != nil {
		return err
	}
	defer body.Close()
	sc := newLineScanner(body)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return err
		}
		return fmt.Errorf("rpc: %s: empty response", method)
	}
	return decodeResponse(sc.Bytes(), result)
}

// Submit submits a spec text and returns its session identity.
func (c *Client) Submit(ctx context.Context, spec string) (SubmitResult, error) {
	var res SubmitResult
	err := c.call(ctx, "study.submit", SubmitParams{Spec: spec}, &res)
	return res, err
}

// Progress fetches a session's state and counters.
func (c *Client) Progress(ctx context.Context, session string) (ProgressResult, error) {
	var res ProgressResult
	err := c.call(ctx, "study.progress", SessionParams{Session: session}, &res)
	return res, err
}

// Cancel requests cooperative cancellation of a session.
func (c *Client) Cancel(ctx context.Context, session string) (CancelResult, error) {
	var res CancelResult
	err := c.call(ctx, "study.cancel", SessionParams{Session: session}, &res)
	return res, err
}

// Shutdown asks the server to drain and exit; it returns once the drain
// has completed (the server acknowledges only then). The result carries
// the server's post-drain health snapshot — its closing tallies.
func (c *Client) Shutdown(ctx context.Context) (ShutdownResult, error) {
	var res ShutdownResult
	err := c.call(ctx, "shutdown", struct{}{}, &res)
	return res, err
}

// Subscribe attaches to a session's event stream after the given cursor
// and invokes fn for every study.event notification until the stream
// ends (the session completed), fn returns an error, or ctx is
// cancelled. raw is the notification's exact wire line (without the
// trailing newline) — byte-stable across subscribers of one session, so
// a reattach can be verified by comparing raw lines. The returned
// SubscribeResult reports the events the cursor could not reach.
func (c *Client) Subscribe(ctx context.Context, session string, after uint64, fn func(raw []byte, ev StudyEvent) error) (SubscribeResult, error) {
	var res SubscribeResult
	body, err := c.post(ctx, "study.subscribe", SubscribeParams{Session: session, After: after})
	if err != nil {
		return res, err
	}
	defer body.Close()
	sc := newLineScanner(body)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return res, err
		}
		return res, fmt.Errorf("rpc: study.subscribe: empty response")
	}
	if err := decodeResponse(sc.Bytes(), &res); err != nil {
		return res, err
	}
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var note struct {
			Method string     `json:"method"`
			Params StudyEvent `json:"params"`
		}
		if err := json.Unmarshal(line, &note); err != nil {
			return res, fmt.Errorf("rpc: bad notification line: %w", err)
		}
		if note.Method != "study.event" {
			continue
		}
		if fn != nil {
			if err := fn(append([]byte(nil), line...), note.Params); err != nil {
				return res, err
			}
		}
	}
	return res, sc.Err()
}
