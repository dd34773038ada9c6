package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cloudhpc/internal/core"
	"cloudhpc/internal/rpc"
	"cloudhpc/internal/store"
)

// serveReadHeaderTimeout bounds how long a connected client may take to
// finish its request headers. Without it one slow-header (or silent)
// client parks a connection goroutine forever — a trivial resource-
// exhaustion hole for a daemon meant to outlive its clients. A var so
// the daemon test can shrink it to something testable.
var serveReadHeaderTimeout = 10 * time.Second

// newHTTPServer builds the daemon's HTTP server around a handler —
// shared by ServeDaemon and the header-timeout regression test, so the
// test exercises exactly the configuration the daemon runs.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: serveReadHeaderTimeout}
}

// The serve harness: the daemon and client halves of cmd/serve, kept
// here so the main stays a flag shell and the behavior is testable from
// the package that owns the rest of the CLI plumbing.

// ServeDaemon runs srv until it drains: over streamable HTTP when
// httpAddr is set, over stdin/stdout otherwise. SIGTERM and SIGINT
// trigger a graceful shutdown (per srv's drain policy); so does a
// shutdown RPC from any client, and — on stdio — the peer closing its
// end of the pipe. The return is nil exactly when the daemon drained
// cleanly, with every session ended through the executor's cooperative
// path and the result store quiescent.
func ServeDaemon(srv *rpc.Server, httpAddr string, logf func(format string, args ...any)) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if httpAddr == "" {
		// Stdio: one connection, one client. The daemon lives as long as
		// the conversation (or until a signal interrupts it).
		connDone := make(chan error, 1)
		go func() {
			connDone <- srv.ServeConn(ctx, os.Stdin, os.Stdout)
		}()
		select {
		case err := <-connDone:
			srv.Shutdown()
			return err
		case <-ctx.Done():
			logf("serve: signal received, draining (%s policy)", srv.Drain)
			srv.Shutdown()
			return nil
		}
	}

	ln, err := net.Listen("tcp", httpAddr)
	if err != nil {
		return err
	}
	hs := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	logf("serve: listening on http://%s (POST /rpc, GET /healthz)", ln.Addr())
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		logf("serve: signal received, draining (%s policy)", srv.Drain)
	case <-srv.Drained():
		logf("serve: shutdown requested over RPC, drained")
	}
	srv.Shutdown()
	// Close rather than http.Server.Shutdown: subscribe streams are
	// open-ended responses that would hold a graceful HTTP shutdown
	// forever, and every study is already drained — the sockets carry
	// nothing durable.
	hs.Close()
	return nil
}

// ServeClient is the daemon's counterpart for scripts and the CI smoke:
// it submits the spec to a running daemon, subscribes from the given
// cursor, and echoes every study.event notification line verbatim to
// out — raw wire bytes, so two clients (or one client before and after
// a reattach) can be compared byte for byte. Session identity and
// replay accounting go to info (stderr), keeping out pure. It returns
// once the stream ends: the session completed and the terminal event
// was delivered.
func ServeClient(ctx context.Context, url, specRef string, after uint64, out, info io.Writer) error {
	spec, err := core.LoadSpec(specRef)
	if err != nil {
		return err
	}
	client := &rpc.Client{URL: url}
	sub, err := client.Submit(ctx, spec.String())
	if err != nil {
		return err
	}
	fmt.Fprintf(info, "serve-client: session %s (spec %s, created=%v), subscribing after %d\n",
		sub.Session, sub.SpecHash[:12], sub.Created, after)
	var last rpc.StudyEvent
	res, err := client.Subscribe(ctx, sub.Session, after, func(raw []byte, ev rpc.StudyEvent) error {
		last = ev
		_, werr := fmt.Fprintf(out, "%s\n", raw)
		return werr
	})
	if err != nil {
		return err
	}
	if res.Missed > 0 {
		fmt.Fprintf(info, "serve-client: warning: cursor %d predates the replay window, %d event(s) unrecoverable\n", after, res.Missed)
	}
	if last.Kind == string(core.EventStudyFailed) {
		return fmt.Errorf("study failed: %s", last.Err)
	}
	if last.Kind != string(core.EventStudyFinished) {
		// The stream can end without delivering a terminal event: a
		// reattach whose after cursor is at or past the session's final
		// sequence number subscribes to a completed stream and receives
		// nothing. The zero-valued last would sail past the failure check
		// above and report success for a study that failed — fall back to
		// the session's recorded state instead of trusting silence.
		pr, perr := client.Progress(ctx, sub.Session)
		if perr != nil {
			return fmt.Errorf("stream ended without a terminal event and the state poll failed: %w", perr)
		}
		fmt.Fprintf(info, "serve-client: stream ended without a terminal event; session state %q\n", pr.State)
		if pr.State == "failed" || pr.State == "cancelled" {
			return fmt.Errorf("study %s: %s", pr.State, pr.Err)
		}
	}
	return nil
}

// ServeSync reconciles a local store directory with a running daemon's
// store over the store.* method family: first push every blob and ref
// the daemon lacks, then pull everything it has that the local store
// lacks. Both stores converge to the union — two machines that each ran
// half of an env matrix end up each serving the full matrix warm — and
// re-syncing converged stores transfers zero blobs.
func ServeSync(ctx context.Context, url, dir string, logf func(format string, args ...any)) error {
	bs, err := store.Open(dir)
	if err != nil {
		return err
	}
	peer := rpc.StorePeer{C: &rpc.Client{URL: url}}
	pushed, err := store.Push(ctx, bs, peer)
	if err != nil {
		return fmt.Errorf("sync push: %w", err)
	}
	logf("serve-sync: pushed %s to %s", pushed, url)
	pulled, err := store.Pull(ctx, bs, peer)
	if err != nil {
		return fmt.Errorf("sync pull: %w", err)
	}
	logf("serve-sync: pulled %s from %s", pulled, url)
	return nil
}

// ServeShutdown asks a running daemon to drain and exit, returning once
// the drain has completed. The daemon's post-drain health snapshot —
// its closing session and fleet tallies — is printed to out as JSON.
func ServeShutdown(ctx context.Context, url string, out io.Writer) error {
	res, err := (&rpc.Client{URL: url}).Shutdown(ctx)
	if err != nil {
		return err
	}
	if res.Health != nil && out != nil {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Health); err != nil {
			return err
		}
	}
	return nil
}

// ServeWorker is cmd/serve's -worker mode: a remote unit worker that
// registers with a coordinating daemon and loops claim → compute → push
// until interrupted. SIGTERM and SIGINT drain: the in-flight unit (if
// any) finishes and is delivered before the process exits 0.
func ServeWorker(url string, info rpc.Implementation, logf func(format string, args ...any)) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return rpc.RunWorker(ctx, &rpc.Client{URL: url}, info, logf)
}
