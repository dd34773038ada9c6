// Command serve is the study service daemon: core.Runner sessions over
// line-oriented JSON-RPC 2.0. By default it speaks the protocol on
// stdin/stdout (one connection, initialize required); with -http it
// serves any number of clients over streamable HTTP (POST /rpc with
// NDJSON request lines, responses and event notifications streamed
// back; GET /healthz reports structured health JSON). Submissions are
// single-flight by spec hash: every client submitting the same study
// shares one execution and one sequence-numbered event stream, and a
// disconnected client reattaches with study.subscribe {after: <last
// seq>} to resume exactly where it left off. See ARCHITECTURE.md,
// "Study service".
//
// A daemon started with -store is also a store-federation hub: the
// store.* method family (inventory, fetch, put, refs) exposes its
// result store for digest-exchange sync, and `serve -sync URL -store
// DIR` is the branch side — push the local store's novel artifacts to
// the hub, pull what the hub has that the branch lacks, so two stores
// converge to the union and every subsequent run on either side is
// warm. See ARCHITECTURE.md, "Store federation".
//
// A daemon started with -fleet additionally coordinates remote unit
// workers: (env, app) units that miss every cache tier are published to
// a lease table, and `serve -worker URL` processes claim them, compute
// them, and push the artifacts back through the store sync verbs. Every
// fleet failure mode — no workers, crashed worker, stale artifact —
// degrades to local compute with byte-identical results. See
// ARCHITECTURE.md, "Distributed unit execution".
//
// Usage:
//
//	serve [-http ADDR] [-store DIR] [-fleet] [-lease DUR] [-straggler DUR]
//	      [-drain wait|cancel]
//	serve -connect URL -spec FILE [-after N]      # client: submit + stream events
//	serve -connect URL -stop                      # client: drain and stop the daemon
//	serve -sync URL -store DIR                    # client: reconcile stores (push, then pull)
//	serve -worker URL                             # worker: claim and compute units
//
// The daemon exits 0 after a graceful drain — on SIGTERM, SIGINT, or a
// shutdown RPC — with the result store consistent: sessions end through
// the executor's cooperative path and every store write is atomic. A
// worker exits 0 on SIGTERM/SIGINT after finishing and delivering its
// in-flight unit, if any.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"cloudhpc/internal/cli"
	"cloudhpc/internal/core"
	"cloudhpc/internal/fleet"
	"cloudhpc/internal/rpc"
)

func main() {
	httpAddr := flag.String("http", "", "serve over HTTP on this address (e.g. 127.0.0.1:8787) instead of stdio")
	store := flag.String("store", "", "persistent result store directory shared by every session")
	drain := flag.String("drain", rpc.DrainWait, `shutdown drain policy: "wait" lets running studies finish, "cancel" cancels them first`)
	fleetOn := flag.Bool("fleet", false, "coordinate remote unit workers (needs -store: the store is the artifact exchange)")
	lease := flag.Duration("lease", 0, fmt.Sprintf("fleet lease TTL before an unheartbeated unit re-queues (0 = %s)", fleet.DefaultLeaseTTL))
	straggler := flag.Duration("straggler", 0, fmt.Sprintf("longest a study waits on the fleet per unit before computing locally (0 = %s)", fleet.DefaultStraggler))
	connect := flag.String("connect", "", "client mode: base URL of a running daemon (e.g. http://127.0.0.1:8787)")
	spec := flag.String("spec", "", `client mode: study spec to submit, "default" or a spec file path`)
	after := flag.Uint64("after", 0, "client mode: resume the event stream after this sequence number")
	stop := flag.Bool("stop", false, "client mode: ask the daemon to drain and exit (prints its closing health report)")
	syncURL := flag.String("sync", "", "client mode: reconcile the local -store with a running daemon's store (push, then pull)")
	workerURL := flag.String("worker", "", "worker mode: base URL of a coordinating daemon to claim units from")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	if *workerURL != "" {
		info := rpc.Implementation{Name: "cloudhpc-serve-worker"}
		if err := cli.ServeWorker(*workerURL, info, logf); err != nil {
			cli.Fail("serve", err)
		}
		return
	}

	if *syncURL != "" {
		if *store == "" {
			cli.Fail("serve", fmt.Errorf("-sync needs -store DIR (the local store to reconcile)"))
		}
		if err := cli.ServeSync(context.Background(), *syncURL, *store, logf); err != nil {
			cli.Fail("serve", err)
		}
		return
	}

	if *connect != "" {
		ctx := context.Background()
		if *stop {
			if err := cli.ServeShutdown(ctx, *connect, os.Stdout); err != nil {
				cli.Fail("serve", err)
			}
			return
		}
		if *spec == "" {
			cli.Fail("serve", fmt.Errorf("client mode needs -spec (or -stop)"))
		}
		if err := cli.ServeClient(ctx, *connect, *spec, *after, os.Stdout, os.Stderr); err != nil {
			cli.Fail("serve", err)
		}
		return
	}

	switch *drain {
	case rpc.DrainWait, rpc.DrainCancel:
	default:
		cli.Fail("serve", fmt.Errorf("unknown -drain policy %q (want %q or %q)", *drain, rpc.DrainWait, rpc.DrainCancel))
	}
	var rs *core.ResultStore
	if *store != "" {
		var err error
		if rs, err = core.OpenResultStore(*store); err != nil {
			cli.Fail("serve", err)
		}
		rs.Logf = logf
	}
	runner := &core.Runner{Store: rs}
	srv := &rpc.Server{
		Runner: runner,
		Drain:  *drain,
		Logf:   logf,
		Info:   rpc.Implementation{Name: "cloudhpc-serve"},
	}
	if *fleetOn {
		if rs == nil {
			cli.Fail("serve", fmt.Errorf("-fleet needs -store DIR (the store is the unit-artifact exchange)"))
		}
		co := fleet.New(fleet.Options{LeaseTTL: *lease, Straggler: *straggler}, rs)
		defer co.Close()
		runner.Fleet = co
		srv.Fleet = co
		logf("serve: fleet coordination enabled (lease %s, straggler %s)",
			durOrDefault(*lease, fleet.DefaultLeaseTTL), durOrDefault(*straggler, fleet.DefaultStraggler))
	}
	if err := cli.ServeDaemon(srv, *httpAddr, logf); err != nil {
		cli.Fail("serve", err)
	}
}

func durOrDefault(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}
