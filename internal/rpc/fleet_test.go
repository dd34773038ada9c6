package rpc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cloudhpc/internal/core"
	"cloudhpc/internal/fleet"
	"cloudhpc/internal/store"
)

// fleetTestServer assembles a daemon with a memory store and a fleet
// coordinator over httptest — the three-process CI smoke in one
// process, minus the processes.
func fleetTestServer(t *testing.T, opts fleet.Options) (*Client, *Server, *fleet.Coordinator, *core.ResultStore, func()) {
	t.Helper()
	rs := core.NewResultStore(store.NewMemory())
	co := fleet.New(opts, rs)
	runner := &core.Runner{Store: rs, Fleet: co}
	srv := &Server{Runner: runner, Drain: DrainWait, Fleet: co}
	hs := httptest.NewServer(srv.Handler())
	cleanup := func() {
		co.Close()
		hs.Close()
	}
	return &Client{URL: hs.URL}, srv, co, rs, cleanup
}

// TestFleetWorkerEndToEnd drives the full wire protocol: two RunWorker
// loops against a coordinating daemon, a study whose units they
// compute, and a healthz report that accounts for all of it.
func TestFleetWorkerEndToEnd(t *testing.T) {
	client, srv, co, _, cleanup := fleetTestServer(t, fleet.Options{
		LeaseTTL:     500 * time.Millisecond,
		MaxClaimWait: 100 * time.Millisecond,
		Straggler:    20 * time.Second,
	})
	defer cleanup()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := RunWorker(ctx, client, Implementation{Name: fmt.Sprintf("w%d", i), Version: "test"}, t.Logf)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}()
	}

	// Submit only once both workers have registered: a study submitted
	// earlier finds no live workers and every unit takes the local
	// fallback, leaving nothing to complete over the wire.
	for deadline := time.Now().Add(10 * time.Second); co.Stats().LiveWorkers < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("workers did not register within 10s: %+v", co.Stats())
		}
	}

	// A spec no other test runs (unique seed).
	spec := "seed 880915\nenvs google-gke-cpu aws-eks-cpu\nscales 2 4\niterations 2\n"
	sub, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		pr, err := client.Progress(context.Background(), sub.Session)
		if err != nil {
			t.Fatal(err)
		}
		if pr.State == "done" {
			break
		}
		if pr.State != "running" {
			t.Fatalf("session ended %s: %s", pr.State, pr.Err)
		}
		if time.Now().After(deadline) {
			t.Fatal("study did not complete within 60s")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if s := co.Stats(); s.Completed == 0 {
		t.Fatalf("no units completed over the wire: %+v", s)
	}

	// The structured health report must account for the fleet.
	resp, err := http.Get(client.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %s", resp.Status)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz is not valid JSON: %v", err)
	}
	if h.Status != "ok" || h.Sessions.Done != 1 || !h.Store {
		t.Fatalf("healthz: %+v", h)
	}
	if h.Fleet == nil || h.Fleet.Workers != 2 || h.Fleet.Completed == 0 {
		t.Fatalf("healthz fleet stats: %+v", h.Fleet)
	}

	// Shutdown closes the coordinator; both workers must drain to nil
	// (asserted in their goroutines) and the reply carries final health.
	res, err := client.Shutdown(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Health == nil || res.Health.Status != "draining" {
		t.Fatalf("shutdown result: %+v", res)
	}
	wg.Wait()
	select {
	case <-srv.Drained():
	default:
		t.Fatal("server not drained after shutdown ack")
	}
}

// TestFleetClaimAfterCloseSignalsWorkers covers the drain handshake at
// the wire level: a claim against a closed coordinator answers
// closed=true, not an error.
func TestFleetClaimAfterCloseSignalsWorkers(t *testing.T) {
	client, _, co, _, cleanup := fleetTestServer(t, fleet.Options{MaxClaimWait: 50 * time.Millisecond})
	defer cleanup()
	reg, err := client.FleetRegister(context.Background(), Implementation{Name: "w", Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	co.Close()
	res, err := client.FleetClaim(context.Background(), reg.Worker, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Closed {
		t.Fatalf("claim after close: %+v, want closed", res)
	}
}

// TestFleetMethodsWithoutCoordinator pins the -32005 taxonomy: every
// fleet verb on a fleetless daemon refuses with CodeNoFleet, and the
// initialize capabilities advertise fleet=false.
func TestFleetMethodsWithoutCoordinator(t *testing.T) {
	srv := &Server{Drain: DrainCancel}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := &Client{URL: hs.URL}
	if _, err := client.FleetRegister(context.Background(), Implementation{Name: "w"}); !isCode(err, CodeNoFleet) {
		t.Fatalf("register on fleetless daemon: %v", err)
	}
	if _, err := client.FleetClaim(context.Background(), "W1", time.Second); !isCode(err, CodeNoFleet) {
		t.Fatalf("claim on fleetless daemon: %v", err)
	}
	if _, err := client.FleetHeartbeat(context.Background(), "W1", "L1"); !isCode(err, CodeNoFleet) {
		t.Fatalf("heartbeat on fleetless daemon: %v", err)
	}
	if _, err := client.FleetNack(context.Background(), "W1", "L1", "x"); !isCode(err, CodeNoFleet) {
		t.Fatalf("nack on fleetless daemon: %v", err)
	}
}

// TestFleetErrorTaxonomy pins the remaining lease-protocol codes over
// the wire: unknown worker, unknown lease, bad protocol version.
func TestFleetErrorTaxonomy(t *testing.T) {
	client, _, co, _, cleanup := fleetTestServer(t, fleet.Options{MaxClaimWait: 50 * time.Millisecond})
	defer cleanup()
	_ = co
	if _, err := client.FleetClaim(context.Background(), "W404", time.Second); !isCode(err, CodeUnknownWorker) {
		t.Fatalf("claim from unregistered worker: %v", err)
	}
	reg, err := client.FleetRegister(context.Background(), Implementation{Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.FleetHeartbeat(context.Background(), reg.Worker, "L404"); !isCode(err, CodeUnknownLease) {
		t.Fatalf("heartbeat on unknown lease: %v", err)
	}
	if _, err := client.FleetNack(context.Background(), reg.Worker, "L404", "x"); !isCode(err, CodeUnknownLease) {
		t.Fatalf("nack on unknown lease: %v", err)
	}
	var res FleetRegisterResult
	err = client.call(context.Background(), "fleet.register",
		FleetRegisterParams{ProtocolVersion: "99", Worker: Implementation{Name: "w"}}, &res)
	if !isCode(err, CodeInvalidParams) {
		t.Fatalf("register with bad protocol version: %v", err)
	}
}

func isCode(err error, code int) bool {
	re, ok := err.(*Error)
	return ok && re.Code == code
}
