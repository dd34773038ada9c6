package rpc

// The fleet.* method family: the lease protocol between a coordinating
// daemon (Server.Fleet) and remote unit workers. A worker's life is a
// loop over four verbs —
//
//	fleet.register   handshake: version check, worker ID, protocol timings
//	fleet.claim      long-poll for one leased (env, app) unit
//	fleet.heartbeat  keep the lease alive while the unit computes
//	fleet.complete   report the artifact (blobs uploaded via store.put)
//	fleet.nack       return a unit unfinished; it re-queues
//
// — and RunWorker is that loop: the whole worker mode of cmd/serve.
// Artifacts travel over the existing store.* sync verbs: PushUnit packs
// the unit files into an in-memory registry (the same layout saveUnit
// writes), uploads every blob as store.put chunk lines, and lands the
// fleet.complete on the same POST: the server stages chunked uploads
// per connection, and one round trip carries the whole unit.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"cloudhpc/internal/core"
	"cloudhpc/internal/dataset"
	"cloudhpc/internal/fleet"
	"cloudhpc/internal/oras"
	"cloudhpc/internal/store"
)

// fleetCoordinator resolves the coordinator behind the fleet.* methods.
func (c *conn) fleetCoordinator() (*fleet.Coordinator, *Error) {
	if c.srv.Fleet != nil {
		return c.srv.Fleet, nil
	}
	return nil, errf(CodeNoFleet, "daemon has no fleet coordinator (start it with -fleet)")
}

// fleetError maps coordinator errors onto the protocol's code taxonomy.
func fleetError(err error) *Error {
	switch {
	case errors.Is(err, fleet.ErrClosed):
		return errf(CodeShuttingDown, "%v", err)
	case errors.Is(err, fleet.ErrUnknownWorker):
		return errf(CodeUnknownWorker, "%v", err)
	case errors.Is(err, fleet.ErrUnknownLease):
		return errf(CodeUnknownLease, "%v", err)
	}
	return errf(CodeInternal, "%v", err)
}

func (c *conn) fleetRegister(raw json.RawMessage) (any, *Error) {
	co, e := c.fleetCoordinator()
	if e != nil {
		return nil, e
	}
	var p FleetRegisterParams
	if e := unmarshalParams(raw, &p); e != nil {
		return nil, e
	}
	if p.ProtocolVersion != ProtocolVersion {
		e := errf(CodeInvalidParams, "unsupported protocol version %q", p.ProtocolVersion)
		e.Data = map[string]any{"supported": []string{ProtocolVersion}}
		return nil, e
	}
	reg, err := co.Register(p.Worker.Name, p.Worker.Version)
	if err != nil {
		return nil, fleetError(err)
	}
	c.srv.logf("rpc: fleet worker %s registered (%s %s)", reg.Worker, p.Worker.Name, p.Worker.Version)
	return FleetRegisterResult{
		Worker:      reg.Worker,
		LeaseMs:     reg.TTL.Milliseconds(),
		HeartbeatMs: reg.Heartbeat.Milliseconds(),
		MaxWaitMs:   reg.MaxWait.Milliseconds(),
	}, nil
}

func (c *conn) fleetClaim(raw json.RawMessage) (any, *Error) {
	co, e := c.fleetCoordinator()
	if e != nil {
		return nil, e
	}
	var p FleetClaimParams
	if e := unmarshalParams(raw, &p); e != nil {
		return nil, e
	}
	// The long-poll blocks this connection's serial request loop — fine,
	// a worker's claim POST carries nothing else — and unblocks on the
	// connection's own context when the worker vanishes mid-poll.
	a, err := co.Claim(c.ctx, p.Worker, time.Duration(p.WaitMs)*time.Millisecond)
	switch {
	case errors.Is(err, fleet.ErrClosed):
		// Not an error to a worker: the drain signal.
		return FleetClaimResult{Closed: true}, nil
	case err != nil:
		return nil, fleetError(err)
	case a == nil:
		return FleetClaimResult{}, nil // idle poll; claim again
	}
	work := a.Work
	return FleetClaimResult{Unit: &work, Lease: a.Lease, LeaseMs: a.TTL.Milliseconds()}, nil
}

func (c *conn) fleetHeartbeat(raw json.RawMessage) (any, *Error) {
	co, e := c.fleetCoordinator()
	if e != nil {
		return nil, e
	}
	var p FleetHeartbeatParams
	if e := unmarshalParams(raw, &p); e != nil {
		return nil, e
	}
	ttl, err := co.Heartbeat(p.Worker, p.Lease)
	if err != nil {
		return nil, fleetError(err)
	}
	return FleetHeartbeatResult{Lease: p.Lease, LeaseMs: ttl.Milliseconds()}, nil
}

func (c *conn) fleetComplete(raw json.RawMessage) (any, *Error) {
	co, e := c.fleetCoordinator()
	if e != nil {
		return nil, e
	}
	var p FleetCompleteParams
	if e := unmarshalParams(raw, &p); e != nil {
		return nil, e
	}
	if p.Key == "" || !store.ValidDigest(p.Manifest) {
		return nil, errf(CodeInvalidParams, "fleet.complete needs a unit key and a manifest digest")
	}
	dup, err := co.Complete(p.Worker, p.Lease, p.Key, p.Manifest)
	switch {
	case errors.Is(err, fleet.ErrClosed), errors.Is(err, fleet.ErrUnknownWorker):
		return nil, fleetError(err)
	case err != nil:
		// Verification failure: the artifact does not decode to the unit's
		// exact draw schedule. The lease re-queued (or fell back to local
		// compute); the worker learns why.
		return nil, errf(CodeBadArtifact, "unit %s rejected: %v", p.Key, err)
	}
	return FleetCompleteResult{Key: p.Key, Accepted: true, Duplicate: dup}, nil
}

func (c *conn) fleetNack(raw json.RawMessage) (any, *Error) {
	co, e := c.fleetCoordinator()
	if e != nil {
		return nil, e
	}
	var p FleetNackParams
	if e := unmarshalParams(raw, &p); e != nil {
		return nil, e
	}
	if err := co.Nack(p.Worker, p.Lease, p.Reason); err != nil {
		return nil, fleetError(err)
	}
	if p.Reason != "" {
		c.srv.logf("rpc: fleet worker %s nacked a unit: %s", p.Worker, p.Reason)
	}
	return FleetNackResult{Requeued: true}, nil
}

// ---- client side ----

// FleetRegister performs the worker handshake.
func (c *Client) FleetRegister(ctx context.Context, worker Implementation) (FleetRegisterResult, error) {
	var res FleetRegisterResult
	err := c.call(ctx, "fleet.register", FleetRegisterParams{ProtocolVersion: ProtocolVersion, Worker: worker}, &res)
	return res, err
}

// FleetClaim long-polls for one unit. The POST stays open for up to the
// requested wait, so ctx should cover it.
func (c *Client) FleetClaim(ctx context.Context, worker string, wait time.Duration) (FleetClaimResult, error) {
	var res FleetClaimResult
	err := c.call(ctx, "fleet.claim", FleetClaimParams{Worker: worker, WaitMs: wait.Milliseconds()}, &res)
	return res, err
}

// FleetHeartbeat extends a lease.
func (c *Client) FleetHeartbeat(ctx context.Context, worker, lease string) (FleetHeartbeatResult, error) {
	var res FleetHeartbeatResult
	err := c.call(ctx, "fleet.heartbeat", FleetHeartbeatParams{Worker: worker, Lease: lease}, &res)
	return res, err
}

// FleetNack returns a claimed unit unfinished.
func (c *Client) FleetNack(ctx context.Context, worker, lease, reason string) (FleetNackResult, error) {
	var res FleetNackResult
	err := c.call(ctx, "fleet.nack", FleetNackParams{Worker: worker, Lease: lease, Reason: reason}, &res)
	return res, err
}

// PushUnit delivers one computed unit: it packs files into the store's
// artifact layout (the same oras push saveUnit performs locally),
// uploads every blob as store.put chunks, and reports the manifest with
// fleet.complete — all in one POST, because the server stages chunked
// uploads per connection. The server re-verifies everything on arrival:
// every chunk assembly against its digest, and the decoded records
// against the unit's exact draw schedule.
func (c *Client) PushUnit(ctx context.Context, worker, lease string, work core.UnitWork, files map[string][]byte) (FleetCompleteResult, error) {
	var res FleetCompleteResult
	pack := oras.NewRegistry()
	manifest, err := pack.Push("unit/"+work.Key, dataset.UnitArtifactType, files, nil)
	if err != nil {
		return res, fmt.Errorf("rpc: packing unit %s: %w", work.Key, err)
	}
	var b batch
	for _, dig := range pack.SyncInventory().Digests {
		data, err := pack.FetchBlob(oras.Digest(dig))
		if err != nil {
			return res, fmt.Errorf("rpc: packing unit %s: %w", work.Key, err)
		}
		if err := b.addBlob(dig, data); err != nil {
			return res, err
		}
	}
	if err := b.add("fleet.complete", FleetCompleteParams{
		Worker: worker, Lease: lease, Key: work.Key, Manifest: string(manifest),
	}); err != nil {
		return res, err
	}
	// The last reply is the completion; an error reply to any line
	// aborts the push.
	err = b.send(ctx, c, "fleet push", &res)
	return res, err
}

// RunWorker is cmd/serve's worker mode: register with the coordinator,
// then loop claim → compute → push until ctx is cancelled or the
// coordinator closes. Cancellation is a drain, not an abort: the
// in-flight unit finishes, pushes, and only then does the loop exit —
// which is why the compute half runs on context.Background(). Returns
// nil on a clean drain (cancelled, coordinator closed); any other
// transport or protocol failure is returned as the error.
func RunWorker(ctx context.Context, c *Client, info Implementation, logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	reg, err := c.FleetRegister(ctx, info)
	if err != nil {
		return fmt.Errorf("rpc: fleet register: %w", err)
	}
	heartbeat := time.Duration(reg.HeartbeatMs) * time.Millisecond
	if heartbeat <= 0 {
		heartbeat = time.Second
	}
	wait := time.Duration(reg.MaxWaitMs) * time.Millisecond
	logf("worker %s: registered (lease %dms, heartbeat %s)", reg.Worker, reg.LeaseMs, heartbeat)
	units := 0
	for {
		claim, err := c.FleetClaim(ctx, reg.Worker, wait)
		if err != nil {
			if ctx.Err() != nil {
				logf("worker %s: draining after %d unit(s)", reg.Worker, units)
				return nil
			}
			var re *Error
			if errors.As(err, &re) && re.Code == CodeShuttingDown {
				logf("worker %s: coordinator shutting down; drained after %d unit(s)", reg.Worker, units)
				return nil
			}
			return fmt.Errorf("rpc: fleet claim: %w", err)
		}
		if claim.Closed {
			logf("worker %s: coordinator closed; drained after %d unit(s)", reg.Worker, units)
			return nil
		}
		if claim.Unit == nil {
			if ctx.Err() != nil {
				logf("worker %s: draining after %d unit(s)", reg.Worker, units)
				return nil
			}
			continue
		}
		runClaimedUnit(c, reg.Worker, claim, heartbeat, logf)
		units++
	}
}

// runClaimedUnit computes and delivers one claimed unit, heartbeating
// its lease throughout. Deliberately context-free: once a unit is
// claimed the worker finishes it even while draining (the coordinator
// side is also covered either way — an undelivered lease expires and
// re-queues).
func runClaimedUnit(c *Client, worker string, claim FleetClaimResult, heartbeat time.Duration, logf func(string, ...any)) {
	work := *claim.Unit
	done := make(chan struct{})
	defer close(done)
	go func() {
		t := time.NewTicker(heartbeat)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if _, err := c.FleetHeartbeat(context.Background(), worker, claim.Lease); err != nil {
					// Lease gone (expired or unit completed elsewhere). Keep
					// computing: a verified late push is still accepted.
					return
				}
			}
		}
	}()
	files, err := core.ComputeUnitFiles(work)
	if err != nil {
		logf("worker %s: unit %s failed: %v", worker, work.Key, err)
		if _, nerr := c.FleetNack(context.Background(), worker, claim.Lease, err.Error()); nerr != nil {
			logf("worker %s: nack failed: %v", worker, nerr)
		}
		return
	}
	res, err := c.PushUnit(context.Background(), worker, claim.Lease, work, files)
	if err != nil {
		// Push failures (daemon gone, artifact rejected) are the
		// coordinator's to recover: the lease expires and re-queues.
		logf("worker %s: unit %s push failed: %v", worker, work.Key, err)
		return
	}
	switch {
	case res.Duplicate:
		logf("worker %s: unit %s already completed elsewhere", worker, work.Key)
	default:
		logf("worker %s: unit %s completed (%s/%s)", worker, work.Key, work.Env, work.App)
	}
}
