package fleet_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/core"
	"cloudhpc/internal/dataset"
	"cloudhpc/internal/fleet"
	"cloudhpc/internal/store"
)

// fastOpts are coordinator timings scaled for tests: leases expire in
// tens of milliseconds and backoffs are short, so the failure paths run
// in real time without slow tests.
func fastOpts() fleet.Options {
	return fleet.Options{
		LeaseTTL:     50 * time.Millisecond,
		MaxAttempts:  3,
		Straggler:    5 * time.Second,
		RequeueDelay: 5 * time.Millisecond,
		MaxClaimWait: 100 * time.Millisecond,
	}
}

func newStore(t *testing.T) *core.ResultStore {
	t.Helper()
	return core.NewResultStore(store.NewMemory())
}

// makeWork builds a self-consistent unit work tuple the same way the
// executor does: the key is the sub-hash of exactly these coordinates.
func makeWork(t *testing.T, seed uint64, envKey, app string, scales []int, iters int) core.UnitWork {
	t.Helper()
	env, err := apps.EnvByKey(envKey)
	if err != nil {
		t.Fatal(err)
	}
	env.Scales = scales
	return core.UnitWork{
		Key:        core.UnitKey(seed, env, app, iters, nil),
		Seed:       seed,
		Env:        envKey,
		Scales:     scales,
		App:        app,
		Iterations: iters,
	}
}

// pushArtifact computes a unit honestly and stages its artifact in the
// shared store under a staging tag — what a worker's store.put upload
// achieves — returning the manifest digest for Complete.
func pushArtifact(t *testing.T, rs *core.ResultStore, work core.UnitWork) string {
	t.Helper()
	files, err := core.ComputeUnitFiles(work)
	if err != nil {
		t.Fatalf("compute unit %s: %v", work.Key, err)
	}
	dig, err := rs.Registry().Push("staging/"+work.Key, dataset.UnitArtifactType, files, nil)
	if err != nil {
		t.Fatalf("staging unit %s: %v", work.Key, err)
	}
	return string(dig)
}

func register(t *testing.T, co *fleet.Coordinator) string {
	t.Helper()
	reg, err := co.Register("test-worker", "test")
	if err != nil {
		t.Fatal(err)
	}
	return reg.Worker
}

// claimOne polls until the worker holds a lease or the deadline passes.
func claimOne(t *testing.T, co *fleet.Coordinator, worker string) *fleet.Assignment {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		a, err := co.Claim(context.Background(), worker, 100*time.Millisecond)
		if err != nil {
			t.Fatalf("claim: %v", err)
		}
		if a != nil {
			return a
		}
	}
	t.Fatal("no unit claimable within 5s")
	return nil
}

func TestOffloadCompleteRoundTrip(t *testing.T) {
	rs := newStore(t)
	co := fleet.New(fastOpts(), rs)
	defer co.Close()
	worker := register(t, co)
	work := makeWork(t, 101, "google-gke-cpu", "lammps", []int{2, 4}, 1)

	var events []core.EventKind
	var evMu sync.Mutex
	done := make(chan bool, 1)
	go func() {
		done <- co.Offload(context.Background(), work, func(k core.EventKind) {
			evMu.Lock()
			events = append(events, k)
			evMu.Unlock()
		})
	}()

	a := claimOne(t, co, worker)
	if a.Work.Key != work.Key {
		t.Fatalf("claimed key %s, published %s", a.Work.Key, work.Key)
	}
	dup, err := co.Complete(worker, a.Lease, work.Key, pushArtifact(t, rs, work))
	if err != nil {
		t.Fatalf("complete: %v", err)
	}
	if dup {
		t.Fatal("first completion reported duplicate")
	}
	if !<-done {
		t.Fatal("offload reported fallback after a verified completion")
	}
	// The accepted artifact must be loadable exactly like a warm store
	// hit: the unit ref landed under its key.
	if _, err := rs.Registry().Pull("unit/" + work.Key); err != nil {
		t.Fatalf("accepted unit not tagged in store: %v", err)
	}
	evMu.Lock()
	defer evMu.Unlock()
	if len(events) == 0 || events[0] != core.EventUnitLeased {
		t.Fatalf("observer saw %v, want unit-leased first", events)
	}
	s := co.Stats()
	if s.Completed != 1 || s.Pending != 0 || s.Leased != 0 {
		t.Fatalf("stats after completion: %+v", s)
	}
}

func TestOffloadNoLiveWorkersFallsBackImmediately(t *testing.T) {
	co := fleet.New(fastOpts(), newStore(t))
	defer co.Close()
	work := makeWork(t, 102, "google-gke-cpu", "lammps", []int{2}, 1)
	start := time.Now()
	if co.Offload(context.Background(), work, nil) {
		t.Fatal("offload succeeded with no workers registered")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("empty-fleet fallback took %s; want immediate", d)
	}
	if s := co.Stats(); s.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", s.Fallbacks)
	}
}

func TestLeaseExpiryRequeuesThenCompletes(t *testing.T) {
	rs := newStore(t)
	co := fleet.New(fastOpts(), rs)
	defer co.Close()
	worker := register(t, co)
	work := makeWork(t, 103, "aws-eks-cpu", "osu", []int{2}, 1)

	var expired atomic.Int64
	done := make(chan bool, 1)
	go func() {
		done <- co.Offload(context.Background(), work, func(k core.EventKind) {
			if k == core.EventUnitLeaseExpired {
				expired.Add(1)
			}
		})
	}()

	// First claim: the worker "dies" — no heartbeat, no completion. The
	// lease must expire and the unit re-queue.
	first := claimOne(t, co, worker)
	second := claimOne(t, co, worker)
	if second.Lease == first.Lease {
		t.Fatal("re-claim returned the expired lease")
	}
	if second.Work.Key != work.Key {
		t.Fatalf("re-claimed key %s, want %s", second.Work.Key, work.Key)
	}
	if _, err := co.Complete(worker, second.Lease, work.Key, pushArtifact(t, rs, work)); err != nil {
		t.Fatalf("complete after requeue: %v", err)
	}
	if !<-done {
		t.Fatal("offload fell back even though the second lease completed")
	}
	if expired.Load() == 0 {
		t.Fatal("observer never saw unit-lease-expired")
	}
	s := co.Stats()
	if s.Expired == 0 || s.Requeued == 0 || s.Completed != 1 {
		t.Fatalf("stats after expiry+completion: %+v", s)
	}
}

func TestDuplicateCompleteIsHarmless(t *testing.T) {
	rs := newStore(t)
	co := fleet.New(fastOpts(), rs)
	defer co.Close()
	worker := register(t, co)
	work := makeWork(t, 104, "google-gke-cpu", "minife", []int{2}, 1)
	done := make(chan bool, 1)
	go func() { done <- co.Offload(context.Background(), work, nil) }()
	a := claimOne(t, co, worker)
	manifest := pushArtifact(t, rs, work)
	if dup, err := co.Complete(worker, a.Lease, work.Key, manifest); err != nil || dup {
		t.Fatalf("first complete: dup=%v err=%v", dup, err)
	}
	// Same lease again, and a made-up lease: both must ack as duplicates
	// without error — content-addressing makes re-delivery free.
	if dup, err := co.Complete(worker, a.Lease, work.Key, manifest); err != nil || !dup {
		t.Fatalf("second complete: dup=%v err=%v", dup, err)
	}
	if dup, err := co.Complete(worker, "L9999", work.Key, manifest); err != nil || !dup {
		t.Fatalf("stale-lease complete: dup=%v err=%v", dup, err)
	}
	if !<-done {
		t.Fatal("offload fell back")
	}
	if s := co.Stats(); s.Completed != 1 {
		t.Fatalf("completed = %d, want 1", s.Completed)
	}
}

func TestStaleArtifactRejectedDegradesToLocal(t *testing.T) {
	rs := newStore(t)
	opts := fastOpts()
	opts.MaxAttempts = 2
	co := fleet.New(opts, rs)
	defer co.Close()
	worker := register(t, co)
	work := makeWork(t, 105, "azure-aks-cpu", "kripke", []int{2}, 1)

	// The artifact of a DIFFERENT unit: well-formed, but its metadata and
	// schedule belong to another key — the stale/malicious worker case.
	other := makeWork(t, 106, "azure-aks-cpu", "kripke", []int{2}, 1)
	stale := pushArtifact(t, rs, other)

	done := make(chan bool, 1)
	go func() { done <- co.Offload(context.Background(), work, nil) }()
	for i := 0; i < opts.MaxAttempts; i++ {
		a := claimOne(t, co, worker)
		if _, err := co.Complete(worker, a.Lease, a.Work.Key, stale); err == nil {
			t.Fatal("coordinator accepted an artifact for the wrong unit")
		}
	}
	if <-done {
		t.Fatal("offload reported success after every attempt delivered a stale artifact")
	}
	// The bad artifact must not be reachable under the unit's key.
	if _, err := rs.Registry().Pull("unit/" + work.Key); err == nil {
		t.Fatal("rejected artifact was tagged under the unit key")
	}
	if s := co.Stats(); s.Rejected != int64(opts.MaxAttempts) {
		t.Fatalf("rejected = %d, want %d", s.Rejected, opts.MaxAttempts)
	}
}

func TestNackRequeuesAndCapsToFallback(t *testing.T) {
	opts := fastOpts()
	opts.MaxAttempts = 2
	co := fleet.New(opts, newStore(t))
	defer co.Close()
	worker := register(t, co)
	work := makeWork(t, 107, "google-gke-cpu", "amg2023", []int{2}, 1)
	done := make(chan bool, 1)
	go func() { done <- co.Offload(context.Background(), work, nil) }()
	for i := 0; i < opts.MaxAttempts; i++ {
		a := claimOne(t, co, worker)
		if err := co.Nack(worker, a.Lease, "synthetic failure"); err != nil {
			t.Fatalf("nack %d: %v", i, err)
		}
	}
	if <-done {
		t.Fatal("offload succeeded though every attempt was nacked")
	}
	s := co.Stats()
	if s.Nacked != int64(opts.MaxAttempts) || s.Fallbacks != 1 {
		t.Fatalf("stats after nack cap: %+v", s)
	}
}

func TestStragglerDeadlineFallsBackButLateResultLands(t *testing.T) {
	rs := newStore(t)
	opts := fastOpts()
	opts.Straggler = 50 * time.Millisecond
	co := fleet.New(opts, rs)
	defer co.Close()
	worker := register(t, co)
	work := makeWork(t, 108, "aws-eks-cpu", "laghos", []int{2}, 1)

	// Nobody claims: the offload must fall back at the straggler deadline.
	if co.Offload(context.Background(), work, nil) {
		t.Fatal("offload succeeded with no claim")
	}
	// The unit stayed published; a late worker completes it and the
	// artifact still lands in the store for the next study.
	a := claimOne(t, co, worker)
	if _, err := co.Complete(worker, a.Lease, work.Key, pushArtifact(t, rs, work)); err != nil {
		t.Fatalf("late complete: %v", err)
	}
	if _, err := rs.Registry().Pull("unit/" + work.Key); err != nil {
		t.Fatalf("late artifact not tagged: %v", err)
	}
}

func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	rs := newStore(t)
	co := fleet.New(fastOpts(), rs)
	defer co.Close()
	worker := register(t, co)
	work := makeWork(t, 109, "google-gke-cpu", "mixbench", []int{2}, 1)
	done := make(chan bool, 1)
	go func() { done <- co.Offload(context.Background(), work, nil) }()
	a := claimOne(t, co, worker)
	// Hold the lease for 4 TTLs via heartbeats — it must never expire.
	for i := 0; i < 10; i++ {
		time.Sleep(20 * time.Millisecond)
		if _, err := co.Heartbeat(worker, a.Lease); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	if _, err := co.Complete(worker, a.Lease, work.Key, pushArtifact(t, rs, work)); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if !<-done {
		t.Fatal("offload fell back")
	}
	if s := co.Stats(); s.Expired != 0 {
		t.Fatalf("lease expired despite heartbeats: %+v", s)
	}
}

func TestHeartbeatUnknownLease(t *testing.T) {
	co := fleet.New(fastOpts(), newStore(t))
	defer co.Close()
	worker := register(t, co)
	if _, err := co.Heartbeat(worker, "L42"); !errors.Is(err, fleet.ErrUnknownLease) {
		t.Fatalf("heartbeat on unknown lease: %v", err)
	}
	if _, err := co.Heartbeat("W404", "L42"); !errors.Is(err, fleet.ErrUnknownWorker) {
		t.Fatalf("heartbeat from unknown worker: %v", err)
	}
}

func TestCloseUnblocksEverything(t *testing.T) {
	co := fleet.New(fastOpts(), newStore(t))
	worker := register(t, co)
	work := makeWork(t, 110, "google-gke-cpu", "quicksilver", []int{2}, 1)
	done := make(chan bool, 1)
	go func() { done <- co.Offload(context.Background(), work, nil) }()
	claimed := make(chan error, 1)
	go func() {
		// Loop until an error: the first claim takes the published unit,
		// later ones park (or churn through its expiry requeues) until the
		// close surfaces as ErrClosed.
		for {
			if _, err := co.Claim(context.Background(), worker, 30*time.Second); err != nil {
				claimed <- err
				return
			}
		}
	}()
	// Both a waiting offload and a parked claim must unblock promptly.
	time.Sleep(20 * time.Millisecond)
	co.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("offload succeeded through a close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("offload still blocked after Close")
	}
	select {
	case err := <-claimed:
		if !errors.Is(err, fleet.ErrClosed) {
			t.Fatalf("parked claim returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("claim still parked after Close")
	}
	if _, err := co.Register("late", "test"); !errors.Is(err, fleet.ErrClosed) {
		t.Fatalf("register after close: %v", err)
	}
}

func TestOffloadContextCancellation(t *testing.T) {
	co := fleet.New(fastOpts(), newStore(t))
	defer co.Close()
	register(t, co)
	work := makeWork(t, 111, "google-gke-cpu", "single-node", []int{2}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() { done <- co.Offload(ctx, work, nil) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("cancelled offload reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("offload ignored context cancellation")
	}
}

// TestStudyByteIdentity is the tentpole guarantee end to end: a study
// whose units were all computed by a remote worker produces the exact
// bytes of a plain local run — records and trace alike.
func TestStudyByteIdentity(t *testing.T) {
	spec := func() *core.StudySpec {
		return &core.StudySpec{
			Seed:       880777,
			Envs:       []string{"google-gke-cpu", "aws-eks-cpu"},
			Scales:     []int{2, 4},
			Iterations: 2,
			Workers:    4,
		}
	}

	// Reference: plain local run, its own store, no fleet.
	local, err := (&core.Runner{Store: newStore(t)}).Run(context.Background(), spec())
	if err != nil {
		t.Fatal(err)
	}

	// Fleet run: separate store, a coordinator, and one honest in-process
	// worker.
	rs := newStore(t)
	co := fleet.New(fastOpts(), rs)
	defer co.Close()
	worker := register(t, co)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			a, err := co.Claim(ctx, worker, 50*time.Millisecond)
			if err != nil {
				return // closed or cancelled
			}
			if a == nil {
				if ctx.Err() != nil {
					return
				}
				continue
			}
			files, err := core.ComputeUnitFiles(a.Work)
			if err != nil {
				co.Nack(worker, a.Lease, err.Error())
				continue
			}
			dig, err := rs.Registry().Push("staging/"+a.Work.Key, dataset.UnitArtifactType, files, nil)
			if err != nil {
				co.Nack(worker, a.Lease, err.Error())
				continue
			}
			if _, err := co.Complete(worker, a.Lease, a.Work.Key, string(dig)); err != nil {
				t.Errorf("complete: %v", err)
			}
		}
	}()

	// A different worker count (the executor is byte-identical across
	// them) over a cold store: every unit goes to the fleet.
	remoteSpec := spec()
	remoteSpec.Workers = 3
	remote, err := (&core.Runner{Store: rs, Fleet: co}).Run(context.Background(), remoteSpec)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()

	if s := co.Stats(); s.Completed == 0 {
		t.Fatalf("no units completed remotely — the fleet path never ran: %+v", s)
	}

	localRecs, err := dataset.MarshalJSONL(local.Records())
	if err != nil {
		t.Fatal(err)
	}
	remoteRecs, err := dataset.MarshalJSONL(remote.Records())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(localRecs, remoteRecs) {
		t.Fatalf("fleet-computed study differs from local run:\nlocal  %d bytes\nremote %d bytes", len(localRecs), len(remoteRecs))
	}
	localTrace, err := local.Log.MarshalJSONL()
	if err != nil {
		t.Fatal(err)
	}
	remoteTrace, err := remote.Log.MarshalJSONL()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(localTrace, remoteTrace) {
		t.Fatal("fleet-computed study trace differs from local run")
	}
}

// fleetGoroutines is the goleak-style probe from internal/rpc: count
// live goroutines running module code, excluding test frames.
func fleetGoroutines() int {
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

func assertNoFleetGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := fleetGoroutines(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d module goroutines, baseline %d\n%s", fleetGoroutines(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCoordinatorChurn hammers the lease table from every side at once
// — offloads, claims, heartbeats, completes, nacks, worker churn — and
// then closes it mid-flight. Run with -race; afterwards no coordinator
// goroutine may survive.
func TestCoordinatorChurn(t *testing.T) {
	baseline := fleetGoroutines()
	rs := newStore(t)
	opts := fastOpts()
	opts.LeaseTTL = 20 * time.Millisecond
	opts.Straggler = 2 * time.Second
	co := fleet.New(opts, rs)

	const offloaders = 8
	const workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup

	// Pre-stage honest artifacts so worker loops can complete instantly.
	works := make([]core.UnitWork, offloaders)
	manifests := make([]string, offloaders)
	byKey := make(map[string]string, offloaders)
	envs := []string{"google-gke-cpu", "aws-eks-cpu", "azure-aks-cpu"}
	appsList := []string{"lammps", "osu", "minife", "kripke"}
	for i := range works {
		works[i] = makeWork(t, uint64(900+i), envs[i%len(envs)], appsList[i%len(appsList)], []int{2}, 1)
		manifests[i] = pushArtifact(t, rs, works[i])
		byKey[works[i].Key] = manifests[i]
	}

	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg, err := co.Register(fmt.Sprintf("churn-%d", w), "test")
			if err != nil {
				return
			}
			for i := 0; ; i++ {
				a, err := co.Claim(ctx, reg.Worker, 20*time.Millisecond)
				if err != nil || ctx.Err() != nil {
					return
				}
				if a == nil {
					continue
				}
				switch i % 3 {
				case 0: // abandon: let the lease expire
				case 1:
					co.Nack(reg.Worker, a.Lease, "churn")
				default:
					co.Heartbeat(reg.Worker, a.Lease)
					co.Complete(reg.Worker, a.Lease, a.Work.Key, byKey[a.Work.Key])
				}
			}
		}()
	}

	for i := 0; i < offloaders; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each offloader publishes its unit repeatedly: after a fallback
			// (attempt cap) the key was dropped, so the next round restarts.
			for round := 0; round < 3 && ctx.Err() == nil; round++ {
				co.Offload(ctx, works[i], nil)
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	co.Close()
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("churn goroutines did not unwind after Close")
	}
	co.Stats() // must not race or panic post-close
	assertNoFleetGoroutineLeak(t, baseline)
}
