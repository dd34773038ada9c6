package cloud

import (
	"fmt"
	"time"

	"cloudhpc/internal/sim"
	"cloudhpc/internal/trace"
)

// Autoscaler is the *active* counterpart to the cost formulas in
// autoscale.go: an event-driven controller that grows a worker pool when
// demand appears and shrinks it after idleness, paying real provisioning
// latency and billing real node-hours. It reproduces the §4.1 dynamics —
// a small persistent head, workers that lag demand by the scale-up
// delay, and the cost of nodes going up and down relative to the work.
type Autoscaler struct {
	sim   *sim.Simulation
	log   *trace.Log
	meter *Meter
	env   string
	itype InstanceType

	// MinWorkers/MaxWorkers bound the pool (head node excluded).
	MinWorkers int
	MaxWorkers int
	// ScaleUpDelay is the provisioning latency for new workers.
	ScaleUpDelay time.Duration
	// IdleTimeout is how long a surplus worker lingers before removal.
	IdleTimeout time.Duration

	workers   int
	pending   int // workers currently booting
	demand    int
	lastBusy  time.Duration
	opsUp     int
	opsDown   int
	idleCheck bool
}

// NewAutoscaler creates a controller billing against the meter.
func NewAutoscaler(s *sim.Simulation, log *trace.Log, meter *Meter, env string, it InstanceType) *Autoscaler {
	return &Autoscaler{
		sim: s, log: log, meter: meter, env: env, itype: it,
		MaxWorkers: 256, ScaleUpDelay: 5 * time.Minute, IdleTimeout: 10 * time.Minute,
	}
}

// Workers reports ready workers; Pending reports workers still booting.
func (a *Autoscaler) Workers() int { return a.workers }
func (a *Autoscaler) Pending() int { return a.pending }

// Ops reports (scale-up, scale-down) operation counts — the §4.1 metric
// to minimize.
func (a *Autoscaler) Ops() (up, down int) { return a.opsUp, a.opsDown }

// SetDemand tells the controller how many workers the queue currently
// needs; it reacts by scaling up (with delay) or arming the idle timer.
func (a *Autoscaler) SetDemand(n int) error {
	if n < 0 {
		return fmt.Errorf("cloud: negative demand %d", n)
	}
	a.demand = n
	a.reconcile()
	return nil
}

// reconcile drives the pool toward the demand.
func (a *Autoscaler) reconcile() {
	want := a.demand
	if want < a.MinWorkers {
		want = a.MinWorkers
	}
	if want > a.MaxWorkers {
		want = a.MaxWorkers
	}
	switch {
	case a.workers+a.pending < want:
		add := want - a.workers - a.pending
		a.pending += add
		a.opsUp++
		a.log.Addf(a.sim.Now(), a.env, trace.Info, trace.Routine,
			"autoscaler: scaling up by %d workers (op %d)", add, a.opsUp)
		a.sim.After(a.ScaleUpDelay, func() {
			// Bill boot time: nodes charge from request, not readiness.
			a.meter.ChargeNodeHours(a.env, a.itype, add, a.ScaleUpDelay, "worker boot")
			a.pending -= add
			a.workers += add
		})
	case a.workers > want:
		a.lastBusy = a.sim.Now()
		if !a.idleCheck {
			a.idleCheck = true
			a.armIdleTimer()
		}
	}
}

// armIdleTimer schedules the scale-down check.
func (a *Autoscaler) armIdleTimer() {
	a.sim.After(a.IdleTimeout, func() {
		a.idleCheck = false
		want := a.demand
		if want < a.MinWorkers {
			want = a.MinWorkers
		}
		if a.workers > want && a.sim.Now()-a.lastBusy >= a.IdleTimeout {
			drop := a.workers - want
			// Idle lingering bills too.
			a.meter.ChargeNodeHours(a.env, a.itype, drop, a.IdleTimeout, "idle lingering before scale-down")
			a.workers = want
			a.opsDown++
			a.log.Addf(a.sim.Now(), a.env, trace.Info, trace.Routine,
				"autoscaler: scaled down by %d workers (op %d)", drop, a.opsDown)
		} else if a.workers > want {
			a.idleCheck = true
			a.armIdleTimer()
		}
	})
}

// RunBusy bills d of work on n workers (the caller's job accounting).
func (a *Autoscaler) RunBusy(n int, d time.Duration) error {
	if n > a.workers {
		return fmt.Errorf("cloud: %d workers busy but only %d ready", n, a.workers)
	}
	a.meter.ChargeNodeHours(a.env, a.itype, n, d, "busy workers")
	a.lastBusy = a.sim.Now() + d
	return nil
}
