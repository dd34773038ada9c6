package cloud

import (
	"testing"
	"time"

	"cloudhpc/internal/sim"
	"cloudhpc/internal/trace"
)

func newAS(seed uint64) (*sim.Simulation, *Meter, *Autoscaler) {
	s := sim.New(seed)
	log := trace.NewLog()
	meter := NewMeter(s, log)
	it := InstanceType{Name: "Hpc6a", Provider: AWS, HourlyUSD: 2.88}
	return s, meter, NewAutoscaler(s, log, meter, "aws-autoscale", it)
}

func TestScaleUpPaysDelayAndMoney(t *testing.T) {
	t.Parallel()
	s, meter, as := newAS(1)
	if err := as.SetDemand(16); err != nil {
		t.Fatal(err)
	}
	if as.Workers() != 0 || as.Pending() != 16 {
		t.Fatalf("workers should boot asynchronously: %d/%d", as.Workers(), as.Pending())
	}
	s.Run()
	if as.Workers() != 16 || as.Pending() != 0 {
		t.Fatalf("after boot: %d/%d", as.Workers(), as.Pending())
	}
	if s.Now() != as.ScaleUpDelay {
		t.Fatalf("scale-up took %v", s.Now())
	}
	if meter.Spend(AWS) == 0 {
		t.Fatalf("boot time must bill")
	}
}

func TestScaleDownAfterIdleTimeout(t *testing.T) {
	t.Parallel()
	s, _, as := newAS(2)
	as.SetDemand(8)
	s.Run()
	as.SetDemand(0)
	s.Run()
	if as.Workers() != 0 {
		t.Fatalf("idle workers should be removed: %d left", as.Workers())
	}
	up, down := as.Ops()
	if up != 1 || down != 1 {
		t.Fatalf("ops = %d up / %d down", up, down)
	}
}

func TestMinWorkersFloor(t *testing.T) {
	t.Parallel()
	s, _, as := newAS(3)
	as.MinWorkers = 1 // the persistent head
	as.SetDemand(4)
	s.Run()
	as.SetDemand(0)
	s.Run()
	if as.Workers() != 1 {
		t.Fatalf("head should survive scale-down: %d", as.Workers())
	}
}

func TestMaxWorkersCap(t *testing.T) {
	t.Parallel()
	s, _, as := newAS(4)
	as.MaxWorkers = 10
	as.SetDemand(500)
	s.Run()
	if as.Workers() != 10 {
		t.Fatalf("cap ignored: %d", as.Workers())
	}
}

func TestDemandDuringBootCoalesces(t *testing.T) {
	t.Parallel()
	s, _, as := newAS(5)
	as.SetDemand(4)
	as.SetDemand(8) // more demand while the first batch boots
	s.Run()
	if as.Workers() != 8 {
		t.Fatalf("workers = %d, want 8", as.Workers())
	}
	up, _ := as.Ops()
	if up != 2 {
		t.Fatalf("two scale-up operations expected, got %d", up)
	}
}

func TestBusyWorkDefersScaleDown(t *testing.T) {
	t.Parallel()
	s, _, as := newAS(6)
	as.SetDemand(4)
	s.Run()
	if err := as.RunBusy(4, 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	as.SetDemand(0)
	midway := -1 // workers halfway through the idle timeout
	s.After(as.IdleTimeout/2, sim.Func(func() { midway = as.Workers() }))
	s.Run()
	if midway <= 0 {
		t.Fatalf("scale-down before the idle timeout: %d workers halfway through it", midway)
	}
	if as.Workers() != 0 {
		t.Fatalf("eventually idle workers must go: %d", as.Workers())
	}
}

func TestRunBusyRejectsOversubscription(t *testing.T) {
	t.Parallel()
	s, _, as := newAS(7)
	as.SetDemand(2)
	s.Run()
	if err := as.RunBusy(5, time.Minute); err == nil {
		t.Fatalf("cannot run on more workers than exist")
	}
	if err := as.SetDemand(-1); err == nil {
		t.Fatalf("negative demand accepted")
	}
}

func TestAutoscalerChurnCostVsStatic(t *testing.T) {
	t.Parallel()
	// §4.1 quantified: frequent small batches make the autoscaler pay
	// boot + idle-linger per batch; a static pool pays constant uptime.
	// For dense work the static pool wins; the formulas in autoscale.go
	// agree with the event-driven controller's accounting.
	s, meter, as := newAS(8)
	as.MinWorkers = 0
	for batch := 0; batch < 4; batch++ {
		as.SetDemand(8)
		s.Run()
		as.RunBusy(8, 10*time.Minute)
		s.Clock.Advance(10 * time.Minute)
		as.SetDemand(0)
		s.Run()
	}
	churn := meter.Spend(AWS)
	// Static equivalent: 8 nodes held for the whole span.
	static := 8.0 * s.Now().Hours() * 2.88
	if churn <= static*0.5 {
		t.Fatalf("dense batches should make churn comparable to static: $%.2f vs $%.2f", churn, static)
	}
	up, down := as.Ops()
	if up != 4 || down != 4 {
		t.Fatalf("ops = %d/%d, want 4/4", up, down)
	}
}
