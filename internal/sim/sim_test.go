package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	t.Parallel()
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock should start at 0, got %v", c.Now())
	}
	c.Advance(5 * time.Second)
	if c.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", c.Now())
	}
	c.AdvanceTo(7 * time.Second)
	if c.Now() != 7*time.Second {
		t.Fatalf("Now = %v, want 7s", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("Reset did not zero the clock")
	}
}

func TestClockPanicsOnBackwards(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on negative advance")
		}
	}()
	var c Clock
	c.Advance(-time.Second)
}

func TestClockPanicsOnAdvanceToPast(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on AdvanceTo into the past")
		}
	}()
	var c Clock
	c.Advance(time.Minute)
	c.AdvanceTo(time.Second)
}

func TestEventQueueOrdering(t *testing.T) {
	t.Parallel()
	var q EventQueue
	var got []string
	q.Schedule(3*time.Second, Func(func() { got = append(got, "c") }))
	q.Schedule(1*time.Second, Func(func() { got = append(got, "a") }))
	q.Schedule(2*time.Second, Func(func() { got = append(got, "b") }))
	for {
		e := q.Pop()
		if e == nil {
			break
		}
		e.Action.Fire()
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEventQueueFIFOTieBreak(t *testing.T) {
	t.Parallel()
	var q EventQueue
	var got []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		q.Schedule(time.Second, Func(func() { got = append(got, name) }))
	}
	for e := q.Pop(); e != nil; e = q.Pop() {
		e.Action.Fire()
	}
	if got[0] != "first" || got[1] != "second" || got[2] != "third" {
		t.Fatalf("same-time events not FIFO: %v", got)
	}
}

func TestSimulationRun(t *testing.T) {
	t.Parallel()
	s := New(42)
	var fired []time.Duration
	s.After(2*time.Second, Func(func() { fired = append(fired, s.Now()) }))
	s.After(1*time.Second, Func(func() {
		fired = append(fired, s.Now())
		// Events may schedule further events.
		s.After(3*time.Second, Func(func() { fired = append(fired, s.Now()) }))
	}))
	n := s.Run()
	if n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	want := []time.Duration{1 * time.Second, 2 * time.Second, 4 * time.Second}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	t.Parallel()
	a := NewStream(99, "apps/lammps")
	b := NewStream(99, "apps/lammps")
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical (seed,name) diverged at draw %d", i)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	t.Parallel()
	a := NewStream(99, "apps/lammps")
	b := NewStream(99, "apps/kripke")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("differently named streams produced %d identical draws", same)
	}
}

func TestSimulationStreamIsStable(t *testing.T) {
	t.Parallel()
	s := New(7)
	first := s.Stream("x").Uint64()
	// Same name must return the same stream (continuing, not restarting).
	second := s.Stream("x").Uint64()
	if first == second {
		t.Fatalf("stream restarted instead of continuing")
	}
	fresh := NewStream(7, "x")
	if fresh.Uint64() != first {
		t.Fatalf("Simulation.Stream not derived from (seed, name)")
	}
}

func TestNormalMoments(t *testing.T) {
	t.Parallel()
	s := NewStream(123, "normal")
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("mean = %f, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("stddev = %f, want ~2", math.Sqrt(variance))
	}
}

func TestJitterNonNegative(t *testing.T) {
	t.Parallel()
	s := NewStream(5, "jitter")
	for i := 0; i < 10000; i++ {
		if v := s.Jitter(1.0, 5.0); v < 0 {
			t.Fatalf("Jitter returned negative value %f", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		s := NewStream(seed, "range")
		for i := 0; i < 100; i++ {
			v := s.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRange(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		s := NewStream(seed, "intn")
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 64)
		s := NewStream(seed, "perm")
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformBounds(t *testing.T) {
	t.Parallel()
	s := NewStream(11, "uniform")
	for i := 0; i < 10000; i++ {
		v := s.Uniform(3, 9)
		if v < 3 || v >= 9 {
			t.Fatalf("Uniform out of range: %f", v)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	t.Parallel()
	s := NewStream(13, "bern")
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatalf("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1.1) {
			t.Fatalf("Bernoulli(>1) returned false")
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	t.Parallel()
	s := NewStream(17, "lognormal")
	for i := 0; i < 10000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal returned non-positive %f", v)
		}
	}
}
