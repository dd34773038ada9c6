package sim

import (
	"testing"
	"time"
)

// Allocation-regression pins for the draw helpers: application models
// call them once per simulated run, so any allocation here multiplies
// across the whole study. The scalar draws must stay pure arithmetic,
// and PermInto must reuse a caller buffer instead of growing.

func TestDrawHelperAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are off under -race")
	}
	s := NewStream(42, "alloc-test")
	if got := testing.AllocsPerRun(200, func() {
		_ = s.Float64()
		_ = s.Intn(97)
		_ = s.Uniform(1, 2)
		_ = s.Normal(10, 2)
		_ = s.LogNormal(0, 0.5)
		_ = s.Jitter(100, 0.05)
		_ = s.Bernoulli(0.3)
	}); got > 0 {
		t.Errorf("scalar draw helpers allocate %.1f/op, want 0", got)
	}
}

func TestPermIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are off under -race")
	}
	s := NewStream(42, "alloc-test")
	buf := make([]int, 256)
	if got := testing.AllocsPerRun(100, func() { buf = s.PermInto(buf, 256) }); got > 0 {
		t.Errorf("PermInto with a full-size buffer allocates %.1f/op, want 0", got)
	}
}

// counter is a pointer Action, the shape of a type that is its own
// pending event.
type counter struct{ fired int }

func (c *counter) Fire() { c.fired++ }

// TestPointerActionAllocs pins the event path every simulated job takes:
// once the freelist holds an Event, scheduling a pointer Action and
// firing it allocate nothing.
func TestPointerActionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are off under -race")
	}
	s := New(42)
	c := &counter{}
	s.After(time.Second, c)
	s.Run() // warms the freelist
	if got := testing.AllocsPerRun(200, func() {
		s.After(time.Second, c)
		s.Run()
	}); got > 0 {
		t.Errorf("scheduling and firing a pointer Action allocates %.1f/op, want 0", got)
	}
	if c.fired != 202 { // the warm-up above, AllocsPerRun's own, and 200 runs
		t.Errorf("the action fired %d times, want 202", c.fired)
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	// The reuse form must draw the exact same sequence as Perm — the
	// permutation order feeds the study's sampled tables, so any drift
	// here is an output-determinism break, not just a perf change.
	a := NewStream(7, "perm")
	b := NewStream(7, "perm")
	buf := make([]int, 0, 64)
	for _, n := range []int{1, 2, 17, 64} {
		want := a.Perm(n)
		buf = b.PermInto(buf, n)
		if len(want) != len(buf) {
			t.Fatalf("n=%d: length mismatch %d vs %d", n, len(want), len(buf))
		}
		for i := range want {
			if want[i] != buf[i] {
				t.Fatalf("n=%d: PermInto diverges from Perm at index %d: %d vs %d", n, i, buf[i], want[i])
			}
		}
	}
}

func BenchmarkStreamDraws(b *testing.B) {
	s := NewStream(42, "bench")
	perm := make([]int, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Jitter(100, 0.05)
		_ = s.LogNormal(0, 0.5)
		_ = s.Bernoulli(0.3)
		_ = s.Intn(97)
		perm = s.PermInto(perm, 64)
	}
}
