package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(v, n=4).
	for _, tc := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 1.2, 5.5}, 1.2, 3.1, 5.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 4, 2, 3, 9, 7, 8, 6}, 2.5, 5, 7.5},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.v, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", m)
	}
}

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // unsorted on purpose
	}
	return v
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if _, err := tailPercentile(seq(199), 0.95); err == nil {
		t.Error("p95 of 199 samples has only 9 beyond it and must be refused")
	}
	p, err := tailPercentile(seq(200), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if p != 190 { // nearest rank: the 190th of 1..200, with 10 above it
		t.Errorf("p95 of 1..200 = %v, want 190", p)
	}
	if _, err := tailPercentile(seq(999), 0.99); err == nil {
		t.Error("p99 needs N >= 1000")
	}
}

func scaled(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

func TestVerdicts(t *testing.T) {
	parent := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.5, 99.5}
	for _, tc := range []struct {
		name   string
		change []float64
		lower  bool
		bound  float64
		want   string
	}{
		{"same runs", parent, true, 0.1, unchanged},
		{"every pair won by 5%", scaled(parent, 0.95), true, 0.1, improved},
		{"higher is better", scaled(parent, 1.05), false, 0.1, improved},
		{"20% slower", scaled(parent, 1.2), true, 0.1, regressed},
		{"5% slower, inside the bound", scaled(parent, 1.05), true, 0.1, unchanged},
		{"no bound: mirrored gain rule", scaled(parent, 1.05), true, 0, regressed},
		// Eight pair wins of ten are not enough for a gain.
		{"8 of 10 wins", []float64{90, 90, 90, 90, 90, 90, 90, 90, 102, 102}, true, 0.1, unchanged},
		// A 1% gap on every pair sits inside the parent's IQR (1.0).
		{"gap inside the IQR", scaled(parent, 0.995), true, 0.1, unchanged},
	} {
		if got := compareMetric(parent, tc.change, tc.lower, tc.bound).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}

	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if got := compareMetric(noisy, noisy, true, 0.1).verdict; got != unresolved {
		t.Errorf("a spread of %.0f%% against a 10%% bound: verdict %s, want unresolved",
			100*(quartile3(noisy)-quartile1(noisy))/median(noisy), got)
	}
	if got := compareMetric(noisy, scaled(noisy, 1.5), true, 0.1).verdict; got != regressed {
		t.Errorf("a median 50%% worse under a 10%% bound, however noisy: verdict %s, want regressed", got)
	}
	better := scaled(noisy, 0.5)
	for i := range better {
		better[i] = math.Min(better[i], 59)
	}
	if got := compareMetric(noisy, better, true, 0.1).verdict; got != improved {
		t.Errorf("every change run below every parent run: verdict %s, want improved", got)
	}
}

func quartile1(v []float64) float64 { q, _, _ := quartiles(v); return q }
func quartile3(v []float64) float64 { _, _, q := quartiles(v); return q }

// The calibration must not allocate: it runs between measured requests
// and would otherwise hand the program's collector extra work.
func TestCalibrationDoesNotAllocate(t *testing.T) {
	s := calibStates[0]
	if n := testing.AllocsPerRun(3, func() { s.work() }); n != 0 {
		t.Errorf("calibration work allocates %v times per run", n)
	}
	t.Logf("calibration sample: %.2f ms", calibrate(15))
}
