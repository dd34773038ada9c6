package report

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"cloudhpc/internal/core"
)

func TestMarkdownReportComplete(t *testing.T) {
	res, err := (&core.Runner{}).Run(context.Background(), core.DefaultSpec(77))
	if err != nil {
		t.Fatal(err)
	}
	md, err := Markdown(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## Usability (Table 3)",
		"## AMG2023 costs (Table 4)",
		"## Study spend (§3.4)",
		"Figure 1 — Kripke",
		"Figure 4b — LAMMPS (GPU)",
		"## Hookup times (§3.2)",
		"## GPU fleet audit (§3.3)",
		"supermarket fish",
		"## Failed runs",
		"| azure-aks-cpu |", // a Table 3 row
		"laghos",            // a known failure
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Markdown tables must be well-formed: every table row line starts
	// and ends with a pipe.
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(line, "|") && !strings.HasSuffix(line, "|") {
			t.Fatalf("malformed table row: %q", line)
		}
	}
	if len(md) < 5000 {
		t.Fatalf("report suspiciously short: %d bytes", len(md))
	}
}

// TestMarkdownAllocs pins the render's cost on the canonical study. The
// render runs on every report request, warm re-renders from the store
// included, so a derivation that rebuilds shared state per run record
// shows here as a multiple of this ceiling, not a percent.
func TestMarkdownAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are off under -race")
	}
	res, err := (&core.Runner{}).Run(context.Background(), core.DefaultSpec(2025))
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 10000
	got := testing.AllocsPerRun(5, func() {
		if _, err := Markdown(res); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("Markdown on seed 2025 allocates %.0f/op, want <= %d", got, ceiling)
	}
}

// TestMarkdownAllocsBytes pins the render's bytes on the canonical
// study. Table 3 is scored in one pass over the trace; copying each
// environment's events out of the log first cost about 660 KB a render.
func TestMarkdownAllocsBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are off under -race")
	}
	res, err := (&core.Runner{}).Run(context.Background(), core.DefaultSpec(2025))
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 400 << 10
	got := bytesPerRun(5, func() {
		if _, err := Markdown(res); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Markdown on seed 2025 allocates %.0f bytes/op", got)
	if got > ceiling {
		t.Errorf("Markdown on seed 2025 allocates %.0f bytes/op, want <= %d", got, ceiling)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
