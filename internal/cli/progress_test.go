package cli

import (
	"context"
	"errors"
	"flag"
	"strings"
	"testing"

	"cloudhpc/internal/core"
)

// TestProgressRendersSessionFeed drives the shared renderer with a real
// (small) 1-worker Runner session and pins its exact feed: the plan size
// (two environment tasks plus 22 unit tasks), one started and one done
// line per environment with the plan counts of the stream at that point,
// and the closing complete line.
func TestProgressRendersSessionFeed(t *testing.T) {
	t.Parallel()
	spec := &core.StudySpec{Seed: 550001, Envs: []string{"google-gke-cpu", "onprem-a-cpu"}, Scales: []int{2}, Iterations: 1, Workers: 1}
	sess, err := (&core.Runner{}).Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	drain := Progress(&b, sess)
	if _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	drain()
	// Matrix order puts onprem-a-cpu first. An environment's done line
	// lands before its own task is counted: progress follows env-finished.
	const want = `study: started — 24 work units planned
  env onprem-a-cpu               started
  env onprem-a-cpu               done        [ 92% — 22/24 units]
  env google-gke-cpu             started
  env google-gke-cpu             done        [ 96% — 23/24 units]
study: complete — 24/24 work units
`
	if got := b.String(); got != want {
		t.Fatalf("progress feed:\n%s\nwant:\n%s", got, want)
	}
}

// TestProgressReportsCancellation: an interrupted session renders the
// cancelled line, and IsInterrupt classifies its error.
func TestProgressReportsCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	spec := &core.StudySpec{Seed: 550002, Workers: 1}
	sess, err := (&core.Runner{}).Start(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	drain := Progress(&b, sess)
	cancel()
	_, err = sess.Wait()
	drain()
	if !IsInterrupt(err) {
		t.Fatalf("Wait after cancel = %v, want an interrupt error", err)
	}
	if !strings.Contains(b.String(), "study: cancelled") && !strings.Contains(b.String(), "study: started") {
		// The cancel may land before the executor emits anything; the feed
		// must at least not claim completion.
		t.Logf("feed: %q", b.String())
	}
	if strings.Contains(b.String(), "study: complete") {
		t.Fatalf("cancelled session rendered a completion line:\n%s", b.String())
	}
	if errors.Is(err, nil) {
		t.Fatal("unreachable")
	}
}

// TestProgressFlagParses pins the -progress flag's accepted values.
func TestProgressFlagParses(t *testing.T) {
	t.Parallel()
	for val, want := range map[string]bool{"on": true, "off": false} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := Register(fs, "")
		if err := fs.Parse([]string{"-progress", val}); err != nil {
			t.Fatal(err)
		}
		if got := f.progressOn(); got != want {
			t.Errorf("-progress %s: progressOn = %v, want %v", val, got, want)
		}
	}
	// auto under a test harness: stderr is not a terminal.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.progressOn() {
		t.Error("auto should disable the feed when stderr is not a terminal")
	}
}
