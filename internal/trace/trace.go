// Package trace records the structured event log of a study run. Every
// substrate appends events — cluster provisioning steps, scheduler actions,
// container builds, debugging incidents — and the usability engine later
// folds the log into the qualitative effort scores of the paper's Table 3.
//
// A Log is safe for concurrent use: all methods take an internal mutex, so
// parallel experiment runners may share one instance. The concurrent study
// executor in package core instead gives every environment shard a private
// Log and stitches the shards together afterwards with AppendShifted, which
// both preserves per-environment event order and keeps the merged transcript
// independent of goroutine scheduling.
package trace

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Category classifies an event into one of the paper's four usability
// assessment categories (paper §2.5), plus bookkeeping categories that do
// not contribute to effort scoring.
type Category string

const (
	// Setup covers testing, deployment, and configuration of an environment.
	Setup Category = "setup"
	// Development covers extra engineering needed to make an environment
	// work at all (custom daemonsets, tool patches, Terraform work).
	Development Category = "development"
	// AppSetup covers building containers, images, and run parameters.
	AppSetup Category = "application-setup"
	// Manual covers interactions and monitoring needed mid-study.
	Manual Category = "manual-intervention"
	// Info events are bookkeeping and never count toward effort.
	Info Category = "info"
	// Billing events record spend; they never count toward effort.
	Billing Category = "billing"
)

// Severity grades how much human effort an event represents.
type Severity int

const (
	// Routine: the documented procedure worked.
	Routine Severity = iota
	// Unexpected: something needed debugging or a workaround.
	Unexpected
	// Blocking: significant development effort or an aborted attempt.
	Blocking
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case Routine:
		return "routine"
	case Unexpected:
		return "unexpected"
	case Blocking:
		return "blocking"
	default:
		return "severity(" + strconv.Itoa(int(s)) + ")"
	}
}

// Event is one entry in the study log.
type Event struct {
	At       time.Duration // virtual time
	Env      string        // environment key, e.g. "aws-eks-gpu"
	Category Category
	Severity Severity
	Msg      string
	Cost     float64 // direct dollar cost attributable to the event, if any
}

// Log is an append-only event log. It is safe for concurrent use so that
// parallel experiment runners can share one log.
type Log struct {
	mu     sync.Mutex
	events []Event
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Add appends an event.
func (l *Log) Add(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

// Addf appends an event with a formatted message and no cost.
func (l *Log) Addf(at time.Duration, env string, cat Category, sev Severity, format string, args ...any) {
	l.Add(Event{At: at, Env: env, Category: cat, Severity: sev, Msg: fmt.Sprintf(format, args...)})
}

// AppendShifted appends every event of src with its timestamp shifted
// forward by shift. It is the merge half of sharded study execution: each
// environment shard records into a private log on its own virtual timeline
// starting at zero, and the merger lays the shards end to end by passing
// the accumulated duration of all earlier shards as shift. src is read via
// its own lock, so a quiescent shard log may be merged while other shards
// are still writing to theirs. The destination grows exactly once and the
// shift is applied as the events are copied in — no intermediate copy of
// src is taken.
func (l *Log) AppendShifted(src *Log, shift time.Duration) {
	events := src.snapshot()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = slices.Grow(l.events, len(events))
	for _, e := range events {
		e.At += shift
		l.events = append(l.events, e)
	}
}

// Reserve grows the log's capacity so at least n more events can be added
// without reallocating. The study merge calls it with the exact event
// total of its shards; a shard's own log grows by append, since no
// estimate made before a shard runs comes close to what it records.
func (l *Log) Reserve(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = slices.Grow(l.events, n)
}

// snapshot returns the current events without copying. The log is
// append-only and no method mutates a published element in place, so the
// prefix returned here is immutable: later Adds may only write beyond its
// length (the capacity is clipped so appends by the caller cannot either).
// This is the read path every accessor shares; only the exported Events
// pays for a defensive copy.
func (l *Log) snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events[:len(l.events):len(l.events)]
}

// All calls yield for every event in insertion order, stopping early if
// yield returns false. It reads a locked snapshot and holds no lock while
// iterating, so yield may itself use the log.
func (l *Log) All(yield func(Event) bool) {
	for _, e := range l.snapshot() {
		if !yield(e) {
			return
		}
	}
}

// Events returns a copy of all events in insertion order.
func (l *Log) Events() []Event {
	snap := l.snapshot()
	out := make([]Event, len(snap))
	copy(out, snap)
	return out
}

// Len reports the number of events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// ByEnv returns events for one environment, in insertion order.
func (l *Log) ByEnv(env string) []Event {
	var out []Event
	for _, e := range l.snapshot() {
		if e.Env == env {
			out = append(out, e)
		}
	}
	return out
}

// Filter returns events matching the predicate, in insertion order.
func (l *Log) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, e := range l.snapshot() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// Envs returns the sorted set of environment keys present in the log.
func (l *Log) Envs() []string {
	set := map[string]bool{}
	for _, e := range l.snapshot() {
		if e.Env != "" {
			set[e.Env] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TotalCost sums the Cost field of every event, optionally restricted to a
// single environment ("" means all).
func (l *Log) TotalCost(env string) float64 {
	var sum float64
	for _, e := range l.snapshot() {
		if env == "" || e.Env == env {
			sum += e.Cost
		}
	}
	return sum
}

// Render formats the log as a human-readable transcript, one event per
// line. The layout is hand-built but byte-identical to the historical
// fmt form "%10s  %-24s %-20s %-10s %s" (plus " ($%.2f)" when a cost is
// attached): fmt's %Ns pads with spaces and never truncates.
func (l *Log) Render() string {
	events := l.snapshot()
	var b strings.Builder
	size := 0
	for _, e := range events {
		size += 64 + len(e.Env) + len(e.Msg)
	}
	b.Grow(size)
	for _, e := range events {
		at := e.At.String()
		for i := len(at); i < 10; i++ {
			b.WriteByte(' ')
		}
		b.WriteString(at)
		b.WriteString("  ")
		writePadded(&b, e.Env, 24)
		writePadded(&b, string(e.Category), 20)
		writePadded(&b, e.Severity.String(), 10)
		b.WriteString(e.Msg)
		if e.Cost != 0 {
			b.WriteString(" ($")
			b.Write(strconv.AppendFloat(make([]byte, 0, 16), e.Cost, 'f', 2, 64))
			b.WriteString(")")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// writePadded writes s left-justified in a field of width w, followed by
// a single separating space (the literal space between fmt verbs above).
func writePadded(b *strings.Builder, s string, w int) {
	b.WriteString(s)
	for i := len(s); i < w; i++ {
		b.WriteByte(' ')
	}
	b.WriteByte(' ')
}
