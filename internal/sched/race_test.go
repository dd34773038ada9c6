//go:build race

package sched

// raceEnabled gates the AllocsPerRun ceiling: race instrumentation adds
// allocations of its own, so the hard per-op ceiling only holds in
// non-race runs.
const raceEnabled = true
