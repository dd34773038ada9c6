//go:build race

package dataset

// raceEnabled gates the AllocsPerRun regression tests: race
// instrumentation allocates per memory access, so allocation bounds
// only hold in normal builds.
const raceEnabled = true
