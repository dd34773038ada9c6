package main

// Timings on a shared VM drift with whatever else the host runs: on the
// 2-vCPU VM these numbers come from, one set of ten runs saw the same
// code's p50 vary by 36-47% (interquartile range over median) while a
// fixed calibration workload slowed by the same factor. So the benchmark
// times a calibration sample between requests and reports every timing
// at the reference host's speed: scaled by calibNominalMs over the
// calibration measured next to it. The calibration is standard-library
// code that never changes with the program, and it does not allocate, so
// it leaves the program's heap and collector exactly as it found them.

import (
	"crypto/sha256"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// calibNominalMs and calibNominalCPUMs are one calibration sample's wall
// and CPU time on the reference host (a quiet 2-vCPU Xeon at 2.0 GHz).
// Wall-clock timings are scaled by the wall time next to them, CPU times
// by the CPU time: when the host steals the VM's CPUs, wall times stretch
// and CPU times do not; when it contends for caches, both do.
const (
	calibNominalMs    = 6
	calibNominalCPUMs = 8
)

// calibState is one goroutine's calibration buffers, allocated once.
type calibState struct {
	vals, sorted []float64
	text         []byte
	counts       map[uint64]int
}

const calibVals = 20000

var calibStates = func() [2]*calibState {
	var out [2]*calibState
	for g := range out {
		s := &calibState{
			vals: make([]float64, calibVals), sorted: make([]float64, calibVals),
			text: make([]byte, 0, 32*calibVals), counts: make(map[uint64]int, 4096),
		}
		x := uint64(g + 1)
		for i := range s.vals {
			x = x*6364136223846793005 + 1442695040888963407
			s.vals[i] = float64(x>>11) / (1 << 40)
		}
		for k := uint64(0); k < 4096; k++ {
			s.counts[k] = 0
		}
		out[g] = s
	}
	return out
}()

// work formats every value as text, tallies the text's words in a map,
// sorts a copy of the values and hashes the text: the formatting,
// hashing, map and sort work a study request does, without allocating.
func (s *calibState) work() int {
	t := s.text[:0]
	for _, v := range s.vals {
		t = strconv.AppendFloat(t, v, 'g', -1, 64)
		t = append(t, ',')
	}
	s.text = t
	for i := 0; i+8 <= len(t); i += 8 {
		w := uint64(t[i]) | uint64(t[i+1])<<8 | uint64(t[i+2])<<16 | uint64(t[i+3])<<24 |
			uint64(t[i+4])<<32 | uint64(t[i+5])<<40 | uint64(t[i+6])<<48 | uint64(t[i+7])<<56
		s.counts[w%4096]++
	}
	copy(s.sorted, s.vals)
	slices.Sort(s.sorted)
	sum := sha256.Sum256(t)
	return int(sum[0]) + len(s.counts)
}

// calib is one calibration sample: wall time and the CPU time of the
// two threads that ran it, in ms.
type calib struct{ wall, cpu float64 }

// calibSample times the calibration work on two goroutines at once (the
// program's worker count), each locked to its thread so that the thread's
// CPU time is the work's alone.
func calibSample() calib {
	var cpu [2]time.Duration
	t := time.Now()
	var wg sync.WaitGroup
	for g, s := range calibStates {
		wg.Add(1)
		go func(g int, s *calibState) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			before := threadCPU()
			s.work()
			cpu[g] = threadCPU() - before
		}(g, s)
	}
	wg.Wait()
	return calib{wall: ms(time.Since(t)), cpu: ms(cpu[0] + cpu[1])}
}

// threadCPU is the calling thread's user plus system CPU time.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD, Linux
	var ru syscall.Rusage
	_ = syscall.Getrusage(rusageThread, &ru) // cannot fail for the calling thread
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrate is the median of reps calibration samples' wall times.
func calibrate(reps int) float64 {
	v := make([]float64, reps)
	for r := range v {
		v[r] = calibSample().wall
	}
	return median(v)
}
