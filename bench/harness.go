package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"cloudhpc/internal/core"
)

// config is one benchmark run.
type config struct {
	root     string // repository root: holds the golden file
	work     string // scratch directory for stores and plan files
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	setups   int // set-up repetitions; setup_s is their median
	// requests, when positive, stops the run after that many measured
	// requests instead of after seconds (the smoke test's 3).
	requests int
	// warmup, when positive, replaces the workload's warm-up count.
	warmup int
	// probeReps repeats each traced-run layer probe; its median is kept.
	probeReps int
	traceOut  string // traced run: where the spans are written ("" skips)
}

// minSamples keeps a timed run going past its seconds until p95 has
// minTail samples beyond it.
const minSamples = 200

// maxWindow bounds the measured window however slow the program is, so a
// run always ends well inside its time limit.
const maxWindow = 100 * time.Second

// workload is one set of inputs the benchmark runs: how many closed-loop
// callers drive it, its warm-up, and how to set it up.
type workload struct {
	name    string
	clients int
	warmup  int
	// epoch, when positive, restarts the workload's server and store after
	// that many requests (outside the measured time), so retained state is
	// bounded by the epoch, not by how fast the program runs.
	epoch int
	// block is how many requests a multi-caller workload serves between
	// two calibration samples; epoch must be a multiple of it.
	block int
	setup func(h *setupEnv) (instance, error)
}

// setupEnv is what a workload's set-up may use.
type setupEnv struct {
	cfg    *config
	dir    string // this set-up's own scratch directory
	tr     *tracer
	golden *core.Results // seed 2025, checked against the golden file
}

// instance is a workload ready to serve requests.
type instance interface {
	do(c *call) error
	// reset starts a fresh epoch (see workload.epoch).
	reset() error
	close()
}

// call is one request: its index, whether it is traced, and the
// measurements the workload fills in.
type call struct {
	i      int
	seed   uint64
	tr     *tracer // nil when the request is not traced
	root   int64   // root span ID when traced
	charge bool    // measure the timed region's CPU and allocations into use
	use    usage
	lat    time.Duration
	start  time.Time
	counts reqCounts
}

// reqCounts are the per-request observations a traced request reports.
type reqCounts struct {
	first       time.Duration // request start to the first session event
	events      int
	dropped     int64
	lines       int // rpc: event lines streamed
	bytes       int // rpc: bytes of those lines
	joined      bool
	missed      uint64
	unitHits    int64
	unitLookups int64
}

// rng returns the request's own random source: its inputs depend only on
// the run seed and the request index, never on which caller took it.
func (c *call) rng() *rand.Rand {
	return rand.New(rand.NewSource(int64(c.seed*1_000_003) ^ int64(c.i)))
}

// rotation is the seed's shuffled order of n inputs. Requests take their
// inputs from it in turn, so a run uses every input equally often and
// runs on different seeds differ in order only: a per-request mean then
// does not depend on which inputs a seed happened to draw.
func rotation(seed uint64, n int) []int {
	return rand.New(rand.NewSource(int64(seed))).Perm(n)
}

// timed runs the request's timed region: its wall time is the request
// latency, and on single-caller workloads its CPU and allocations are
// charged to the run.
func (c *call) timed(fn func() error) error {
	var before usage
	if c.charge {
		before = readUsage()
	}
	c.start = time.Now()
	err := fn()
	end := time.Now()
	c.lat = end.Sub(c.start)
	if c.charge {
		c.use = c.use.plus(readUsage().sub(before))
	}
	if c.tr != nil {
		c.tr.add(c.root, 0, c.i, "bench", "request", c.start, end)
	}
	return err
}

// usage is process resource use at one instant.
type usage struct {
	cpu            time.Duration
	alloc, mallocs uint64
	numGC          uint32
	pauseNs        uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

func (a usage) sub(b usage) usage {
	return usage{a.cpu - b.cpu, a.alloc - b.alloc, a.mallocs - b.mallocs, a.numGC - b.numGC, a.pauseNs - b.pauseNs}
}

func (a usage) plus(b usage) usage {
	return usage{a.cpu + b.cpu, a.alloc + b.alloc, a.mallocs + b.mallocs, a.numGC + b.numGC, a.pauseNs + b.pauseNs}
}

// rssSampler reads the process's resident set every rssPeriod while the
// measured requests run. A high percentile of these samples is the peak
// the requests need, without the run-to-run swing of the kernel's
// high-water mark, which catches whichever single moment the collector
// and the scavenger happened to leave the most memory mapped.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

const rssPeriod = 5 * time.Millisecond

func startRSS() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	page := float64(os.Getpagesize()) / 1e6
	go func() {
		defer close(s.done)
		defer f.Close()
		buf := make([]byte, 128)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			// statm is "size resident shared ...", in pages.
			n, _ := f.ReadAt(buf, 0) // io.EOF with the whole line read
			fields := bytes.Fields(buf[:n])
			if len(fields) < 2 {
				continue
			}
			if pages, err := strconv.ParseUint(string(fields[1]), 10, 64); err == nil {
				s.mb = append(s.mb, float64(pages)*page)
			}
		}
	}()
	return s, nil
}

// finish stops the sampler and returns its samples in MB.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.mb
}

// sample is one measured request.
type sample struct {
	i      int // request index: a traced request's spans carry it
	lat    time.Duration
	block  int // the calibration block the request ran in
	traced bool
	counts reqCounts
}

// block is one stretch of measured time between two calibration samples:
// its wall time and the CPU time charged to its requests.
type block struct {
	wall, cpu time.Duration
}

// calibWindow is how many calibration samples on each side of a block
// its scale is the median of: enough to ride out one sample that caught
// a burst of host activity, few enough to follow the host's slower
// swings.
const calibWindow = 4

// window is everything the measured phase produced. The measured time
// is cut into blocks with a calibration sample between every two: block
// b ran between cals[b] and cals[b+1].
type window struct {
	samples []sample
	rss     []float64 // resident set samples, MB
	blocks  []block
	cals    []calib
	failed  int
	errs    []string
	wall    time.Duration // measured wall time; epoch restarts and calibration excluded
	use     usage         // resource use charged to the requests
	tr      *tracer
	// traced counts the traced requests; recorded the requests the store
	// and fleet decorators recorded (see measure).
	traced, recorded int
}

// scale is the factor that brings a wall time taken in block b to the
// reference host's speed.
func (win *window) scale(b int) float64 {
	return calibNominalMs / win.localCalib(b, func(c calib) float64 { return c.wall })
}

// cpuScale is the factor for a CPU time taken in block b.
func (win *window) cpuScale(b int) float64 {
	return calibNominalCPUMs / win.localCalib(b, func(c calib) float64 { return c.cpu })
}

// localCalib is the median of one field of the calibration samples
// around block b.
func (win *window) localCalib(b int, field func(calib) float64) float64 {
	lo, hi := max(0, b-calibWindow+1), min(len(win.cals), b+calibWindow+1)
	v := make([]float64, 0, hi-lo)
	for _, c := range win.cals[lo:hi] {
		v = append(v, field(c))
	}
	return median(v)
}

// meanScale is the wall-time factor for timings that span the window.
func (win *window) meanScale() float64 {
	var wall, ref float64
	for b, d := range win.blocks {
		wall += d.wall.Seconds()
		ref += d.wall.Seconds() * win.scale(b)
	}
	return ref / wall
}

// scaledCPU is the CPU time charged to the requests, each block's scaled
// by the calibration around it, in ms.
func (win *window) scaledCPU() float64 {
	var sum float64
	for b, d := range win.blocks {
		sum += ms(d.cpu) * win.cpuScale(b)
	}
	return sum
}

// measure drives inst with w.clients closed-loop callers until the run
// has lasted cfg.seconds and holds minSamples requests (or, with
// cfg.requests set, until that many have started). Request indices
// continue after the warm-up's. The callers pause for a calibration
// sample after every request of a single-caller workload and after every
// w.block requests of a multi-caller one, outside the measured time.
//
// A traced run traces about half of the requests (see tracedReq), so its
// traced and untraced latencies come from interleaved requests. The
// store and fleet decorators record while a traced request runs; with
// several callers they cannot tell requests apart, so they record
// throughout.
func measure(cfg *config, w *workload, inst instance, tr *tracer) *window {
	win := &window{tr: tr}
	single := w.clients == 1
	size := 1
	if !single {
		size = w.block
	}
	var mu sync.Mutex
	next := warmups(cfg, w)
	var blockStart time.Time
	enough := func() bool { // holding mu, or with no caller running
		if cfg.requests > 0 {
			return next-warmups(cfg, w) >= cfg.requests
		}
		el := win.wall + time.Since(blockStart)
		return el >= maxWindow || (el.Seconds() >= cfg.seconds && len(win.samples)+win.failed >= minSamples)
	}
	rss, err := startRSS()
	if err != nil {
		win.failed++
		win.errs = append(win.errs, "resident set sampling: "+err.Error())
		return win
	}
	if tr != nil {
		tr.on.Store(!single)
	}
	win.cals = append(win.cals, calibSample())
	for {
		if started := next - warmups(cfg, w); w.epoch > 0 && started > 0 && started%w.epoch == 0 {
			if err := inst.reset(); err != nil {
				win.failed++
				win.errs = append(win.errs, "reset: "+err.Error())
				break
			}
		}
		b, end := len(win.blocks), next+size
		var charged, blockUse usage // charged: the requests' own use, on a single caller
		if !single {
			blockUse = readUsage()
		}
		blockStart = time.Now()
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					if next >= end || enough() {
						mu.Unlock()
						return
					}
					i := next
					next++
					mu.Unlock()
					traced := tr != nil && tracedReq(i)
					cl := &call{i: i, seed: cfg.seed}
					if single {
						cl.charge = true
						if tr != nil {
							tr.on.Store(traced)
						}
					}
					if traced {
						cl.tr, cl.root = tr, tr.id()
					}
					err := inst.do(cl)
					mu.Lock()
					charged = charged.plus(cl.use)
					if err != nil {
						win.failed++
						if len(win.errs) < 5 {
							win.errs = append(win.errs, fmt.Sprintf("request %d: %v", i, err))
						}
					} else {
						win.samples = append(win.samples, sample{i: i, lat: cl.lat, block: b, traced: traced, counts: cl.counts})
						if traced {
							win.traced++
						}
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(blockStart)
		if !single {
			charged = readUsage().sub(blockUse)
		}
		win.use = win.use.plus(charged)
		done := enough()
		win.blocks = append(win.blocks, block{wall: elapsed, cpu: charged.cpu})
		win.wall += elapsed
		win.cals = append(win.cals, calibSample())
		if done {
			break
		}
	}
	win.rss = rss.finish()
	win.recorded = win.traced
	if tr != nil {
		tr.on.Store(false)
		if !single {
			win.recorded = len(win.samples)
		}
	}
	return win
}

// tracedReq picks the requests a traced run traces: those whose index
// times the golden ratio has a fractional part below one half. That is
// about half of them, spread evenly over the run, and unlike a parity
// rule it is independent of the input rotations, which cycle with the
// index (one daemon request in four reattaches).
func tracedReq(i int) bool {
	return uint64(i)*0x9E3779B97F4A7C15>>63 == 0
}

func warmups(cfg *config, w *workload) int {
	if cfg.warmup > 0 {
		return cfg.warmup
	}
	return w.warmup
}

// workDir returns a fresh scratch directory under the configured one.
func workDir(cfg *config, name string) (string, error) {
	dir := filepath.Join(cfg.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
