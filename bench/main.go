// Command bench is the repository benchmark: four workloads that follow
// the paths users take through the system (a first study into an empty
// store, re-rendering stored studies, incremental edits of a stored
// study, and the study daemon over HTTP), driven through the public APIs
// of core, report, rpc and fleet, with every output checked.
//
// Run from the repository root, through bench/run.sh, which builds it:
//
//	sh bench/run.sh --workload cold-study --seed 1 --seconds 20 --trace 0
//	sh bench/run.sh --seed 1                  # every workload, one child process each
//	sh bench/run.sh compare parent.jsonl change.jsonl
//
// The last line of a workload run is one JSON object: correct,
// attempted, failed, and the metrics (the end-to-end ones untraced, the
// per-layer ones with --trace 1). See bench/README.md and BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cloudhpc/internal/core"
)

// workloads are the benchmark's inputs; BENCHMARK.json records why each
// was chosen. The names are fixed: recorded results cite them.
var workloads = []*workload{
	{name: "cold-study", clients: 1, warmup: 10, setup: newColdStudy},
	{name: "warm-study", clients: 1, warmup: 10, setup: newWarmStudy},
	{name: "edit-study", clients: 1, warmup: 10, epoch: 100, setup: newEditStudy},
	{name: "daemon", clients: 2, warmup: 20, epoch: 200, block: 25, setup: newDaemon},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run (default: every workload, each in its own process)")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	traced := fs.Int("trace", 0, "1: traced run printing the per-layer metrics and writing spans")
	record := fs.String("record", "", "append the result, tagged with workload and seed, to this JSONL file (input of compare)")
	fs.Parse(os.Args[1:])
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace takes 0 or 1")
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(os.Args[1:]))
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	cfg := &config{
		root: ".", workload: w.name, seed: *seed, seconds: *seconds, trace: *traced == 1,
		work:   filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", w.name, os.Getpid())),
		setups: 3, probeReps: 7,
	}
	if cfg.trace {
		cfg.traceOut = filepath.Join(".bench_build", "trace-"+w.name+".jsonl")
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *record != "" {
		if err := appendRecord(*record, w.name, *seed, *traced, line); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in a child process of its own, so each
// has its own peak RSS and garbage-collector state.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	status := 0
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		cmd := exec.Command(self, append([]string{"--workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// run sets the workload up cfg.setups times (setup_s is the median),
// measures the last set-up, and returns the result line's content. Human
// readable detail goes to out as comment lines.
func run(cfg *config, out io.Writer) (*result, error) {
	w, err := lookup(cfg.workload)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	defer os.RemoveAll(cfg.work)
	calibrate(5) // the first samples of a process run slow
	var (
		inst   instance
		h      *setupEnv
		setups []float64
	)
	cal := calibrate(3)
	for rep := 0; rep < cfg.setups; rep++ {
		if inst != nil {
			inst.close()
			os.RemoveAll(h.dir)
		}
		t0 := time.Now()
		dir, err := workDir(cfg, fmt.Sprintf("setup%d", rep))
		if err != nil {
			return nil, err
		}
		h = &setupEnv{cfg: cfg, dir: dir, tr: tr}
		if h.golden, err = goldenGate(cfg.root); err != nil {
			return nil, err
		}
		if inst, err = w.setup(h); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		for i := 0; i < warmups(cfg, w); i++ {
			if err := inst.do(&call{i: i, seed: cfg.seed}); err != nil {
				inst.close()
				return nil, fmt.Errorf("%s warm-up request %d: %w", w.name, i, err)
			}
		}
		d := time.Since(t0).Seconds()
		after := calibrate(3)
		setups = append(setups, d*calibNominalMs/((cal+after)/2))
		cal = after
	}
	defer inst.close()
	win := measure(cfg, w, inst, tr)
	return results(cfg, w, win, setups, h.golden, out)
}

// results turns the measured window into the result line's content.
func results(cfg *config, w *workload, win *window, setups []float64, golden *core.Results, out io.Writer) (*result, error) {
	n := len(win.samples)
	res := &result{Attempted: n + win.failed, Failed: win.failed, Metrics: map[string]metric{}}
	res.Correct = win.failed == 0 && n > 0
	fmt.Fprintf(out, "# %s seed %d: %d requests (%d failed) in %.1f s measured, %d caller(s), set-up %.3v s\n",
		w.name, cfg.seed, res.Attempted, win.failed, win.wall.Seconds(), w.clients, setups)
	for _, e := range win.errs {
		fmt.Fprintf(out, "# failure: %s\n", e)
	}
	if n == 0 {
		return res, nil
	}
	var err error
	if cfg.trace {
		err = layerMetrics(cfg, win, golden, res.Metrics)
	} else {
		err = endToEnd(win, setups, res.Metrics, out)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(res.Metrics))
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a number", k)
		}
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "# %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if win.tr != nil {
		printSummary(out, summarize(win.tr.spans), win.traced)
	}
	if cfg.traceOut != "" {
		if err := win.tr.write(cfg.traceOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# spans written to %s\n", cfg.traceOut)
	}
	return res, nil
}

// endToEnd computes the untraced run's metrics. Timings are scaled to
// the reference host's speed by the calibration next to them (see
// calibNominalMs); the unscaled values are printed as comments.
func endToEnd(win *window, setups []float64, m map[string]metric, out io.Writer) error {
	n := float64(len(win.samples))
	lat := latencies(win, func(sample) bool { return true })
	k := win.meanScale()
	m["setup_s"] = metric{median(setups), "s"}
	m["throughput_rps"] = metric{n / (win.wall.Seconds() * k), "req/s"}
	m["latency_p50_ms"] = metric{median(lat), "ms"}
	m["latency_p95_ms"] = metric{tail(lat, 0.95, "latency_p95_ms", out), "ms"}
	m["cpu_ms_per_req"] = metric{win.scaledCPU() / n, "ms"}
	m["alloc_mb_per_req"] = metric{float64(win.use.alloc) / 1e6 / n, "MB"}
	m["allocs_per_req"] = metric{float64(win.use.mallocs) / n, "count"}
	m["rss_p99_mb"] = metric{tail(win.rss, 0.99, "rss_p99_mb", out), "MB"}
	raw := make([]float64, len(win.samples))
	for i, s := range win.samples {
		raw[i] = ms(s.lat)
	}
	calWall, calCPU := make([]float64, len(win.cals)), make([]float64, len(win.cals))
	for i, c := range win.cals {
		calWall[i], calCPU[i] = c.wall, c.cpu
	}
	fmt.Fprintf(out, "# unscaled: latency_p50_ms %.4g, throughput_rps %.4g, cpu_ms_per_req %.4g; calibration %.4g ms wall, %.4g ms CPU (nominal %g, %g)\n",
		median(raw), n/win.wall.Seconds(), ms(win.use.cpu)/n, median(calWall), median(calCPU),
		float64(calibNominalMs), float64(calibNominalCPUMs))
	return nil
}

// tail is the p-quantile of v or, when v holds too few samples for it
// (only a run stopped by request count, as in the smoke test), its
// largest value, with a note on out.
func tail(v []float64, p float64, name string, out io.Writer) float64 {
	q, err := tailPercentile(v, p)
	if err == nil {
		return q
	}
	fmt.Fprintf(out, "# %s: %v; reporting the largest value\n", name, err)
	if len(v) == 0 {
		return 0
	}
	return sorted(v)[len(v)-1]
}

// latencies returns the kept samples' latencies in ms, scaled to the
// reference host's speed.
func latencies(win *window, keep func(sample) bool) []float64 {
	v := make([]float64, 0, len(win.samples))
	for _, s := range win.samples {
		if keep(s) {
			v = append(v, ms(s.lat)*win.scale(s.block))
		}
	}
	return v
}

// layerMetrics computes the traced run's metrics: per traced request
// from the spans, decorators and event streams, over the whole window
// from the runtime, and from the layer probes.
func layerMetrics(cfg *config, win *window, golden *core.Results, m map[string]metric) error {
	var traced []sample
	for _, s := range win.samples {
		if s.traced {
			traced = append(traced, s)
		}
	}
	nt := float64(len(traced))
	if nt == 0 {
		return fmt.Errorf("traced run measured no traced request")
	}
	var c reqCounts
	var firsts []float64
	joins := 0
	for _, s := range traced {
		firsts = append(firsts, ms(s.counts.first)*win.scale(s.block))
		c.events += s.counts.events
		c.dropped += s.counts.dropped
		c.lines += s.counts.lines
		c.bytes += s.counts.bytes
		c.missed += s.counts.missed
		c.unitHits += s.counts.unitHits
		c.unitLookups += s.counts.unitLookups
		if s.counts.joined {
			joins++
		}
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	tr := win.tr
	m["core.first_event_ms"] = metric{median(firsts), "ms"}
	m["core.events_per_req"] = metric{float64(c.events) / nt, "count"}
	m["core.dropped"] = metric{float64(c.dropped), "count"}
	m["core.unit_hit_ratio"] = metric{ratio(c.unitHits, c.unitLookups), "ratio"}
	m["core.unit_lookups_per_req"] = metric{float64(c.unitLookups) / nt, "count"}
	m["core.unit_decode_ms"] = metric{win.spanMedian("core", "unit_decode", sum), "ms"}
	m["core.env_critical_ms"] = metric{win.spanMedian("core", "env", largest), "ms"}
	m["core.save_ms"] = metric{win.spanMedian("core", "save", sum), "ms"}

	nr := float64(win.recorded)
	k := win.meanScale()
	for _, op := range []struct {
		name string
		stat *opStat
	}{{"put", &tr.put}, {"get", &tr.get}, {"ref", &tr.ref}} {
		m["store."+op.name+"_count"] = metric{float64(op.stat.n.Load()) / nr, "count"}
		m["store."+op.name+"_ms"] = metric{float64(op.stat.ns.Load()) / 1e6 * k / nr, "ms"}
	}
	m["store.put_mb"] = metric{float64(tr.put.bytes.Load()) / 1e6 / nr, "MB"}
	m["store.get_mb"] = metric{float64(tr.get.bytes.Load()) / 1e6 / nr, "MB"}
	m["store.has_count"] = metric{float64(tr.has.n.Load()) / nr, "count"}

	m["rpc.submit_ms"] = metric{win.spanMedian("rpc", "submit", sum), "ms"}
	m["rpc.stream_ms"] = metric{win.spanMedian("rpc", "stream", sum), "ms"}
	m["rpc.lines_per_req"] = metric{float64(c.lines) / nt, "count"}
	m["rpc.kb_per_req"] = metric{float64(c.bytes) / 1e3 / nt, "kB"}
	m["rpc.join_ratio"] = metric{float64(joins) / nt, "ratio"}
	m["rpc.missed"] = metric{float64(c.missed), "count"}
	m["fleet.offloads_per_req"] = metric{float64(tr.offloads.Load()) / nr, "count"}
	m["fleet.fallback_ratio"] = metric{ratio(tr.fallbacks.Load(), tr.offloads.Load()), "ratio"}

	n := float64(len(win.samples))
	m["runtime.gc_per_req"] = metric{float64(win.use.numGC) / n, "count"}
	m["runtime.gc_pause_ms_per_req"] = metric{float64(win.use.pauseNs) / 1e6 * k / n, "ms"}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["runtime.heap_retained_mb"] = metric{float64(ms.HeapAlloc) / 1e6, "MB"}

	on := median(latencies(win, func(s sample) bool { return s.traced }))
	off := median(latencies(win, func(s sample) bool { return !s.traced }))
	m["trace_overhead_frac"] = metric{on/off - 1, "frac"}

	if err := probes(cfg.probeReps, golden, m); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	return nil
}

// appendRecord appends one result line, tagged with what produced it,
// to a JSONL file that compare reads.
func appendRecord(path, name string, seed uint64, traced int, line []byte) error {
	rec, err := json.Marshal(struct {
		Workload string          `json:"workload"`
		Seed     uint64          `json:"seed"`
		Trace    int             `json:"trace"`
		Result   json.RawMessage `json:"result"`
	}{name, seed, traced, line})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(rec, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
