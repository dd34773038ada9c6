package main

// compare is the A/B summariser: it reads the results of alternated runs
// of a parent and a change (each appended with --record) and gives, for
// every workload and metric, each side's median and quartiles, the share
// of pairs the change wins, and a verdict.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json compare and the tests read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// record is one line of a --record file.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// runs maps (workload, trace) to its recorded results in file order.
type runs map[[2]string][]result

func loadRuns(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := runs{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		k := [2]string{r.Workload, fmt.Sprint(r.Trace)}
		out[k] = append(out[k], r.Result)
	}
	return out, sc.Err()
}

// Verdicts, following the rule for landing a change: a gain needs at
// least nine pair wins in ten and a median gap wider than the parent's
// interquartile range; a regression is a median worse by more than the
// metric's bound; otherwise a metric whose run-to-run spread exceeds its
// bound is unresolved, not unchanged, unless every change run beats
// every parent run.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// comparison is one (workload, metric) row.
type comparison struct {
	pairs, wins, losses int
	parent, change      [3]float64 // q1, median, q3
	verdict             string
}

// compareMetric pairs parent[i] with change[i]. lower says whether a
// lower value is better; bound is the metric's regression bound as a
// share of the parent's median, or 0 for a metric without one (then a
// regression is judged like a gain, mirrored).
func compareMetric(parent, change []float64, lower bool, bound float64) comparison {
	c := comparison{pairs: len(parent)}
	c.parent[0], c.parent[1], c.parent[2] = quartiles(parent)
	c.change[0], c.change[1], c.change[2] = quartiles(change)
	c.parent[1], c.change[1] = median(parent), median(change)
	better := func(x, y float64) bool { return (lower && x < y) || (!lower && x > y) }
	for i := range parent {
		switch {
		case better(change[i], parent[i]):
			c.wins++
		case better(parent[i], change[i]):
			c.losses++
		}
	}
	allBetter := true
	for _, b := range change {
		for _, a := range parent {
			allBetter = allBetter && better(b, a)
		}
	}
	iqr := c.parent[2] - c.parent[0]
	worse := c.change[1] - c.parent[1] // how much worse the change's median is
	if !lower {
		worse = -worse
	}
	spread := math.Max(iqr/math.Abs(c.parent[1]), (c.change[2]-c.change[0])/math.Abs(c.change[1]))
	n := float64(c.pairs)
	switch {
	case float64(c.wins) >= 0.9*n && -worse > iqr:
		c.verdict = improved
	case bound > 0 && worse > bound*math.Abs(c.parent[1]):
		c.verdict = regressed
	case bound > 0 && spread > bound && !allBetter:
		c.verdict = unresolved
	case bound == 0 && float64(c.losses) >= 0.9*n && worse > iqr:
		c.verdict = regressed
	default:
		c.verdict = unchanged
	}
	return c
}

func compareMain(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(errw)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration: metrics, directions and bounds")
	fs.Usage = func() {
		fmt.Fprintln(errw, "usage: bench compare [-spec BENCHMARK.json] PARENT.jsonl CHANGE.jsonl")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(errw, "compare:", err)
		return 2
	}
	a, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(errw, "compare:", err)
		return 2
	}
	b, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(errw, "compare:", err)
		return 2
	}
	fmt.Fprintf(out, "%-11s %-28s %-6s %-32s %-32s %8s %6s  %s\n",
		"workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "verdict")
	type tally map[string]int
	summary := map[string]tally{}
	status := 0
	for _, w := range spec.Workloads {
		for trace, metrics := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			k := [2]string{w.Name, fmt.Sprint(trace)}
			ra, rb := a[k], b[k]
			pairs := min(len(ra), len(rb))
			if pairs == 0 {
				continue
			}
			if len(ra) != len(rb) {
				fmt.Fprintf(errw, "compare: %s trace %d: %d parent and %d change runs; pairing the first %d\n", w.Name, trace, len(ra), len(rb), pairs)
			}
			for _, m := range metrics {
				pa, pb := make([]float64, 0, pairs), make([]float64, 0, pairs)
				for i := 0; i < pairs; i++ {
					va, oka := ra[i].Metrics[m.Name]
					vb, okb := rb[i].Metrics[m.Name]
					if oka && okb {
						pa, pb = append(pa, va.Value), append(pb, vb.Value)
					}
				}
				if len(pa) == 0 {
					continue
				}
				c := compareMetric(pa, pb, m.Better == "lower", m.Bound)
				delta := "n/a"
				if c.parent[1] != 0 {
					delta = fmt.Sprintf("%+.1f%%", 100*(c.change[1]/c.parent[1]-1))
				}
				fmt.Fprintf(out, "%-11s %-28s %-6s %-32s %-32s %8s %6s  %s\n", w.Name, m.Name, m.Unit,
					quart(c.parent), quart(c.change), delta, fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict)
				if trace == 0 {
					if summary[w.Name] == nil {
						summary[w.Name] = tally{}
					}
					summary[w.Name][c.verdict]++
					if c.verdict == regressed {
						status = 1
					}
				}
			}
		}
	}
	fmt.Fprintln(out, "\nend-to-end verdicts per workload:")
	for _, w := range spec.Workloads {
		t := summary[w.Name]
		if t == nil {
			continue
		}
		var parts []string
		for _, v := range []string{regressed, unresolved, improved, unchanged} {
			if t[v] > 0 {
				parts = append(parts, fmt.Sprintf("%d %s", t[v], v))
			}
		}
		fmt.Fprintf(out, "%-11s %s\n", w.Name, strings.Join(parts, ", "))
	}
	return status
}

func quart(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
