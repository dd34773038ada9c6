package core

import (
	"sort"
	"time"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/cloud"
	"cloudhpc/internal/metrics"
	"cloudhpc/internal/usability"
)

// env returns the study's own row for key, or nil if the study did not
// select it. It scans r.Envs rather than caching an index: a Results is
// shared read-only across sessions.
func (r *Results) env(key string) *apps.EnvSpec {
	for i := range r.Envs {
		if r.Envs[i].Key == key {
			return &r.Envs[i]
		}
	}
	return nil
}

// FigureFor aggregates the runs of one application on one accelerator
// class into a figure: one series per environment, x = nodes (CPU) or
// total GPUs (GPU — so cluster B's 4-GPU nodes align with cloud's 8-GPU
// nodes), y = FOM mean ± stddev over iterations.
func (r *Results) FigureFor(app string, acc cloud.Accelerator) (*metrics.Figure, error) {
	model, err := apps.ByName(app)
	if err != nil {
		return nil, err
	}
	fig := &metrics.Figure{
		Title:          app,
		XLabel:         "nodes",
		YLabel:         model.Unit(),
		HigherIsBetter: model.HigherIsBetter(),
	}
	if acc == cloud.GPU {
		fig.XLabel = "GPUs"
	}

	type cell struct {
		env string
		x   float64
	}
	samples := make(map[cell][]float64)
	for i := range r.Runs {
		rec := &r.Runs[i]
		if rec.App != app || rec.Err != nil {
			continue
		}
		spec := r.env(rec.EnvKey)
		if spec == nil || spec.Acc != acc {
			continue
		}
		x := float64(rec.Nodes)
		if acc == cloud.GPU {
			x = float64(spec.Env.Units(rec.Nodes))
		}
		c := cell{env: rec.EnvKey, x: x}
		samples[c] = append(samples[c], rec.FOM)
	}

	// Environment order follows the matrix for stable output.
	for _, spec := range r.Envs {
		if spec.Acc != acc {
			continue
		}
		for _, nodes := range spec.Scales {
			x := float64(nodes)
			if acc == cloud.GPU {
				x = float64(spec.Env.Units(nodes))
			}
			if vals, ok := samples[cell{env: spec.Key, x: x}]; ok {
				fig.Get(spec.Key).Add(x, metrics.Summarize(vals))
			}
		}
	}
	return fig, nil
}

// CostRow is one row of Table 4.
type CostRow struct {
	EnvKey   string
	Label    string
	Acc      cloud.Accelerator
	RateUSD  float64
	TotalUSD float64
}

// Table4 computes AMG2023 total costs by environment — execution time ×
// cluster size × instance cost, summed over iterations and scales — sorted
// ascending like the paper's Table 4. On-premises environments are omitted
// (no instance billing).
func (r *Results) Table4() []CostRow {
	totals := map[string]float64{}
	for i := range r.Runs {
		if rec := &r.Runs[i]; rec.App == "amg2023" && rec.Err == nil {
			totals[rec.EnvKey] += rec.CostUSD
		}
	}
	var rows []CostRow
	for _, spec := range r.Envs {
		usd, ok := totals[spec.Key]
		if !ok || spec.OnPrem() {
			continue
		}
		rows = append(rows, CostRow{
			EnvKey: spec.Key, Label: spec.Label, Acc: spec.Acc,
			RateUSD: spec.Instance.HourlyUSD, TotalUSD: usd,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].TotalUSD != rows[j].TotalUSD {
			return rows[i].TotalUSD < rows[j].TotalUSD
		}
		return rows[i].EnvKey < rows[j].EnvKey
	})
	return rows
}

// Table3 derives the usability assessment for every deployable environment
// from the study trace.
func (r *Results) Table3() []usability.Assessment {
	var keys []string
	for _, spec := range apps.Deployable(r.Envs) {
		keys = append(keys, spec.Key)
	}
	return usability.NewScorer().ScoreAll(r.Log, keys)
}

// HookupSeries returns the measured hookup times of one environment by
// node count, ascending.
func (r *Results) HookupSeries(envKey string) ([]int, []time.Duration) {
	m := r.Hookups[envKey]
	var nodes []int
	for n := range m {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	out := make([]time.Duration, len(nodes))
	for i, n := range nodes {
		out[i] = m[n]
	}
	return nodes, out
}

// StudyCosts returns total spend per cloud provider (paper §3.4).
func (r *Results) StudyCosts() map[cloud.Provider]float64 {
	out := map[cloud.Provider]float64{}
	for _, p := range []cloud.Provider{cloud.AWS, cloud.Azure, cloud.Google} {
		out[p] = r.Meter.Spend(p)
	}
	return out
}

// FailureSummary counts failed runs per (env, app) — the study's negative
// results (Laghos timeouts and segfaults, Quicksilver GPU, MiniFE output).
func (r *Results) FailureSummary() map[string]map[string]int {
	out := map[string]map[string]int{}
	for i := range r.Runs {
		rec := &r.Runs[i]
		if rec.Err == nil {
			continue
		}
		if out[rec.EnvKey] == nil {
			out[rec.EnvKey] = map[string]int{}
		}
		out[rec.EnvKey][rec.App]++
	}
	return out
}

// RunsFor filters the dataset.
func (r *Results) RunsFor(envKey, app string) []RunRecord {
	var out []RunRecord
	for _, rec := range r.Runs {
		if (envKey == "" || rec.EnvKey == envKey) && (app == "" || rec.App == app) {
			out = append(out, rec)
		}
	}
	return out
}
