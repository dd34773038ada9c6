package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"cloudhpc/internal/cloud"
	"cloudhpc/internal/core"
)

// goldenPath is the committed seed-2025 dataset snapshot the core
// package's golden test pins, relative to the repository root.
const goldenPath = "internal/core/testdata/golden_seed2025.txt"

// snapshot is the benchmark's own copy of core's goldenSnapshot, built
// from exported Results fields only, so the benchmark can check the
// program's output byte for byte without reaching into its tests. Floats
// are rendered at full precision so equal text means equal bits.
func snapshot(res *core.Results) string {
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	var b strings.Builder

	fmt.Fprintf(&b, "runs: %d\n", len(res.Runs))
	var runs strings.Builder
	for _, r := range res.Runs {
		errMsg := ""
		if r.Err != nil {
			errMsg = r.Err.Error()
		}
		fmt.Fprintf(&runs, "%s|%s|%d|%d|%s|%s|%d|%d|%s|%q\n",
			r.EnvKey, r.App, r.Nodes, r.Iter, g(r.FOM), g(r.CostUSD),
			r.Wall.Nanoseconds(), r.Hookup.Nanoseconds(), r.Unit, errMsg)
	}
	fmt.Fprintf(&b, "run-digest: sha256:%x\n", sha256.Sum256([]byte(runs.String())))

	fmt.Fprintf(&b, "trace-events: %d\n", res.Log.Len())
	fmt.Fprintf(&b, "trace-digest: sha256:%x\n", sha256.Sum256([]byte(res.Log.Render())))

	b.WriteString("table4:\n")
	for _, row := range res.Table4() {
		fmt.Fprintf(&b, "  %s %s %s %s\n", row.EnvKey, row.Acc, g(row.RateUSD), g(row.TotalUSD))
	}

	b.WriteString("spend:\n")
	costs := res.StudyCosts()
	provs := make([]string, 0, len(costs))
	for p := range costs {
		provs = append(provs, string(p))
	}
	sort.Strings(provs)
	for _, p := range provs {
		fmt.Fprintf(&b, "  %s %s\n", p, g(costs[cloud.Provider(p)]))
	}

	b.WriteString("ecc:\n")
	eccKeys := make([]string, 0, len(res.ECCOn))
	for k := range res.ECCOn {
		eccKeys = append(eccKeys, k)
	}
	sort.Strings(eccKeys)
	for _, k := range eccKeys {
		fmt.Fprintf(&b, "  %s %s\n", k, g(res.ECCOn[k]))
	}

	b.WriteString("findings:\n")
	for _, f := range res.Findings {
		fmt.Fprintf(&b, "  %s %s\n", f.NodeID, f.Detail)
	}

	b.WriteString("hookups:\n")
	for _, spec := range res.Envs {
		nodes, times := res.HookupSeries(spec.Key)
		for i, n := range nodes {
			fmt.Fprintf(&b, "  %s %d %d\n", spec.Key, n, times[i].Nanoseconds())
		}
	}

	b.WriteString("failures:\n")
	fails := res.FailureSummary()
	for _, spec := range res.Envs {
		byApp := fails[spec.Key]
		appNames := make([]string, 0, len(byApp))
		for a := range byApp {
			appNames = append(appNames, a)
		}
		sort.Strings(appNames)
		for _, a := range appNames {
			fmt.Fprintf(&b, "  %s %s %d\n", spec.Key, a, byApp[a])
		}
	}
	return b.String()
}

// digest is the sha256 of a dataset's snapshot: what a warm load must
// reproduce of the study it was stored from.
func digest(res *core.Results) [32]byte {
	return sha256.Sum256([]byte(snapshot(res)))
}

// goldenGate runs seed 2025 cold into a fresh store, then warm out of
// it, and requires both datasets to match the committed golden file
// byte for byte. It returns the cold dataset, which the traced run's
// layer probes reuse as their fixed input.
func goldenGate(root string) (*core.Results, error) {
	want, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, fmt.Errorf("golden gate: %w", err)
	}
	rs, _ := newStore(nil)
	spec := studySpec(core.DefaultSeed)
	r := &core.Runner{Store: rs}
	var cold *core.Results
	for _, tier := range []string{"cold", "warm"} {
		core.FlushCachedRuns()
		res, err := r.Run(context.Background(), spec)
		if err != nil {
			return nil, fmt.Errorf("golden gate (%s): %w", tier, err)
		}
		if snapshot(res) != string(want) {
			return nil, fmt.Errorf("golden gate: %s seed-%d dataset differs from %s", tier, core.DefaultSeed, goldenPath)
		}
		if cold == nil {
			cold = res
		}
	}
	core.FlushCachedRuns()
	if hits := rs.Stats().StudyHits; hits != 1 {
		return nil, fmt.Errorf("golden gate: warm pass served %d store hits, want 1", hits)
	}
	return cold, nil
}
