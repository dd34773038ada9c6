// Command figures regenerates every table and figure of the paper from a
// fresh study run.
//
// Usage:
//
//	figures [-spec FILE] [-seed N] [-store DIR] [-progress auto|on|off] [-only table1|table2|table3|table4|fig1|...|fig8|hookup|stream|ecc|costs] [-csv]
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/cli"
	"cloudhpc/internal/cloud"
	"cloudhpc/internal/core"
	"cloudhpc/internal/metrics"
	"cloudhpc/internal/report"
	"cloudhpc/internal/sim"
	"cloudhpc/internal/usability"
)

func main() {
	study := cli.Register(flag.CommandLine, "")
	only := flag.String("only", "", "emit a single artifact (table1..table4, fig1..fig8, hookup, stream, ecc, costs)")
	csv := flag.Bool("csv", false, "emit figures as CSV")
	flag.Parse()

	// Every artifact below derives from one cached study execution.
	res, spec, err := study.Run()
	if err != nil {
		cli.Fail("figures", err)
	}

	renderFig := func(fig *metrics.Figure) string {
		if *csv {
			return report.FigureCSV(fig)
		}
		return report.Figure(fig)
	}
	fig := func(app string, acc cloud.Accelerator, title string) string {
		f, err := res.FigureFor(app, acc)
		if err != nil {
			fatal(err)
		}
		f.Title = title
		return renderFig(f)
	}

	artifacts := []struct {
		key, title string
		render     func() string
	}{
		{"table1", "Table 1: Environment Characteristics", func() string {
			return report.Table1(res.Envs)
		}},
		{"table2", "Table 2: Nodes and Network", func() string {
			return report.Table2(cloud.NewCatalog())
		}},
		{"table3", "Table 3: Environment Usability", func() string {
			return usability.Table(res.Table3())
		}},
		{"table4", "Table 4: AMG2023 Total Costs By Environment", func() string {
			return report.Table4(res.Table4())
		}},
		{"fig1", "Figure 1: Kripke grind time (CPU)", func() string {
			return fig("kripke", cloud.CPU, "Figure 1: Kripke grind time (CPU, lower is better)")
		}},
		{"fig2", "Figure 2: AMG2023 FOM", func() string {
			return fig("amg2023", cloud.CPU, "Figure 2a: AMG2023 FOM (CPU)") +
				fig("amg2023", cloud.GPU, "Figure 2b: AMG2023 FOM (GPU)")
		}},
		{"fig3", "Figure 3: Laghos major kernels rate (CPU)", func() string {
			return fig("laghos", cloud.CPU, "Figure 3: Laghos megadofs×steps/s (CPU)")
		}},
		{"fig4", "Figure 4: LAMMPS M-atom steps/s", func() string {
			return fig("lammps", cloud.CPU, "Figure 4a: LAMMPS (CPU)") +
				fig("lammps", cloud.GPU, "Figure 4b: LAMMPS (GPU)")
		}},
		{"fig5", "Figure 5: OSU benchmarks at 256 CPU nodes", func() string { return osuFigure(res, spec.Seed) }},
		{"fig6", "Figure 6: MiniFE CG MFLOP/s", func() string {
			return fig("minife", cloud.CPU, "Figure 6a: MiniFE (CPU)") +
				fig("minife", cloud.GPU, "Figure 6b: MiniFE (GPU)")
		}},
		{"fig7", "Figure 7: MT-GEMM GFLOP/s (GPU)", func() string {
			return fig("mt-gemm", cloud.GPU, "Figure 7: MT-GEMM (GPU)")
		}},
		{"fig8", "Figure 8: Quicksilver segments/cycle-tracking-time (CPU)", func() string {
			return fig("quicksilver", cloud.CPU, "Figure 8: Quicksilver (CPU)")
		}},
		{"hookup", "Hookup times (paper §3.2)", func() string { return hookupReport(res) }},
		{"stream", "STREAM Triad (paper §3.3)", func() string {
			return fig("stream", cloud.CPU, "STREAM Triad aggregate (CPU)") +
				fig("stream", cloud.GPU, "STREAM Triad per GPU")
		}},
		{"ecc", "Mixbench ECC survey (paper §3.3)", func() string { return eccReport(res) }},
		{"costs", "Study costs (paper §3.4)", func() string { return report.Costs(res.StudyCosts()) }},
	}

	for _, a := range artifacts {
		if *only != "" && a.key != *only {
			continue
		}
		fmt.Printf("==== %s ====\n%s\n", a.title, a.render())
	}
}

// osuFigure runs the Figure 5 sweeps on the 256-node CPU environments.
func osuFigure(res *core.Results, seed uint64) string {
	osu := apps.NewOSU()
	out := ""
	for _, spec := range apps.Deployable(res.Envs) {
		if spec.Acc != cloud.CPU {
			continue
		}
		rng := sim.NewStream(seed, "figures/osu/"+spec.Key)
		out += report.OSUSeries("osu_latency "+spec.Key, "µs", osu.LatencySeries(spec.Env, rng))
		out += report.OSUSeries("osu_bw "+spec.Key, "MB/s", osu.BandwidthSeries(spec.Env, rng))
		out += report.OSUSeries("osu_allreduce "+spec.Key+" (256 nodes)", "µs", osu.AllReduceSeries(spec.Env, 256, rng))
	}
	return out
}

func hookupReport(res *core.Results) string {
	out := fmt.Sprintf("%-28s %-8s %s\n", "Environment", "Nodes", "Hookup")
	for _, spec := range apps.Deployable(res.Envs) {
		nodes, times := res.HookupSeries(spec.Key)
		for i, n := range nodes {
			out += fmt.Sprintf("%-28s %-8d %v\n", spec.Key, n, times[i].Round(100_000_000))
		}
	}
	return out
}

func eccReport(res *core.Results) string {
	out := fmt.Sprintf("%-28s %s\n", "Environment", "ECC On")
	for _, spec := range apps.Deployable(res.Envs) {
		if on, ok := res.ECCOn[spec.Key]; ok {
			out += fmt.Sprintf("%-28s %.1f%%\n", spec.Key, on*100)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
