// Command cloudbench runs the cross-cloud study — by default every
// deployable environment, every application, every scale, five
// iterations; any other scenario via -spec — and prints the dataset
// summary: run counts, failures, per-cloud spend, and the usability
// assessment.
//
// Usage:
//
//	cloudbench [-spec FILE] [-seed N] [-workers N] [-store DIR] [-progress auto|on|off] [-trace] [-pause 26h] [-test-clusters] [-abort-over-budget]
//
// The last three flags set the spec's directives of the same names
// (§4.2), so -store serves such a run warm like any other.
package main

import (
	"flag"
	"fmt"
	"sort"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/cli"
	"cloudhpc/internal/report"
	"cloudhpc/internal/usability"
)

func main() {
	study := cli.Register(flag.CommandLine, "")
	showTrace := flag.Bool("trace", false, "dump the full event trace")
	pause := flag.Duration("pause", 0, "pause between cluster sizes for cost reporting to catch up (§4.2)")
	testClusters := flag.Bool("test-clusters", false, "shake out each environment on a small test cluster first (§4.2)")
	abortOverBudget := flag.Bool("abort-over-budget", false, "stop an environment when its spend exceeds its share of the provider budget")
	flag.Parse()

	spec, err := study.Spec()
	if err != nil {
		cli.Fail("cloudbench", err)
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "pause":
			spec.Pause = *pause
		case "test-clusters":
			spec.TestClusters = *testClusters
		case "abort-over-budget":
			spec.AbortOverBudget = *abortOverBudget
		}
	})
	res, err := study.RunSpec(spec)
	if err != nil {
		cli.Fail("cloudbench", err)
	}

	fmt.Printf("study complete: %d runs across %d environments (seed %d)\n\n",
		len(res.Runs), len(apps.Deployable(res.Envs)), spec.Seed)

	fmt.Println("== Per-cloud spend (paper §3.4) ==")
	fmt.Print(report.Costs(res.StudyCosts()))

	fmt.Println("\n== Usability (paper Table 3) ==")
	fmt.Print(usability.Table(res.Table3()))

	fmt.Println("\n== AMG2023 costs (paper Table 4) ==")
	fmt.Print(report.Table4(res.Table4()))

	funnel := res.Builds
	fmt.Printf("\n== Container builds (paper: 220 built, 97 intended, 74 used) ==\n")
	fmt.Printf("attempted %d, built %d, usable %d, failed %d\n",
		funnel.Attempted, funnel.Built, funnel.Usable, funnel.Failed)

	fmt.Println("\n== Failures ==")
	fails := res.FailureSummary()
	for _, spec := range res.Envs { // canonical matrix order, not map order
		byApp := fails[spec.Key]
		apps := make([]string, 0, len(byApp))
		for app := range byApp {
			apps = append(apps, app)
		}
		sort.Strings(apps)
		for _, app := range apps {
			fmt.Printf("%-26s %-12s %d failed runs\n", spec.Key, app, byApp[app])
		}
	}

	if len(res.Findings) > 0 {
		fmt.Println("\n== Single-node audit ==")
		for _, f := range res.Findings {
			fmt.Printf("%s: %s\n", f.NodeID, f.Detail)
		}
	}

	if len(res.Incidents) > 0 {
		fmt.Printf("\n== Fault injection (%d incidents) ==\n", len(res.Incidents))
		fmt.Print(report.Recovery(res.Recovery))
	}

	if *showTrace {
		fmt.Println("\n== Event trace ==")
		fmt.Print(res.Log.Render())
	}
}
