// Command chaosbench runs the study under a fault-injection plan and
// reports what the chaos cost: the injected incidents, the recovery
// accounting (preemptions, re-queued jobs, lost node-hours, billing
// impact), and the spend/failure deltas against the fault-free baseline
// for the same spec.
//
// The chaotic dataset is exactly as reproducible as the clean one: at a
// fixed (spec, plan) the run is byte-identical for every -workers value.
//
// Usage:
//
//	chaosbench [-spec FILE] [-seed N] [-chaos default|FILE] [-workers N] [-store DIR] [-progress auto|on|off] [-no-baseline] [-incidents]
//
// Plan files are line-oriented (see internal/chaos):
//
//	spot-reclaim env=*       prob=0.08 frac=0.5 requeue=true
//	stockout     env=aws-*   prob=0.15 retries=3 backoff=10m
//	quota-revoke env=azure-* prob=0.10 nodes=16 regrant=2h
//	net-degrade  env=google-* prob=0.20 latency=2.5 bandwidth=1.15
//	pull-fail    env=*       prob=0.20 retries=2 backoff=45s
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudhpc/internal/cli"
	"cloudhpc/internal/cloud"
	"cloudhpc/internal/core"
	"cloudhpc/internal/report"
)

func main() {
	study := cli.Register(flag.CommandLine, "default")
	noBaseline := flag.Bool("no-baseline", false, "skip the fault-free baseline run and its delta report")
	showIncidents := flag.Bool("incidents", false, "print the full incident transcript")
	flag.Parse()

	spec, err := study.Spec()
	if err != nil {
		fatal(err)
	}
	if spec.Chaos == "" || spec.Chaos == "none" {
		fatal(fmt.Errorf("no chaos plan: pass -chaos default or a plan file"))
	}

	res, err := study.RunSpec(spec)
	if err != nil {
		cli.Fail("chaosbench", err)
	}

	fmt.Printf("chaotic study complete: %d runs, %d injected incidents (seed %d)\n\n",
		len(res.Runs), len(res.Incidents), spec.Seed)

	fmt.Println("== Recovery accounting ==")
	fmt.Print(report.Recovery(res.Recovery))

	fmt.Println("\n== Per-cloud spend under chaos ==")
	fmt.Print(report.Costs(res.StudyCosts()))

	if !*noBaseline {
		// The fault-free baseline is the same spec with the plan removed —
		// a different canonical hash, so the two datasets never collide in
		// the spec-keyed cache.
		clean := *spec
		clean.Chaos = ""
		base, err := study.RunSpec(&clean)
		if err != nil {
			cli.Fail("chaosbench", err)
		}
		fmt.Println("\n== Chaos vs fault-free baseline ==")
		fmt.Printf("%-10s %12s %12s %12s\n", "cloud", "baseline", "chaotic", "delta")
		for _, p := range []cloud.Provider{cloud.AWS, cloud.Azure, cloud.Google} {
			b, c := base.Meter.Spend(p), res.Meter.Spend(p)
			fmt.Printf("%-10s $%11.2f $%11.2f $%+11.2f\n", p, b, c, c-b)
		}
		fmt.Printf("%-10s %12d %12d %+12d  (failed runs)\n",
			"runs", countFailures(base), countFailures(res), countFailures(res)-countFailures(base))
	}

	if *showIncidents {
		fmt.Println("\n== Incidents ==")
		fmt.Print(report.Incidents(res.Incidents))
	}
}

// countFailures totals failed runs across the dataset.
func countFailures(res *core.Results) int {
	n := 0
	for _, byApp := range res.FailureSummary() {
		for _, c := range byApp {
			n += c
		}
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chaosbench:", err)
	os.Exit(1)
}
