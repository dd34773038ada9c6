// Fullstudy: run the entire cross-cloud study as an observable
// core.Runner session — watching its progress events live — and slice
// the dataset three ways.
//
// Runner.Start returns a Session: a subscribable event stream
// (study/env/unit started·finished·cached, injected incidents,
// percent-complete from the partition plan), cooperative cancellation,
// and Wait. Events are pure observation — the dataset is byte-identical
// with or without subscribers.
package main

import (
	"context"
	"fmt"
	"log"

	"cloudhpc/internal/cloud"
	"cloudhpc/internal/core"
)

func main() {
	// The default spec is the paper's full matrix. Specs are plain text —
	// this one could equally be loaded from a file with core.LoadSpec.
	spec, err := core.ParseSpec(`
seed 2025
envs *            # the full Table 1 matrix
apps *            # all 11 proxy applications
iterations 5
`)
	if err != nil {
		log.Fatal(err)
	}

	// Start the study as a session and watch it execute. Cancelling ctx
	// (or calling sess.Cancel) would stop dispatching work, drain what is
	// in flight, and return ctx's error from Wait.
	runner := &core.Runner{}
	sess, err := runner.Start(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	events, unsubscribe := sess.Subscribe()
	go func() {
		var plan core.Event // the latest study-started or progress event
		for ev := range events {
			switch ev.Kind {
			case core.EventStudyStarted:
				plan = ev
				fmt.Printf("started: %d work units planned\n", ev.Total)
			case core.EventProgress:
				plan = ev
			case core.EventEnvFinished:
				fmt.Printf("  %-26s done (%d/%d units, %.0f%%)\n",
					ev.Env, plan.Done, plan.Total, plan.Percent())
			}
		}
	}()
	res, err := sess.Wait()
	unsubscribe()
	if err != nil {
		log.Fatal(err)
	}

	// Slice 1: dataset size per environment.
	fmt.Printf("\n%d runs across %d environments\n\n", len(res.Runs), len(res.Hookups))

	// Slice 2: the cheapest and dearest AMG2023 environments (Table 4).
	rows := res.Table4()
	fmt.Printf("AMG2023 cost range: $%.2f (%s) to $%.2f (%s)\n\n",
		rows[0].TotalUSD, rows[0].Label, rows[len(rows)-1].TotalUSD, rows[len(rows)-1].Label)

	// Slice 3: per-cloud spend (§3.4).
	costs := res.StudyCosts()
	for _, p := range []cloud.Provider{cloud.AWS, cloud.Azure, cloud.Google} {
		fmt.Printf("%-8s $%.2f\n", p, costs[p])
	}

	// A scenario is a different spec, not a code change: the same study
	// restricted to the Azure environments at two scales. (Scales are
	// bounded by the study's quota model — Azure GPU grants 33 nodes, so a
	// 64-node override would fail the GPU environments, correctly.)
	azure, err := runner.Run(context.Background(), &core.StudySpec{
		Seed: 2025, Envs: []string{"azure-*"}, Scales: []int{16, 32},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nazure-only scenario: %d runs across %d environments\n",
		len(azure.Runs), len(azure.Hookups))
}
