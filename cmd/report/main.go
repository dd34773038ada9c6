// Command report runs the study and writes the complete results report as
// markdown — every table, figure, audit, and failure in one document.
//
// Usage:
//
//	report [-spec FILE] [-seed N] [-workers N] [-store DIR] [-progress auto|on|off] [-o report.md] [-chaos default|FILE]
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudhpc/internal/cli"
	"cloudhpc/internal/core"
	"cloudhpc/internal/report"
)

func main() {
	study := cli.Register(flag.CommandLine, "")
	out := flag.String("o", "", "output file (default stdout)")
	pause := flag.Duration("pause", 0, "pause between scales for cost reporting (e.g. 26h)")
	testClusters := flag.Bool("test-clusters", false, "shake out each environment on a small test cluster first")
	flag.Parse()

	// No non-spec options: the runner shares the process-wide spec-keyed
	// cache; with them, it bypasses the cached tiers (the dataset depends
	// on more than the spec).
	var configure func(*core.Options)
	if *pause != 0 || *testClusters {
		configure = func(o *core.Options) {
			o.PauseBetweenScales = *pause
			o.TestClusters = *testClusters
		}
	}
	res, _, err := study.Run(configure)
	if err != nil {
		cli.Fail("report", err)
	}
	md, err := report.Markdown(res)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		fmt.Print(md)
		return
	}
	if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, len(md))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "report:", err)
	os.Exit(1)
}
