// Command report runs the study and writes the complete results report as
// markdown — every table, figure, audit, and failure in one document.
//
// Usage:
//
//	report [-spec FILE] [-seed N] [-workers N] [-store DIR] [-progress auto|on|off] [-o report.md] [-chaos default|FILE] [-pause 26h] [-test-clusters]
//
// -pause and -test-clusters set the spec's pause and test-clusters
// directives (§4.2), so -store serves such a run warm like any other.
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudhpc/internal/cli"
	"cloudhpc/internal/report"
)

func main() {
	study := cli.Register(flag.CommandLine, "")
	out := flag.String("o", "", "output file (default stdout)")
	pause := flag.Duration("pause", 0, "pause between scales for cost reporting (e.g. 26h)")
	testClusters := flag.Bool("test-clusters", false, "shake out each environment on a small test cluster first")
	flag.Parse()

	spec, err := study.Spec()
	if err != nil {
		cli.Fail("report", err)
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "pause":
			spec.Pause = *pause
		case "test-clusters":
			spec.TestClusters = *testClusters
		}
	})
	res, err := study.RunSpec(spec)
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
