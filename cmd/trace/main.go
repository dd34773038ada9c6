// Command trace runs the study and queries its event log — the audit
// trail behind every usability score.
//
// Usage:
//
//	trace [-spec FILE] [-seed N] [-store DIR] [-progress auto|on|off] [-env azure-aks-cpu] [-severity unexpected|blocking] [-category setup|development|application-setup|manual-intervention] [-json]
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudhpc/internal/cli"
	"cloudhpc/internal/trace"
)

func main() {
	study := cli.Register(flag.CommandLine, "")
	env := flag.String("env", "", "filter by environment key")
	severity := flag.String("severity", "", "minimum severity: routine | unexpected | blocking")
	category := flag.String("category", "", "filter by category")
	asJSON := flag.Bool("json", false, "emit JSONL instead of text")
	flag.Parse()

	minSev := trace.Routine
	switch *severity {
	case "", "routine":
	case "unexpected":
		minSev = trace.Unexpected
	case "blocking":
		minSev = trace.Blocking
	default:
		fatal(fmt.Errorf("unknown severity %q", *severity))
	}

	res, _, err := study.Run()
	if err != nil {
		cli.Fail("trace", err)
	}

	filtered := trace.NewLog()
	res.Log.All(func(e trace.Event) bool {
		if *env != "" && e.Env != *env {
			return true
		}
		if e.Severity < minSev {
			return true
		}
		if *category != "" && string(e.Category) != *category {
			return true
		}
		filtered.Add(e)
		return true
	})

	if *asJSON {
		data, err := filtered.MarshalJSONL()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	fmt.Printf("%d of %d events match\n", filtered.Len(), res.Log.Len())
	fmt.Print(filtered.Render())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trace:", err)
	os.Exit(1)
}
