// Command usability runs the study and prints the qualitative effort
// assessment (paper Table 3) with the evidence behind every non-low score.
//
// Usage:
//
//	usability [-spec FILE] [-seed N] [-store DIR] [-progress auto|on|off] [-evidence]
package main

import (
	"flag"
	"fmt"

	"cloudhpc/internal/cli"
	"cloudhpc/internal/usability"
)

func main() {
	study := cli.Register(flag.CommandLine, "")
	evidence := flag.Bool("evidence", false, "print the events behind each score")
	flag.Parse()

	res, _, err := study.Run()
	if err != nil {
		cli.Fail("usability", err)
	}

	assessments := res.Table3()
	fmt.Print(usability.Table(assessments))

	sum := usability.Summary(assessments)
	fmt.Printf("\nscores: %d low, %d medium, %d high\n",
		sum[usability.Low], sum[usability.Medium], sum[usability.High])
	fmt.Println("hardest environments first:")
	for i, env := range usability.HardestEnvironments(assessments) {
		fmt.Printf("  %2d. %s\n", i+1, env)
	}

	if *evidence {
		fmt.Println("\nevidence:")
		for _, a := range assessments {
			for _, cat := range usability.Categories {
				for _, e := range a.Evidence[cat] {
					fmt.Printf("%-26s %-20s %-10s %s\n", a.Env, cat, e.Severity, e.Msg)
				}
			}
		}
	}
}
