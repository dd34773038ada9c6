package core

import (
	"reflect"
	"testing"
)

// FuzzSpecParse mirrors chaos.FuzzPlanParse for the study-spec grammar:
// ParseSpec must never panic, and any spec it accepts must render
// (String) and reparse to the identical normalized spec — the exact
// round trip the canonical hash and the spec-file tooling rely on.
func FuzzSpecParse(f *testing.F) {
	f.Add(DefaultSpec(DefaultSeed).String())
	f.Add("seed 7\nenvs azure-* onprem-a-cpu\napps amg2023 lammps\nscales 8 32\niterations 3\nchaos default\nworkers 16\n")
	f.Add("# comment only\n\nseed 1")
	f.Add("envs *\napps *\nscales default\nchaos none")
	f.Add("workers 0")
	f.Add("seed 18446744073709551615")
	f.Add("scales 1 2 3 4 5 6 7 8")
	f.Add("iterations 1000")
	f.Add("pause 26h\ntest-clusters on\nabort-over-budget on\n")
	f.Add("pause 0s\ntest-clusters off\nabort-over-budget off")
	f.Add("pause 1h30m0.5s")
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseSpec(src)
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		rendered := s.String()
		again, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("accepted spec does not reparse: %v\nspec: %q\nrendered: %q", err, src, rendered)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip drifted:\nfirst:  %+v\nsecond: %+v", s, again)
		}
		if again.String() != rendered {
			t.Fatalf("String not a fixed point:\nfirst:  %q\nsecond: %q", rendered, again.String())
		}
	})
}
