// Package usability folds the study's event trace into the qualitative
// effort scores of the paper's Table 3. The paper's rubric (§2.5):
//
//	low    — the documented procedure worked with minimal configuration.
//	medium — unexpected issues needed debugging or development.
//	high   — significant development effort was required.
//
// Scores are *derived from the log*, not hardcoded: a category is high if
// it saw any blocking event (or a pile-up of unexpected ones — sustained
// babysitting is significant effort too), medium if it saw any unexpected
// event, low otherwise.
package usability

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"cloudhpc/internal/trace"
)

// Effort is a qualitative score.
type Effort int

const (
	Low Effort = iota
	Medium
	High
)

// String returns the lowercase score as printed in Table 3.
func (e Effort) String() string {
	switch e {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	default:
		return fmt.Sprintf("effort(%d)", int(e))
	}
}

// Categories are the four assessed columns of Table 3, in order.
var Categories = []trace.Category{trace.Setup, trace.Development, trace.AppSetup, trace.Manual}

// Assessment is one environment's row.
type Assessment struct {
	Env    string
	Scores map[trace.Category]Effort
	// Evidence holds the worst events per category, for auditability.
	Evidence map[trace.Category][]trace.Event
}

// Scorer derives assessments from a trace log.
type Scorer struct {
	// UnexpectedHighThreshold is how many unexpected events in one
	// category amount to "significant effort" (high) even without a
	// blocking event. The CycleCloud manual-intervention column is the
	// motivating case: no single incident blocked, but every job needed
	// monitoring.
	UnexpectedHighThreshold int
}

// NewScorer returns a scorer with the study's threshold.
func NewScorer() *Scorer { return &Scorer{UnexpectedHighThreshold: 12} }

// Score assesses one environment from the log.
func (s *Scorer) Score(log *trace.Log, env string) Assessment {
	return s.ScoreAll(log, []string{env})[0]
}

// ScoreAll assesses the given environments, preserving their order, in
// one pass over the log: each unexpected or blocking event of an
// assessed category becomes evidence in its environment's row, in log
// order, and each category is scored from its evidence.
func (s *Scorer) ScoreAll(log *trace.Log, envs []string) []Assessment {
	out := make([]Assessment, len(envs))
	rows := make(map[string][]int, len(envs)) // an env listed twice gets two rows
	for i, env := range envs {
		out[i] = Assessment{
			Env:      env,
			Scores:   make(map[trace.Category]Effort, len(Categories)),
			Evidence: make(map[trace.Category][]trace.Event),
		}
		rows[env] = append(rows[env], i)
	}
	log.All(func(e trace.Event) bool {
		if (e.Severity == trace.Unexpected || e.Severity == trace.Blocking) && slices.Contains(Categories, e.Category) {
			for _, i := range rows[e.Env] {
				out[i].Evidence[e.Category] = append(out[i].Evidence[e.Category], e)
			}
		}
		return true
	})
	for _, a := range out {
		for _, cat := range Categories {
			a.Scores[cat] = s.effort(a.Evidence[cat])
		}
	}
	return out
}

// effort scores one category from its evidence by the rubric.
func (s *Scorer) effort(evidence []trace.Event) Effort {
	for _, e := range evidence {
		if e.Severity == trace.Blocking {
			return High
		}
	}
	switch {
	case len(evidence) >= s.UnexpectedHighThreshold:
		return High
	case len(evidence) > 0:
		return Medium
	default:
		return Low
	}
}

// Table renders assessments as an aligned text table in Table 3's layout.
func Table(assessments []Assessment) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-8s %-12s %-12s %-12s\n", "Environment", "Setup", "Development", "AppSetup", "Manual")
	for _, a := range assessments {
		fmt.Fprintf(&b, "%-28s %-8s %-12s %-12s %-12s\n", a.Env,
			a.Scores[trace.Setup], a.Scores[trace.Development],
			a.Scores[trace.AppSetup], a.Scores[trace.Manual])
	}
	return b.String()
}

// Summary counts score values across assessments — a quick read on how
// much of the matrix was painful.
func Summary(assessments []Assessment) map[Effort]int {
	out := map[Effort]int{}
	for _, a := range assessments {
		for _, cat := range Categories {
			out[a.Scores[cat]]++
		}
	}
	return out
}

// Delta is one score change between two assessments of an environment.
type Delta struct {
	Env      string
	Category trace.Category
	Before   Effort
	After    Effort
}

// Improved reports whether the score got easier.
func (d Delta) Improved() bool { return d.After < d.Before }

// Diff compares two assessment sets by environment — the tool for the
// paper's follow-up studies ("we are currently working with individual
// clouds to address the issues that we discovered"): rerun the study
// against updated substrates and see which cells moved.
func Diff(before, after []Assessment) []Delta {
	byEnv := make(map[string]Assessment, len(after))
	for _, a := range after {
		byEnv[a.Env] = a
	}
	var out []Delta
	for _, b := range before {
		a, ok := byEnv[b.Env]
		if !ok {
			continue
		}
		for _, cat := range Categories {
			if b.Scores[cat] != a.Scores[cat] {
				out = append(out, Delta{Env: b.Env, Category: cat,
					Before: b.Scores[cat], After: a.Scores[cat]})
			}
		}
	}
	return out
}

// HardestEnvironments returns environments sorted by total effort,
// hardest first (ties broken by name for determinism).
func HardestEnvironments(assessments []Assessment) []string {
	type scored struct {
		env   string
		total int
	}
	rows := make([]scored, 0, len(assessments))
	for _, a := range assessments {
		t := 0
		for _, cat := range Categories {
			t += int(a.Scores[cat])
		}
		rows = append(rows, scored{a.Env, t})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		return rows[i].env < rows[j].env
	})
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.env
	}
	return out
}
