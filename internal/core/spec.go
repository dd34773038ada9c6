package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/chaos"
)

// DefaultSeed is the study's published seed: the seed-2025 dataset is the
// golden reproduction every regression test pins.
const DefaultSeed = 2025

// StudySpec is the declarative description of what a study runs: which
// environments, which applications, at which cluster sizes, how many
// iterations, under which fault plan and which of the paper's §4.2
// operating disciplines — plus the execution policy (worker count) that
// does not affect the dataset. It replaces the hardcoded
// 13×11×4×5 matrix as the single source of truth: the default spec
// reproduces the paper's study exactly, and every other scenario is a
// different spec, not a code change.
//
// Specs are built programmatically or parsed from a line-oriented spec
// file (see ParseSpec). The zero value is normalized to the full default
// study at seed 0.
type StudySpec struct {
	// Seed is the root simulation seed every named stream derives from.
	Seed uint64
	// Envs selects environments from the study matrix: exact keys
	// ("aws-eks-cpu"), prefix globs ("azure-*"), or "*" for the whole
	// matrix. Empty means "*". Matrix order is preserved regardless of
	// pattern order.
	Envs []string
	// Apps selects applications by model name, or "*" for all eleven.
	// Empty means "*". The paper's §2.8 order is preserved.
	Apps []string
	// Scales, when non-empty, replaces every selected environment's
	// cluster sizes. Empty keeps the per-environment defaults.
	Scales []int
	// Iterations is the per-scale repeat count; 0 means the study default
	// (Iterations == 5).
	Iterations int
	// Chaos references a fault-injection plan: "" (unset) or "none"
	// (explicitly clean) for a fault-free study, "default" for the
	// built-in scenario, anything else is read as a chaos plan file path
	// (resolved when the spec is resolved). "" and "none" resolve and
	// hash identically; they differ only for tooling that fills an unset
	// reference with its own default (internal/cli), which an explicit
	// "none" blocks.
	Chaos string
	// Pause inserts a wait after each cluster size so that lagged cost
	// reporting catches up before committing to the next, larger (more
	// expensive) size — "Operating on a cloud environment with a one-day
	// reporting delay warrants careful planning and pauses between
	// experiments." Zero means no pause; at most 720h.
	Pause time.Duration
	// TestClusters brings up a small shakeout cluster (shakeoutNodes
	// nodes) per environment before the real sizes — "When feasible, we
	// recommend employing test clusters to prepare experiments and test
	// configurations."
	TestClusters bool
	// AbortOverBudget stops an environment when spend exceeds the
	// provider's budget. Without it, overspend is only discovered after
	// the reporting lag — "it is very difficult to fix overspending
	// retroactively." Concurrent environments cannot observe each
	// other's spend, so the provider budget is split evenly across the
	// provider's deployable cloud environments and each one aborts
	// against its share — the provider-wide cap holds in aggregate.
	AbortOverBudget bool
	// Workers bounds concurrent work units; 0 means runtime.NumCPU().
	// Execution policy only — never part of the spec hash.
	Workers int
}

// DefaultSpec returns the paper's full study at the given seed: every
// environment, every application, default scales, five iterations, no
// chaos.
func DefaultSpec(seed uint64) *StudySpec {
	s := &StudySpec{Seed: seed}
	s.normalize()
	return s
}

// normalize fills defaults into zero-valued fields. Seed is left alone —
// a programmatic zero seed is legitimate (spec *files* default a missing
// seed line to DefaultSeed in ParseSpec) — and Chaos keeps its spelling
// ("" unset vs "none" explicit; see the field doc).
func (s *StudySpec) normalize() {
	if len(s.Envs) == 0 {
		s.Envs = []string{"*"}
	}
	if len(s.Apps) == 0 {
		s.Apps = []string{"*"}
	}
	if s.Iterations == 0 {
		s.Iterations = Iterations
	}
	if s.Workers < 0 {
		s.Workers = 0 // the executor treats both as "all CPUs"
	}
}

// validate rejects specs that cannot be resolved deterministically.
func (s *StudySpec) validate() error {
	if s.Iterations < 1 || s.Iterations > 1000 {
		return fmt.Errorf("core: spec iterations %d outside [1, 1000]", s.Iterations)
	}
	if s.Workers > 1<<16 {
		return fmt.Errorf("core: spec workers %d above 65536", s.Workers)
	}
	if len(s.Envs) > 256 || len(s.Apps) > 256 || len(s.Scales) > 64 {
		return fmt.Errorf("core: spec selector list too long")
	}
	for _, lst := range [][]string{s.Envs, s.Apps} {
		for _, tok := range lst {
			if tok == "" || strings.ContainsAny(tok, " \t\n#") {
				return fmt.Errorf("core: spec selector token %q contains whitespace or '#'", tok)
			}
		}
	}
	for i, n := range s.Scales {
		if n < 1 || n > 1<<20 {
			return fmt.Errorf("core: spec scale %d outside [1, 2^20]", n)
		}
		if i > 0 && n <= s.Scales[i-1] {
			return fmt.Errorf("core: spec scales must be strictly ascending, got %v", s.Scales)
		}
	}
	if strings.ContainsAny(s.Chaos, "\n#") {
		return fmt.Errorf("core: spec chaos reference %q contains newline or '#'", s.Chaos)
	}
	// A month per cluster size dwarfs every provider's reporting lag and
	// keeps a campaign of many sizes far from overflowing the clock.
	if s.Pause < 0 || s.Pause > 720*time.Hour {
		return fmt.Errorf("core: spec pause %v outside [0, 720h]", s.Pause)
	}
	return nil
}

// String renders the spec in canonical spec-file syntax. For any
// normalized valid spec, ParseSpec(s.String()) reproduces s exactly.
func (s *StudySpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\n", s.Seed)
	fmt.Fprintf(&b, "envs %s\n", strings.Join(s.Envs, " "))
	fmt.Fprintf(&b, "apps %s\n", strings.Join(s.Apps, " "))
	if len(s.Scales) == 0 {
		b.WriteString("scales default\n")
	} else {
		nums := make([]string, len(s.Scales))
		for i, n := range s.Scales {
			nums[i] = strconv.Itoa(n)
		}
		fmt.Fprintf(&b, "scales %s\n", strings.Join(nums, " "))
	}
	fmt.Fprintf(&b, "iterations %d\n", s.Iterations)
	if s.Chaos != "" {
		// An unset reference stays unset (no line) so the round trip is
		// exact and tooling defaults (internal/cli) can still fill it; an
		// explicit "none" is preserved and blocks them.
		fmt.Fprintf(&b, "chaos %s\n", s.Chaos)
	}
	writeDisciplines(&b, s.Pause, s.TestClusters, s.AbortOverBudget)
	fmt.Fprintf(&b, "workers %d\n", s.Workers)
	return b.String()
}

// writeDisciplines renders each §4.2 discipline a spec sets as its
// directive, for String and Hash alike. An unset one writes nothing, so
// a spec without them keeps the text and hash it had before they existed.
func writeDisciplines(b *strings.Builder, pause time.Duration, testClusters, abortOverBudget bool) {
	if pause != 0 {
		fmt.Fprintf(b, "pause %v\n", pause)
	}
	if testClusters {
		b.WriteString("test-clusters on\n")
	}
	if abortOverBudget {
		b.WriteString("abort-over-budget on\n")
	}
}

// ParseSpec parses spec-file syntax: one directive per line,
//
//	<key> <value...>
//
// with '#' comments and blank lines ignored. Keys are seed, envs, apps,
// scales, iterations, chaos, pause (a Go duration such as 26h),
// test-clusters and abort-over-budget (on or off), and workers; all are
// optional (missing keys take the study defaults — a missing seed line
// means DefaultSeed) but none may repeat. Unknown keys, malformed values, and
// out-of-range values are errors. The parsed spec is normalized and
// validated.
func ParseSpec(src string) (*StudySpec, error) {
	s := &StudySpec{}
	seen := map[string]bool{}
	for lineNo, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		key, vals := fields[0], fields[1:]
		if seen[key] {
			return nil, fmt.Errorf("core: spec line %d: repeated key %q", lineNo+1, key)
		}
		seen[key] = true
		if len(vals) == 0 {
			return nil, fmt.Errorf("core: spec line %d: key %q has no value", lineNo+1, key)
		}
		single := func() (string, error) {
			if len(vals) != 1 {
				return "", fmt.Errorf("core: spec line %d: key %q wants one value, got %d", lineNo+1, key, len(vals))
			}
			return vals[0], nil
		}
		switch key {
		case "seed":
			v, err := single()
			if err != nil {
				return nil, err
			}
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("core: spec line %d: seed: %v", lineNo+1, err)
			}
			s.Seed = n
		case "envs":
			s.Envs = vals
		case "apps":
			s.Apps = vals
		case "scales":
			if len(vals) == 1 && vals[0] == "default" {
				break
			}
			for _, v := range vals {
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("core: spec line %d: scales: %v", lineNo+1, err)
				}
				s.Scales = append(s.Scales, n)
			}
		case "iterations":
			v, err := single()
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("core: spec line %d: iterations: %v", lineNo+1, err)
			}
			if n < 1 {
				// Explicit zero must not silently normalize to the default.
				return nil, fmt.Errorf("core: spec line %d: iterations %d outside [1, 1000]", lineNo+1, n)
			}
			s.Iterations = n
		case "chaos":
			v, err := single()
			if err != nil {
				return nil, err
			}
			s.Chaos = v
		case "pause":
			v, err := single()
			if err != nil {
				return nil, err
			}
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("core: spec line %d: pause: %v", lineNo+1, err)
			}
			s.Pause = d
		case "test-clusters", "abort-over-budget":
			v, err := single()
			if err != nil {
				return nil, err
			}
			if v != "on" && v != "off" {
				return nil, fmt.Errorf("core: spec line %d: %s wants on or off, got %q", lineNo+1, key, v)
			}
			if key == "test-clusters" {
				s.TestClusters = v == "on"
			} else {
				s.AbortOverBudget = v == "on"
			}
		case "workers":
			v, err := single()
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("core: spec line %d: workers: %v", lineNo+1, err)
			}
			s.Workers = n
		default:
			return nil, fmt.Errorf("core: spec line %d: unknown key %q", lineNo+1, key)
		}
	}
	if !seen["seed"] {
		// A seedless spec file means the published seed, not seed 0 — a
		// dataset that silently matches no golden artifact would be a trap.
		s.Seed = DefaultSeed
	}
	s.normalize()
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadSpec resolves a command-line -spec argument: "" or "default" yields
// the full default study at DefaultSeed; anything else is read as a spec
// file path.
func LoadSpec(arg string) (*StudySpec, error) {
	switch arg {
	case "", "default":
		return DefaultSpec(DefaultSeed), nil
	}
	src, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("core: reading spec: %w", err)
	}
	s, err := ParseSpec(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", arg, err)
	}
	return s, nil
}

// ResolvedSpec is a spec materialized against the study matrix: concrete
// environment rows (with any scale override applied), concrete models,
// and the loaded chaos plan, plus the spec's disciplines and worker
// policy as given. It is everything one study execution reads.
type ResolvedSpec struct {
	Seed            uint64
	Envs            []apps.EnvSpec
	Models          []apps.Model
	Iterations      int
	Plan            *chaos.Plan
	Pause           time.Duration
	TestClusters    bool
	AbortOverBudget bool
	Workers         int
}

// Resolve materializes the spec: environment patterns are matched against
// the study matrix (matrix order preserved), app names against the model
// list (§2.8 order preserved), the scale override is applied, and the
// chaos reference is loaded. A pattern or name that selects nothing is an
// error — a silent empty study hides typos.
func (s *StudySpec) Resolve() (*ResolvedSpec, error) {
	spec := *s // normalize a copy so Resolve is read-only on s
	spec.normalize()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	envs, err := apps.SelectEnvironments(spec.Envs)
	if err != nil {
		return nil, err
	}
	models, err := apps.SelectModels(spec.Apps)
	if err != nil {
		return nil, err
	}
	if len(spec.Scales) > 0 {
		for i := range envs {
			envs[i].Scales = append([]int(nil), spec.Scales...)
		}
	}
	plan, err := chaos.LoadPlan(spec.Chaos)
	if err != nil {
		return nil, err
	}
	return &ResolvedSpec{
		Seed:            spec.Seed,
		Envs:            envs,
		Models:          models,
		Iterations:      spec.Iterations,
		Plan:            plan,
		Pause:           spec.Pause,
		TestClusters:    spec.TestClusters,
		AbortOverBudget: spec.AbortOverBudget,
		Workers:         spec.Workers,
	}, nil
}

// Hash returns the canonical content hash of everything that determines
// the dataset: the seed, the resolved environment rows (keys and scales),
// the resolved model names, the iteration count, each §4.2 discipline the
// spec sets (see writeDisciplines), and the resolved chaos plan text
// (so two references to the same plan hash alike, and editing a plan
// file changes the hash). Execution policy — Workers — is deliberately
// excluded: the dataset is invariant under it, so store entries are
// shared across it.
func (s *StudySpec) Hash() (string, error) {
	r, err := s.Resolve()
	if err != nil {
		return "", err
	}
	return r.Hash(), nil
}

// Hash is the canonical content hash of the resolved spec (see
// StudySpec.Hash). Hashing the resolved form — not the spec's spelling —
// is what lets a materialized spec be hashed and executed from one
// resolution, with no window for a chaos plan file to change between
// computing the key and running the study.
func (r *ResolvedSpec) Hash() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\n", r.Seed)
	for _, e := range r.Envs {
		scales := make([]string, len(e.Scales))
		for i, n := range e.Scales {
			scales[i] = strconv.Itoa(n)
		}
		fmt.Fprintf(&b, "env %s scales=%s\n", e.Key, strings.Join(scales, ","))
	}
	names := make([]string, len(r.Models))
	for i, m := range r.Models {
		names[i] = m.Name()
	}
	sort.Strings(names) // model order never affects per-app streams
	fmt.Fprintf(&b, "apps %s\n", strings.Join(names, ","))
	fmt.Fprintf(&b, "iterations %d\n", r.Iterations)
	writeDisciplines(&b, r.Pause, r.TestClusters, r.AbortOverBudget)
	fmt.Fprintf(&b, "chaos:\n%s", r.Plan.String())
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}
