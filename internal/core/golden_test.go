package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cloudhpc/internal/cloud"
)

var update = flag.Bool("update", false, "rewrite golden files from the current dataset")

// goldenSnapshot serializes the parts of the dataset the paper's tables
// rest on — plus full-precision digests of the complete run list and
// trace — into a stable text form. Floats are rendered at full precision
// so the golden file pins exact bits, not rounded appearances.
func goldenSnapshot(res *Results) string {
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	var b strings.Builder

	fmt.Fprintf(&b, "runs: %d\n", len(res.Runs))
	var runs strings.Builder
	for _, r := range res.Runs {
		errMsg := ""
		if r.Err != nil {
			errMsg = r.Err.Error()
		}
		fmt.Fprintf(&runs, "%s|%s|%d|%d|%s|%s|%d|%d|%s|%q\n",
			r.EnvKey, r.App, r.Nodes, r.Iter, g(r.FOM), g(r.CostUSD),
			r.Wall.Nanoseconds(), r.Hookup.Nanoseconds(), r.Unit, errMsg)
	}
	fmt.Fprintf(&b, "run-digest: sha256:%x\n", sha256.Sum256([]byte(runs.String())))

	fmt.Fprintf(&b, "trace-events: %d\n", res.Log.Len())
	fmt.Fprintf(&b, "trace-digest: sha256:%x\n", sha256.Sum256([]byte(res.Log.Render())))

	b.WriteString("table4:\n")
	for _, row := range res.Table4() {
		fmt.Fprintf(&b, "  %s %s %s %s\n", row.EnvKey, row.Acc, g(row.RateUSD), g(row.TotalUSD))
	}

	b.WriteString("spend:\n")
	costs := res.StudyCosts()
	provs := make([]string, 0, len(costs))
	for p := range costs {
		provs = append(provs, string(p))
	}
	sort.Strings(provs)
	for _, p := range provs {
		fmt.Fprintf(&b, "  %s %s\n", p, g(costs[cloud.Provider(p)]))
	}

	b.WriteString("ecc:\n")
	eccKeys := make([]string, 0, len(res.ECCOn))
	for k := range res.ECCOn {
		eccKeys = append(eccKeys, k)
	}
	sort.Strings(eccKeys)
	for _, k := range eccKeys {
		fmt.Fprintf(&b, "  %s %s\n", k, g(res.ECCOn[k]))
	}

	b.WriteString("findings:\n")
	for _, f := range res.Findings {
		fmt.Fprintf(&b, "  %s %s\n", f.NodeID, f.Detail)
	}

	b.WriteString("hookups:\n")
	for _, spec := range res.Envs {
		nodes, times := res.HookupSeries(spec.Key)
		for i, n := range nodes {
			fmt.Fprintf(&b, "  %s %d %d\n", spec.Key, n, times[i].Nanoseconds())
		}
	}

	b.WriteString("failures:\n")
	fails := res.FailureSummary()
	for _, spec := range res.Envs {
		byApp := fails[spec.Key]
		appNames := make([]string, 0, len(byApp))
		for a := range byApp {
			appNames = append(appNames, a)
		}
		sort.Strings(appNames)
		for _, a := range appNames {
			fmt.Fprintf(&b, "  %s %s %d\n", spec.Key, a, byApp[a])
		}
	}
	return b.String()
}

// TestGoldenDataset pins the full canonical dataset for the default seed:
// Table 4, per-cloud spend, the ECC survey, audit findings, hookup
// series, the failure summary, and byte-exact digests of every run
// record and the full trace. Any refactor that silently drifts the
// reproduction — a reordered draw, a changed merge, a perturbed stream —
// fails here first. Regenerate deliberately with:
//
//	go test ./internal/core -run TestGoldenDataset -update
func TestGoldenDataset(t *testing.T) {
	got := goldenSnapshot(fullStudy(t))
	path := filepath.Join("testdata", "golden_seed2025.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("dataset drifted from golden file at line %d:\n  golden:  %q\n  current: %q\n(rerun with -update only if the change is intentional)", i+1, w, g)
		}
	}
	t.Fatal("dataset drifted from golden file (length mismatch)")
}

// TestGoldenSnapshotStable guards the snapshot serializer itself: two
// snapshots of the same shared dataset must be identical (no map-order
// leaks in the serialization).
func TestGoldenSnapshotStable(t *testing.T) {
	res := fullStudy(t)
	if a, b := goldenSnapshot(res), goldenSnapshot(res); a != b {
		t.Fatal("goldenSnapshot is not deterministic over one dataset")
	}
}
