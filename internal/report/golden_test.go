package report

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudhpc/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden report files from the current renderer")

// TestMarkdownGolden pins the complete rendered report of three studies:
// the canonical seed-2025 study, the same study under the built-in fault
// plan (which adds the fault-injection section), and a subset whose
// environment rows differ from the canonical matrix — overridden scales,
// and cluster B's 4-GPU nodes on the GPU axis. The render is the
// reproduction's product, so any change to a derivation it reads — a
// figure's series order, a table row, a rounding — fails here.
// Regenerate deliberately with:
//
//	go test ./internal/report -run TestMarkdownGolden -update
func TestMarkdownGolden(t *testing.T) {
	chaotic := core.DefaultSpec(2025)
	chaotic.Chaos = "default"
	subset := core.DefaultSpec(2025)
	subset.Envs = []string{"azure-*", "onprem-b-gpu"}
	subset.Scales = []int{2, 4, 8}
	subset.Chaos = "default"
	for _, c := range []struct {
		name string
		spec *core.StudySpec
	}{
		{"seed2025", core.DefaultSpec(2025)},
		{"seed2025_chaos", chaotic},
		{"subset_chaos", subset},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := (&core.Runner{}).Run(context.Background(), c.spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Markdown(res)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "markdown_"+c.name+".md")
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
					t.Fatalf("report drifted from %s at line %d:\n  golden:  %q\n  current: %q\n(rerun with -update only if the change is intentional)", path, i+1, w, g)
				}
			}
			t.Fatalf("report drifted from %s (length mismatch)", path)
		})
	}
}
