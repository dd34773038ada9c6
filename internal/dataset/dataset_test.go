package dataset_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"cloudhpc/internal/core"
	"cloudhpc/internal/dataset"
	"cloudhpc/internal/oras"
	"cloudhpc/internal/store"
)

func sampleRuns() []core.RunRecord {
	return []core.RunRecord{
		{EnvKey: "google-gke-cpu", App: "lammps", Nodes: 32, Iter: 0, FOM: 17.7, Unit: "M-atom steps/s",
			Wall: 5 * time.Minute, Hookup: 12 * time.Second, CostUSD: 13.5},
		{EnvKey: "google-gke-cpu", App: "lammps", Nodes: 32, Iter: 1, FOM: 18.1, Unit: "M-atom steps/s"},
		{EnvKey: "azure-aks-cpu", App: "laghos", Nodes: 128, Err: errors.New("apps: run exceeded wall-time limit")},
	}
}

func records(runs []core.RunRecord) []dataset.Record {
	out := make([]dataset.Record, len(runs))
	for i, r := range runs {
		out[i] = r.Record()
	}
	return out
}

func TestJSONLRoundTrip(t *testing.T) {
	t.Parallel()
	recs := records(sampleRuns())
	data, err := dataset.MarshalJSONL([]dataset.Record{recs[0], recs[2]})
	if err != nil {
		t.Fatal(err)
	}
	back, err := dataset.UnmarshalJSONL(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip lost records: %d", len(back))
	}
	if back[0].FOM != 17.7 || back[0].Wall != 5*time.Minute {
		t.Fatalf("fields lost: %+v", back[0])
	}
	if back[1].Error == "" {
		t.Fatalf("error string lost")
	}
}

// TestFromRunRoundTripProperty is the archive's fidelity proof: for
// arbitrary runs — success and error, with duration, hookup, and cost
// fields — converting to the archived form, marshalling to JSON lines,
// and unmarshalling back reproduces the source exactly. JSON floats use
// shortest round-trip encoding and durations are integer nanoseconds, so
// equality here is bitwise, which is what the persistent result store's
// byte-identity guarantee rests on.
func TestFromRunRoundTripProperty(t *testing.T) {
	t.Parallel()
	f := func(envTag, appTag uint8, nodes, iter uint16, fom float64, wall, hookup int64, cost float64, errMsg string) bool {
		if math.IsNaN(fom) || math.IsInf(fom, 0) || math.IsNaN(cost) || math.IsInf(cost, 0) {
			return true // JSON cannot carry these; the simulation never produces them
		}
		src := core.RunRecord{
			EnvKey: "env-" + strings.Repeat("x", int(envTag%4)+1),
			App:    "app-" + strings.Repeat("y", int(appTag%4)+1),
			Nodes:  int(nodes), Iter: int(iter),
			FOM: fom, Unit: "units/s",
			Wall:    time.Duration(wall),
			Hookup:  time.Duration(hookup),
			CostUSD: cost,
		}
		if errMsg = strings.ToValidUTF8(errMsg, ""); errMsg != "" {
			src.Err = errors.New(errMsg)
		}
		data, err := dataset.MarshalJSONL([]dataset.Record{src.Record()})
		if err != nil {
			return false
		}
		back, err := dataset.UnmarshalJSONL(data)
		if err != nil || len(back) != 1 {
			return false
		}
		return reflect.DeepEqual(back[0], src.Record())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalSkipsBlankLinesRejectsGarbage(t *testing.T) {
	t.Parallel()
	ok, err := dataset.UnmarshalJSONL([]byte("\n\n{\"env\":\"e\",\"app\":\"a\"}\n\n"))
	if err != nil || len(ok) != 1 {
		t.Fatalf("blank lines should be skipped: %v %d", err, len(ok))
	}
	_, err = dataset.UnmarshalJSONL([]byte("not json\n"))
	if err == nil {
		t.Fatalf("garbage line accepted")
	}
	if !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("error should carry the line number: %v", err)
	}
}

func TestPushAndLoad(t *testing.T) {
	t.Parallel()
	reg := oras.NewRegistry()
	tags, err := dataset.Push(reg, records(sampleRuns()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tags) != 2 {
		t.Fatalf("tags = %v, want 2 (one per env/app)", tags)
	}
	if tags[0] != "results/azure-aks-cpu/laghos" {
		t.Fatalf("tag order: %v", tags)
	}
	recs, err := dataset.Load(reg, "results/google-gke-cpu/lammps")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Iter != 0 || recs[1].Iter != 1 {
		t.Fatalf("loaded %+v", recs)
	}
	if _, err := dataset.Load(reg, "results/absent/app"); err == nil {
		t.Fatalf("missing tag should error")
	}
}

// recordingStore wraps a BlobStore and logs the digest of every Put —
// the probe for insertion-order determinism.
type recordingStore struct {
	store.BlobStore
	puts []string
}

func (r *recordingStore) Put(data []byte) (string, error) {
	d, err := r.BlobStore.Put(data)
	r.puts = append(r.puts, d)
	return d, err
}

// TestPushInsertionOrderDeterministic pins the fix for the
// nondeterministic push order: Push used to range over its grouping map,
// so the registry's blob and manifest insertion sequence varied run to
// run even though the content didn't. Two pushes of the same dataset
// must now drive byte-identical Put sequences into the backing store.
func TestPushInsertionOrderDeterministic(t *testing.T) {
	t.Parallel()
	// Enough (env, app) groups that map iteration order would almost
	// surely differ between two attempts.
	var runs []core.RunRecord
	for _, env := range []string{"e1", "e2", "e3", "e4", "e5", "e6"} {
		for _, app := range []string{"a1", "a2", "a3", "a4"} {
			runs = append(runs, core.RunRecord{EnvKey: env, App: app, Nodes: 4, FOM: 1})
		}
	}
	sequence := func() []string {
		rec := &recordingStore{BlobStore: store.NewMemory()}
		if _, err := dataset.Push(oras.NewRegistryWith(rec), records(runs)); err != nil {
			t.Fatal(err)
		}
		return rec.puts
	}
	first := sequence()
	for i := 0; i < 5; i++ {
		if got := sequence(); !reflect.DeepEqual(got, first) {
			t.Fatalf("push %d drove a different insertion sequence:\n%v\nvs\n%v", i+2, got, first)
		}
	}
}

func TestUnitArtifactRoundTrip(t *testing.T) {
	t.Parallel()
	meta := dataset.UnitMeta{Version: 1, Key: "abc123", Seed: 2025, Env: "aws-eks-cpu", App: "lammps", Iterations: 5}
	recs := []dataset.Record{
		{Env: "aws-eks-cpu", App: "lammps", Nodes: 32, Iter: 0, FOM: 3.5, Unit: "M-atom steps/s", Wall: time.Minute, Hookup: 9 * time.Second},
		{Env: "aws-eks-cpu", App: "lammps", Nodes: 32, Iter: 1, FOM: 3.6, Unit: "M-atom steps/s", Wall: time.Minute, Hookup: 9 * time.Second},
	}
	files, err := dataset.MarshalUnit(meta, len(recs), func(i int) dataset.Record { return recs[i] })
	if err != nil {
		t.Fatal(err)
	}
	gotMeta, cur, err := dataset.UnitCursor(files)
	if err != nil {
		t.Fatal(err)
	}
	var gotRecs []dataset.Record
	for {
		rec, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		gotRecs = append(gotRecs, rec)
	}
	meta.Records = 2
	if gotMeta != meta || !reflect.DeepEqual(gotRecs, recs) {
		t.Fatalf("round trip drifted: %+v %+v", gotMeta, gotRecs)
	}
	if _, _, err := dataset.UnitCursor(map[string][]byte{"runs.jsonl": nil}); err == nil {
		t.Fatal("missing unit.json accepted")
	}
}

func TestFullStudyArchives(t *testing.T) {
	t.Parallel()
	res, err := (&core.Runner{}).Run(context.Background(), core.DefaultSpec(99))
	if err != nil {
		t.Fatal(err)
	}
	reg := oras.NewRegistry()
	tags, err := dataset.Push(reg, res.Records())
	if err != nil {
		t.Fatal(err)
	}
	// 13 environments × 11 apps = 143 artifacts.
	if len(tags) != 143 {
		t.Fatalf("archived %d artifacts, want 143", len(tags))
	}
	// Every artifact loads back and the total record count matches.
	total := 0
	for _, tag := range tags {
		recs, err := dataset.Load(reg, tag)
		if err != nil {
			t.Fatalf("load %s: %v", tag, err)
		}
		total += len(recs)
	}
	if total != len(res.Runs) {
		t.Fatalf("archive has %d records, study has %d", total, len(res.Runs))
	}
}
