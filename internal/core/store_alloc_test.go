package core

import (
	"context"
	"runtime"
	"testing"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/chaos"
	"cloudhpc/internal/dataset"
	"cloudhpc/internal/network"
	"cloudhpc/internal/store"
)

// The allocation ceilings of the store path. Like every AllocsPerRun
// ceiling they skip under -race, whose instrumentation allocates.

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestUnitKeyAllocs pins a unit key to its one allocation, the key
// string, whether or not a chaos plan targets the environment: the key
// text is appended into a stack buffer and hashed once, and a shard
// renders its chaos slice once for all of its units.
func TestUnitKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are off under -race")
	}
	env, err := apps.EnvByKey("aws-eks-cpu")
	if err != nil {
		t.Fatal(err)
	}
	slice := unitChaosText(chaos.DefaultPlan(), env.Key)
	if slice == "" {
		t.Fatal("the default chaos plan does not target aws-eks-cpu")
	}
	for _, tc := range []struct {
		name  string
		slice string
	}{{"clean", ""}, {"default chaos", slice}} {
		got := testing.AllocsPerRun(100, func() { unitKey(2025, env, "lammps", Iterations, tc.slice) })
		if got > 1 {
			t.Errorf("%s: a unit key allocates %.0f times, want at most 1", tc.name, got)
		}
	}
	if got := testing.AllocsPerRun(100, func() { UnitKey(2025, env, "lammps", Iterations, nil) }); got > 1 {
		t.Errorf("UnitKey without a plan allocates %.0f times, want at most 1", got)
	}
}

// TestUnitArtifactAllocs caps storing one computed unit and loading it
// back, the unit tier's per-unit cost: no encoding/json on either side,
// no staged record slice on the save.
func TestUnitArtifactAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are off under -race")
	}
	env, err := apps.EnvByKey("aws-eks-cpu")
	if err != nil {
		t.Fatal(err)
	}
	models, err := apps.SelectModels([]string{"lammps"})
	if err != nil {
		t.Fatal(err)
	}
	u := planUnit(2025, env, models[0], Iterations, network.NewHookupModel())
	key := UnitKey(2025, env, "lammps", Iterations, nil)
	meta := dataset.UnitMeta{Version: storeSchemaVersion, Key: key, Seed: 2025,
		Env: env.Key, App: "lammps", Iterations: Iterations}
	rs := NewResultStore(store.NewMemory())
	rs.Logf = t.Logf
	const ceiling = 62
	got := testing.AllocsPerRun(20, func() {
		rs.saveUnit(meta, u)
		if _, ok := rs.loadUnit(key, env, "lammps", Iterations); !ok {
			t.Fatal("stored unit did not load")
		}
	})
	t.Logf("saving and loading a %d-run unit allocates %.0f/op", len(u.runs), got)
	if got > ceiling {
		t.Errorf("saving and loading a %d-run unit allocates %.0f/op, want <= %d", len(u.runs), got, ceiling)
	}
}

// TestSaveStudyAllocsBytes caps the bytes of saving the seed-2025 study:
// the bundle files' encodes write from the live runs and trace events,
// so past the pooled encode buffers a save allocates little more than
// the files themselves (about 1 MB).
func TestSaveStudyAllocsBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are off under -race")
	}
	rs, _ := quietStore(t)
	st, r := newTestStudy(t, &StudySpec{Seed: 2025}, nil)
	res, err := st.runSession(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 1400 << 10
	got := bytesPerRun(10, func() {
		if err := rs.SaveStudy(r, res); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("SaveStudy on seed 2025 allocates %.0f bytes/op", got)
	if got > ceiling {
		t.Errorf("SaveStudy on seed 2025 allocates %.0f bytes/op, want <= %d", got, ceiling)
	}
}

// TestSubscribeFinishedSessionAllocsBytes caps a subscription to a
// finished session, the path a reattach takes: its channel holds exactly
// the replayed events, with no live buffer behind them, and the replay
// is copied from the ring without a staging slice.
func TestSubscribeFinishedSessionAllocsBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are off under -race")
	}
	sess, err := (&Runner{}).Start(context.Background(), &StudySpec{Seed: 770004, Envs: []string{"aws-eks-cpu"}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	events := 0
	for range sess.SubscribeFrom(0).Events {
		events++
	}
	if events < 30 {
		t.Fatalf("the session replays %d events, want a whole one-environment study", events)
	}
	const ceiling = 16 << 10
	got := bytesPerRun(20, func() {
		for range sess.SubscribeFrom(0).Events {
		}
	})
	t.Logf("subscribing to a finished %d-event session allocates %.0f bytes/op", events, got)
	if got > ceiling {
		t.Errorf("subscribing to a finished %d-event session allocates %.0f bytes/op, want <= %d", events, got, ceiling)
	}
}
