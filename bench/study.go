package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/core"
	"cloudhpc/internal/report"
)

// studySpec is the paper's full study at seed, with the benchmark's
// worker count: one per CPU of the 2-CPU host the numbers come from.
func studySpec(seed uint64) *core.StudySpec {
	s := core.DefaultSpec(seed)
	s.Workers = 2
	return s
}

// runStudy is one study request inside c's timed region: spec through
// the runner, then the Markdown report a user of cmd/report reads.
// Untraced it is exactly Runner.Run plus report.Markdown; traced it
// starts a session instead, subscribes, and stamps every event as it
// arrives, so the spans show where the study's time went.
func runStudy(c *call, r *core.Runner, st *timedStore, spec *core.StudySpec) (*core.Results, error) {
	var res *core.Results
	err := c.timed(func() error {
		var err error
		if c.tr == nil {
			if res, err = r.Run(context.Background(), spec); err != nil {
				return err
			}
			return render(res)
		}
		runID := c.tr.id()
		st.scope.Store(&scope{req: c.i, parent: runID})
		t0 := time.Now()
		sess, err := r.Start(context.Background(), spec)
		if err != nil {
			st.scope.Store(nil)
			return err
		}
		sub := sess.SubscribeFrom(0)
		var evs []stamped
		for ev := range sub.Events {
			evs = append(evs, stamped{string(ev.Kind), ev.Env, ev.App, time.Now()})
		}
		res, err = sess.Wait()
		t1 := time.Now()
		st.scope.Store(nil)
		c.tr.add(runID, c.root, c.i, "core", "run", t0, t1)
		eventSpans(c.tr, c.i, runID, evs)
		c.counts.observe(c.start, evs)
		c.counts.dropped = sess.Dropped()
		c.counts.missed = sub.Missed
		if err != nil {
			return err
		}
		err = render(res)
		c.tr.add(c.tr.id(), c.root, c.i, "report", "render", t1, time.Now())
		return err
	})
	return res, err
}

// observe records what a traced request's event stream shows: time to
// the first event, the event count, and unit lookups and hits (every
// unit-started event is a lookup, every unit-cached one a hit).
func (rc *reqCounts) observe(start time.Time, evs []stamped) {
	if len(evs) > 0 {
		rc.first = evs[0].at.Sub(start)
	}
	rc.events = len(evs)
	for _, ev := range evs {
		switch core.EventKind(ev.kind) {
		case core.EventUnitStarted:
			rc.unitLookups++
		case core.EventUnitCached:
			rc.unitHits++
		}
	}
}

func render(res *core.Results) error {
	md, err := report.Markdown(res)
	if err == nil && len(md) == 0 {
		err = fmt.Errorf("empty report")
	}
	return err
}

// coldStudy is the first reproduction of the paper into an empty store:
// every compute layer plus every store write, and no store read.
type coldStudy struct {
	env  *setupEnv
	runs int
}

func newColdStudy(h *setupEnv) (instance, error) {
	return &coldStudy{env: h, runs: len(h.golden.Runs)}, nil
}

func (w *coldStudy) do(c *call) error {
	rs, st := newStore(w.env.tr)
	core.FlushCachedRuns()
	res, err := runStudy(c, &core.Runner{Store: rs}, st, studySpec(c.seed<<20+uint64(c.i)))
	core.FlushCachedRuns()
	if err != nil {
		return err
	}
	if len(res.Runs) != w.runs {
		return fmt.Errorf("cold study has %d runs, every full study has %d", len(res.Runs), w.runs)
	}
	return nil
}

func (w *coldStudy) reset() error { return nil }
func (w *coldStudy) close()       {}

// warmSize is how many full studies the warm workload stores in set-up.
const warmSize = 8

// warmStudy re-renders stored studies: decode and render only.
type warmStudy struct {
	rs      *core.ResultStore
	st      *timedStore
	specs   []*core.StudySpec
	digests [][32]byte
	order   []int // rotation over specs
}

func newWarmStudy(h *setupEnv) (instance, error) {
	rs, st := newStore(h.tr)
	w := &warmStudy{rs: rs, st: st, order: rotation(h.cfg.seed, warmSize)}
	for k := 0; k < warmSize; k++ {
		spec := studySpec(h.cfg.seed<<20 + uint64(k))
		core.FlushCachedRuns()
		res, err := (&core.Runner{Store: rs}).Run(context.Background(), spec)
		if err != nil {
			return nil, err
		}
		w.specs = append(w.specs, spec)
		w.digests = append(w.digests, digest(res))
	}
	core.FlushCachedRuns()
	return w, nil
}

func (w *warmStudy) do(c *call) error {
	k := w.order[c.i%len(w.order)]
	core.FlushCachedRuns()
	hits := w.rs.Stats().StudyHits
	res, err := runStudy(c, &core.Runner{Store: w.rs}, w.st, w.specs[k])
	core.FlushCachedRuns()
	if err != nil {
		return err
	}
	if w.rs.Stats().StudyHits != hits+1 {
		return fmt.Errorf("stored study %d was not served from the store", k)
	}
	if digest(res) != w.digests[k] {
		return fmt.Errorf("warm load of stored study %d differs from the study that was stored", k)
	}
	return nil
}

func (w *warmStudy) reset() error { return nil }
func (w *warmStudy) close()       {}

// editKinds are the fault kinds an edit's one-rule chaos plan draws from.
var editKinds = []string{"spot-reclaim", "stockout", "net-degrade", "pull-fail"}

// editStudy re-runs one stored base study under a new one-rule chaos
// plan aimed at one environment: that environment's units recompute, all
// others decode from the store, and a new study bundle is written.
type editStudy struct {
	dir         string
	tr          *tracer
	rs          *core.ResultStore
	st          *timedStore
	base        uint64
	envs        []string
	order       []int // rotation over envs
	apps, units int64
}

func newEditStudy(h *setupEnv) (instance, error) {
	envs, err := apps.StudyEnvironments()
	if err != nil {
		return nil, err
	}
	models, err := apps.SelectModels([]string{"*"})
	if err != nil {
		return nil, err
	}
	w := &editStudy{dir: h.dir, tr: h.tr, base: h.cfg.seed << 20, apps: int64(len(models))}
	for _, e := range apps.Deployable(envs) {
		w.envs = append(w.envs, e.Key)
	}
	w.order = rotation(h.cfg.seed, len(w.envs))
	if err := w.reset(); err != nil {
		return nil, err
	}
	w.units = w.rs.Stats().UnitMisses
	return w, nil
}

// reset starts a fresh store holding only the base study and its units.
func (w *editStudy) reset() error {
	w.rs, w.st = newStore(w.tr)
	core.FlushCachedRuns()
	_, err := (&core.Runner{Store: w.rs}).Run(context.Background(), studySpec(w.base))
	core.FlushCachedRuns()
	return err
}

func (w *editStudy) do(c *call) error {
	// Each (environment, fault kind) pair comes once in every
	// len(envs)*len(editKinds) requests.
	env := w.envs[w.order[c.i%len(w.envs)]]
	kind := editKinds[c.i/len(w.envs)%len(editKinds)]
	plan := filepath.Join(w.dir, "edit-plan.txt")
	// The request index in the probability makes every plan distinct.
	text := fmt.Sprintf("%s env=%s prob=0.1%06d\n", kind, env, c.i)
	if err := os.WriteFile(plan, []byte(text), 0o644); err != nil {
		return err
	}
	spec := studySpec(w.base)
	spec.Chaos = plan
	core.FlushCachedRuns()
	before := w.rs.Stats()
	res, err := runStudy(c, &core.Runner{Store: w.rs}, w.st, spec)
	core.FlushCachedRuns()
	if err != nil {
		return err
	}
	after := w.rs.Stats()
	if miss, hit := after.UnitMisses-before.UnitMisses, after.UnitHits-before.UnitHits; miss != w.apps || hit != w.units-w.apps {
		return fmt.Errorf("edit of %s recomputed %d units and decoded %d, want %d and %d", env, miss, hit, w.apps, w.units-w.apps)
	}
	if c.i%10 == 0 {
		// Every tenth edit is recomputed without any store and must match.
		ref, err := (&core.Runner{}).Run(context.Background(), spec)
		core.FlushCachedRuns()
		if err != nil {
			return err
		}
		if snapshot(ref) != snapshot(res) {
			return fmt.Errorf("incremental edit (%s on %s) differs from a store-free recompute", kind, env)
		}
	}
	return nil
}

func (w *editStudy) close() {}
