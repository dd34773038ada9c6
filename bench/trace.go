package main

// Tracing for the traced run. Every span is recorded from outside the
// program: around the benchmark's own calls into public functions,
// inside decorators of the public interfaces the program accepts
// (store.BlobStore, core.FleetDelegate), and from wall-clock stamps
// taken as a subscriber receives session events. Spans stay in memory
// and are written out when the run ends.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cloudhpc/internal/core"
	"cloudhpc/internal/store"
)

// span is one timed interval at a layer boundary. Req is the measured
// request the span belongs to, or -1 when several callers share the
// instrumented object and the call cannot be attributed. Parent 0 marks
// a request's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds the spans and the per-layer counters of a traced run.
// Recording is switched on per traced request (or per traced epoch);
// the decorators cost one atomic load per call while it is off.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	on     atomic.Bool
	mu     sync.Mutex
	spans  []span

	put, get, ref, has  opStat
	offloads, fallbacks atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enabled reports whether calls are being recorded; nil-safe, so an
// untraced run passes no tracer at all.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// id reserves a span ID, so children can name a parent that closes
// after them.
func (t *tracer) id() int64 { return t.nextID.Add(1) }

func (t *tracer) add(id, parent int64, req int, layer, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// spanMedian is the median, over the traced requests, of agg applied to
// the durations in ms of the request's spans of one layer and name, at
// the reference host's speed. A request without such spans counts
// agg(nil).
func (win *window) spanMedian(layer, name string, agg func([]float64) float64) float64 {
	byReq := map[int][]float64{}
	for _, s := range win.tr.spans {
		if s.Layer == layer && s.Name == name && s.Req >= 0 {
			byReq[s.Req] = append(byReq[s.Req], float64(s.End-s.Start)/1e6)
		}
	}
	var v []float64
	for _, s := range win.samples {
		if s.traced {
			v = append(v, agg(byReq[s.i])*win.scale(s.block))
		}
	}
	return median(v)
}

// layerTime is one (layer, name) row of the span summary.
type layerTime struct {
	layer, name string
	count       int
	total, self time.Duration
}

// summarize folds spans into per-(layer, name) totals. A span's self
// time is its duration minus the union of its children's intervals.
func summarize(spans []span) []layerTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[[2]string]*layerTime{}
	for _, s := range spans {
		k := [2]string{s.Layer, s.Name}
		r := rows[k]
		if r == nil {
			r = &layerTime{layer: s.Layer, name: s.Name}
			rows[k] = r
		}
		r.count++
		r.total += time.Duration(s.End - s.Start)
		r.self += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].layer != out[j].layer {
			return out[i].layer < out[j].layer
		}
		return out[i].name < out[j].name
	})
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			sum += v.b - v.a
			end = v.b
		} else if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return time.Duration(sum)
}

// printSummary writes the span table, per traced request, as comment
// lines ahead of the result line.
func printSummary(w io.Writer, rows []layerTime, requests int) {
	if requests == 0 {
		return
	}
	fmt.Fprintf(w, "# spans over %d traced requests: layer/name count/req ms/req self_ms/req\n", requests)
	n := float64(requests)
	for _, r := range rows {
		fmt.Fprintf(w, "#   %-24s %8.2f %10.3f %10.3f\n", r.layer+"/"+r.name,
			float64(r.count)/n, ms(r.total)/n, ms(r.self)/n)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// scope is what an instrumented call is attributed to: a request and the
// span it runs under.
type scope struct {
	req    int
	parent int64
}

// opStat counts one kind of store operation.
type opStat struct {
	n, ns, bytes atomic.Int64
}

// timedStore decorates a store.BlobStore: while tracing is on, each call
// adds to the tracer's per-operation count, time and bytes, and records
// a span.
type timedStore struct {
	store.BlobStore
	tr    *tracer
	scope atomic.Pointer[scope] // nil: calls are not attributable to one request
}

func (s *timedStore) done(op *opStat, name string, bytes int, start time.Time) {
	end := time.Now()
	op.n.Add(1)
	op.ns.Add(end.Sub(start).Nanoseconds())
	op.bytes.Add(int64(bytes))
	sc := scope{req: -1}
	if p := s.scope.Load(); p != nil {
		sc = *p
	}
	s.tr.add(s.tr.id(), sc.parent, sc.req, "store", name, start, end)
}

func (s *timedStore) Put(data []byte) (string, error) {
	if !s.tr.enabled() {
		return s.BlobStore.Put(data)
	}
	t := time.Now()
	d, err := s.BlobStore.Put(data)
	s.done(&s.tr.put, "put", len(data), t)
	return d, err
}

func (s *timedStore) Get(digest string) ([]byte, error) {
	if !s.tr.enabled() {
		return s.BlobStore.Get(digest)
	}
	t := time.Now()
	b, err := s.BlobStore.Get(digest)
	s.done(&s.tr.get, "get", len(b), t)
	return b, err
}

func (s *timedStore) Has(digest string) bool {
	if !s.tr.enabled() {
		return s.BlobStore.Has(digest)
	}
	t := time.Now()
	ok := s.BlobStore.Has(digest)
	s.done(&s.tr.has, "has", 0, t)
	return ok
}

func (s *timedStore) Ref(name string) (string, bool) {
	if !s.tr.enabled() {
		return s.BlobStore.Ref(name)
	}
	t := time.Now()
	d, ok := s.BlobStore.Ref(name)
	s.done(&s.tr.ref, "ref", 0, t)
	return d, ok
}

func (s *timedStore) SetRef(name, digest string) error {
	if !s.tr.enabled() {
		return s.BlobStore.SetRef(name, digest)
	}
	t := time.Now()
	err := s.BlobStore.SetRef(name, digest)
	s.done(&s.tr.ref, "ref", 0, t)
	return err
}

func (s *timedStore) SetRefs(refs map[string]string) error {
	if !s.tr.enabled() {
		return s.BlobStore.SetRefs(refs)
	}
	t := time.Now()
	err := s.BlobStore.SetRefs(refs)
	s.done(&s.tr.ref, "ref", 0, t)
	return err
}

// newStore returns a result store over an empty in-process blob store
// behind the timing decorator. The stores are in memory, not on disk:
// on this benchmark's 2-CPU VM an on-disk store's cold p50 drifted from
// 156 to 244 ms over four back-to-back runs as the filesystem's
// writeback state changed, which measures the disk, not the program.
// The store.* counts of the traced run keep the per-blob traffic a disk
// store would see visible.
func newStore(tr *tracer) (*core.ResultStore, *timedStore) {
	ts := &timedStore{BlobStore: store.NewMemory(), tr: tr}
	rs := core.NewResultStore(ts)
	rs.Logf = nil
	return rs, ts
}

// timedFleet decorates the daemon's core.FleetDelegate. Offloaded units
// carry their study's seed, and every daemon request submits a study
// with a seed of its own, so each offload is attributed to the request
// that caused it.
type timedFleet struct {
	core.FleetDelegate
	tr *tracer

	mu     sync.Mutex
	bySeed map[uint64]scope
}

func (f *timedFleet) attribute(seed uint64, sc scope) {
	f.mu.Lock()
	if f.bySeed == nil {
		f.bySeed = map[uint64]scope{}
	}
	f.bySeed[seed] = sc
	f.mu.Unlock()
}

func (f *timedFleet) Offload(ctx context.Context, w core.UnitWork, observe func(core.EventKind)) bool {
	if !f.tr.enabled() {
		return f.FleetDelegate.Offload(ctx, w, observe)
	}
	t := time.Now()
	ok := f.FleetDelegate.Offload(ctx, w, observe)
	end := time.Now()
	f.tr.offloads.Add(1)
	if !ok {
		f.tr.fallbacks.Add(1)
	}
	f.mu.Lock()
	sc, found := f.bySeed[w.Seed]
	f.mu.Unlock()
	if !found {
		sc = scope{req: -1}
	}
	f.tr.add(f.tr.id(), sc.parent, sc.req, "fleet", "offload", t, end)
	return ok
}

// stamped is one session event as a subscriber received it.
type stamped struct {
	kind, env, app string
	at             time.Time
}

// eventSpans turns a request's stamped event stream into core spans: one
// per environment (started to finished), one per unit (started to
// computed, decoded or remote), and the save (last environment finished
// to study finished: merge plus the study bundle write).
func eventSpans(tr *tracer, req int, parent int64, evs []stamped) {
	open := map[string]time.Time{}
	var lastEnv time.Time
	for _, ev := range evs {
		switch core.EventKind(ev.kind) {
		case core.EventEnvStarted:
			open["env/"+ev.env] = ev.at
		case core.EventEnvFinished, core.EventEnvFailed:
			if t, ok := open["env/"+ev.env]; ok {
				tr.add(tr.id(), parent, req, "core", "env", t, ev.at)
				lastEnv = ev.at
			}
		case core.EventUnitStarted:
			open["unit/"+ev.env+"/"+ev.app] = ev.at
		case core.EventUnitFinished, core.EventUnitCached, core.EventUnitRemote:
			name := map[core.EventKind]string{
				core.EventUnitFinished: "unit_compute",
				core.EventUnitCached:   "unit_decode",
				core.EventUnitRemote:   "unit_remote",
			}[core.EventKind(ev.kind)]
			if t, ok := open["unit/"+ev.env+"/"+ev.app]; ok {
				tr.add(tr.id(), parent, req, "core", name, t, ev.at)
			}
		case core.EventStudyFinished:
			if !lastEnv.IsZero() {
				tr.add(tr.id(), parent, req, "core", "save", lastEnv, ev.at)
			}
		}
	}
}
