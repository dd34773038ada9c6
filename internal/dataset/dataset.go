// Package dataset defines the archived record forms of the study and
// their codecs: one JSON-lines file per (environment, application),
// pushed to an OCI registry as ORAS artifacts (paper §2.9 — "Job output
// was saved to file and pushed to a registry"; the release totals 25,541
// datasets).
//
// The package is deliberately free of study semantics: it knows bytes,
// records, and registries, nothing about how a study executes. The
// conversions between live core.RunRecord values and archived Records
// live in package core (Results.Records, RunRecord.Record), which lets
// core's persistent result store reuse these same wire forms — runs,
// per-unit draw records, unit metadata — without an import cycle.
package dataset

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"cloudhpc/internal/jsonl"
	"cloudhpc/internal/oras"
)

// Record is the archived form of one run. Errors flatten to strings so
// the archive round-trips through JSON. The same form serializes a
// stored (env, app) unit's precomputed draws: there Wall and Hookup are
// the drawn model wall time and hookup draw, and CostUSD is zero (cost
// is lifecycle accounting, not a draw).
type Record struct {
	Env     string        `json:"env"`
	App     string        `json:"app"`
	Nodes   int           `json:"nodes"`
	Iter    int           `json:"iter"`
	FOM     float64       `json:"fom"`
	Unit    string        `json:"unit"`
	Error   string        `json:"error,omitempty"`
	Wall    time.Duration `json:"wall_ns"`
	Hookup  time.Duration `json:"hookup_ns"`
	CostUSD float64       `json:"cost_usd"`
}

// AppendJSONL appends the record's JSON line, without the newline: the
// bytes json.Encoder writes for it, field for field.
func (r *Record) AppendJSONL(b []byte) ([]byte, error) {
	b = append(b, `{"env":`...)
	b = jsonl.AppendString(b, r.Env)
	b = append(b, `,"app":`...)
	b = jsonl.AppendString(b, r.App)
	b = append(b, `,"nodes":`...)
	b = strconv.AppendInt(b, int64(r.Nodes), 10)
	b = append(b, `,"iter":`...)
	b = strconv.AppendInt(b, int64(r.Iter), 10)
	b = append(b, `,"fom":`...)
	b, err := jsonl.AppendFloat(b, r.FOM)
	if err != nil {
		return b, err
	}
	b = append(b, `,"unit":`...)
	b = jsonl.AppendString(b, r.Unit)
	if r.Error != "" {
		b = append(b, `,"error":`...)
		b = jsonl.AppendString(b, r.Error)
	}
	b = append(b, `,"wall_ns":`...)
	b = strconv.AppendInt(b, int64(r.Wall), 10)
	b = append(b, `,"hookup_ns":`...)
	b = strconv.AppendInt(b, int64(r.Hookup), 10)
	b = append(b, `,"cost_usd":`...)
	if b, err = jsonl.AppendFloat(b, r.CostUSD); err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// UnmarshalJSONL decodes one JSON line into the record. It is strict:
// an unknown key, a null or a value of the wrong kind is an error, and
// the store treats such a line as a corrupt artifact.
func (r *Record) UnmarshalJSONL(o *jsonl.Object) error {
	for o.Next() {
		switch string(o.Key()) {
		case "env":
			r.Env = o.Symbol()
		case "app":
			r.App = o.Symbol()
		case "nodes":
			r.Nodes = o.Int()
		case "iter":
			r.Iter = o.Int()
		case "fom":
			r.FOM = o.Float()
		case "unit":
			r.Unit = o.Symbol()
		case "error":
			r.Error = o.Symbol()
		case "wall_ns":
			r.Wall = time.Duration(o.Int64())
		case "hookup_ns":
			r.Hookup = time.Duration(o.Int64())
		case "cost_usd":
			r.CostUSD = o.Float()
		default:
			o.UnknownKey()
		}
	}
	return o.Err()
}

// MarshalJSONL encodes records as JSON lines.
func MarshalJSONL(recs []Record) ([]byte, error) {
	return jsonl.Marshal(recs)
}

// UnmarshalJSONL decodes JSON lines into records.
func UnmarshalJSONL(data []byte) ([]Record, error) {
	return jsonl.Unmarshal[Record]("dataset", data)
}

// Artifact types in the registry.
const (
	// ArtifactType marks study result datasets.
	ArtifactType = "application/vnd.cloudhpc.study.results.v1"
	// UnitArtifactType marks one (env, app) unit's precomputed model and
	// hookup draws — the incremental-execution quantum of the persistent
	// result store.
	UnitArtifactType = "application/vnd.cloudhpc.unit.draws.v1"
	// StudyBundleType marks a complete serialized study dataset (runs,
	// trace, billing charges, audits) in the persistent result store.
	StudyBundleType = "application/vnd.cloudhpc.study.bundle.v1"
)

// UnitMeta is the per-unit metadata of a stored (env, app) unit artifact
// ("unit.json" alongside "runs.jsonl"): the sub-hash key the unit is
// stored under, and the inputs that key covers, so a unit artifact is
// self-describing without the spec that produced it.
type UnitMeta struct {
	Version    int    `json:"version"`
	Key        string `json:"key"`
	Seed       uint64 `json:"seed"`
	Env        string `json:"env"`
	App        string `json:"app"`
	Iterations int    `json:"iterations"`
	Records    int    `json:"records"`
}

// AppendJSONL appends the metadata's JSON, the bytes json.Marshal
// writes for it, field for field. It never fails.
func (m *UnitMeta) AppendJSONL(b []byte) ([]byte, error) {
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, int64(m.Version), 10)
	b = append(b, `,"key":`...)
	b = jsonl.AppendString(b, m.Key)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, m.Seed, 10)
	b = append(b, `,"env":`...)
	b = jsonl.AppendString(b, m.Env)
	b = append(b, `,"app":`...)
	b = jsonl.AppendString(b, m.App)
	b = append(b, `,"iterations":`...)
	b = strconv.AppendInt(b, int64(m.Iterations), 10)
	b = append(b, `,"records":`...)
	b = strconv.AppendInt(b, int64(m.Records), 10)
	return append(b, '}'), nil
}

// UnmarshalJSONL decodes unit.json, strictly (see jsonl.Object).
func (m *UnitMeta) UnmarshalJSONL(o *jsonl.Object) error {
	for o.Next() {
		switch string(o.Key()) {
		case "version":
			m.Version = o.Int()
		case "key":
			m.Key = o.Text()
		case "seed":
			m.Seed = o.Uint64()
		case "env":
			m.Env = o.Text()
		case "app":
			m.App = o.Text()
		case "iterations":
			m.Iterations = o.Int()
		case "records":
			m.Records = o.Int()
		default:
			o.UnknownKey()
		}
	}
	return o.Err()
}

// MarshalUnit encodes a unit artifact's files: the metadata and n draw
// records, record i given by rec(i) and encoded as it is read, so the
// caller stages no record slice.
func MarshalUnit(meta UnitMeta, n int, rec func(i int) Record) (map[string][]byte, error) {
	meta.Records = n
	mj, _ := meta.AppendJSONL(make([]byte, 0, 96+len(meta.Key)+len(meta.Env)+len(meta.App))) // holds no float, so never fails
	rj, err := jsonl.MarshalEach(n, func(b []byte, i int) ([]byte, error) {
		r := rec(i)
		return r.AppendJSONL(b)
	})
	if err != nil {
		return nil, err
	}
	return map[string][]byte{"unit.json": mj, "runs.jsonl": rj}, nil
}

// UnitCursor decodes a unit artifact's metadata and returns a streaming
// cursor over its draw records, so a consumer can validate and convert
// each record in a single pass instead of materializing the full record
// slice first. The metadata's record count is not pre-validated here —
// the cursor has not seen the records yet; callers confirm it as they
// drain.
func UnitCursor(files map[string][]byte) (UnitMeta, *jsonl.Decoder[Record], error) {
	var meta UnitMeta
	mj, ok := files["unit.json"]
	if !ok {
		return meta, nil, fmt.Errorf("dataset: unit artifact has no unit.json")
	}
	if err := jsonl.Decode(mj, &meta); err != nil {
		return meta, nil, fmt.Errorf("dataset: unit.json: %w", err)
	}
	rj, ok := files["runs.jsonl"]
	if !ok {
		return meta, nil, fmt.Errorf("dataset: unit artifact has no runs.jsonl")
	}
	return meta, jsonl.NewDecoder[Record]("dataset", rj), nil
}

// Push archives run records into the registry, one artifact per
// (environment, application), tagged "results/<env>/<app>". Artifacts
// are pushed in sorted tag order so the registry's blob and manifest
// insertion sequence — not just the returned tag list — is identical run
// to run; a content-addressed archive should never depend on Go map
// iteration order. It returns the tags pushed, sorted.
func Push(reg *oras.Registry, recs []Record) ([]string, error) {
	groups := map[string][]Record{}
	for _, r := range recs {
		key := r.Env + "/" + r.App
		groups[key] = append(groups[key], r)
	}
	keys := make([]string, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	tags := make([]string, 0, len(keys))
	for _, key := range keys {
		data, err := MarshalJSONL(groups[key])
		if err != nil {
			return nil, err
		}
		tag := "results/" + key
		_, err = reg.Push(tag, ArtifactType,
			map[string][]byte{"runs.jsonl": data},
			map[string]string{"cloudhpc.records": fmt.Sprint(len(groups[key]))})
		if err != nil {
			return nil, err
		}
		tags = append(tags, tag)
	}
	return tags, nil
}

// Load retrieves one archived artifact's records.
func Load(reg *oras.Registry, tag string) ([]Record, error) {
	files, err := reg.Pull(tag)
	if err != nil {
		return nil, err
	}
	data, ok := files["runs.jsonl"]
	if !ok {
		return nil, fmt.Errorf("dataset: artifact %q has no runs.jsonl", tag)
	}
	return UnmarshalJSONL(data)
}
