package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// referenceDecode is the encoding/json decode the codec is checked
// against: the same line split, json.Unmarshal into a fresh Record per
// line.
func referenceDecode(data []byte) ([]Record, error) {
	var out []Record
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// referenceEncode is json.Encoder's line for r.
func referenceEncode(r Record) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

func addRecordSeed(f *testing.F, r Record, line string) {
	f.Add(r.Env, r.App, r.Nodes, r.Iter, r.FOM, r.Unit, r.Error, int64(r.Wall), int64(r.Hookup), r.CostUSD, []byte(line))
}

// FuzzRecordCodec checks the hand-written Record codec against
// encoding/json, its reference:
//
//  1. the encoder writes json.Encoder's bytes, and both fail on NaN and
//     the infinities;
//  2. whatever line the decoder accepts, json.Unmarshal accepts too,
//     with a deeply equal record (the decoder may reject more);
//  3. decoding what the encoder wrote gives back the record, for finite
//     floats and valid UTF-8 strings.
func FuzzRecordCodec(f *testing.F) {
	base := Record{Env: "aws-eks-cpu", App: "lammps", Nodes: 32, Iter: 1, FOM: 17.25,
		Unit: "M-atom steps/s", Wall: 5 * time.Minute, Hookup: 12 * time.Second, CostUSD: 13.5}
	with := func(edit func(*Record)) Record {
		r := base
		edit(&r)
		return r
	}
	addRecordSeed(f, base, `{"env":"e","app":"a","nodes":1,"iter":0,"fom":1.5,"unit":"u","wall_ns":1,"hookup_ns":2,"cost_usd":0}`)
	addRecordSeed(f, with(func(r *Record) { r.Env = "<script>&amp;</script>" }), `{"env":"\u003cb\u003e\u0026"}`)
	addRecordSeed(f, with(func(r *Record) { r.Unit = "line\u2028para\u2029" }), `{"unit":"\u2028\u2029"}`)
	addRecordSeed(f, with(func(r *Record) { r.Error = "bad \xff\xfe utf8 \xed\xa0\x80" }), "{\"error\":\"\xff\"}")
	addRecordSeed(f, with(func(r *Record) { r.App = "emoji \U0001F600 ctl \x00\x1f\b\f\n\r\t\"\\\x7f" }), `{"app":"\ud83d\ude00"}`)
	addRecordSeed(f, with(func(r *Record) { r.Env = "lone" }), `{"app":"\ud800"}`)
	addRecordSeed(f, with(func(r *Record) { r.Env = "swapped" }), `{"app":"\udc00\ud800"}`)
	addRecordSeed(f, with(func(r *Record) { r.FOM = 1e-7 }), `{"fom":1e-7}`)
	addRecordSeed(f, with(func(r *Record) { r.FOM = 1e21 }), `{"fom":1e21}`)
	addRecordSeed(f, with(func(r *Record) { r.FOM = 1e20; r.CostUSD = 1e-6 }), `{"fom":1E+2}`)
	addRecordSeed(f, with(func(r *Record) { r.FOM = math.Copysign(0, -1) }), `{"fom":-0,"nodes":-0}`)
	addRecordSeed(f, with(func(r *Record) { r.FOM = 5e-324 }), `{"nodes":01}`)
	addRecordSeed(f, with(func(r *Record) { r.FOM = math.MaxFloat64 }), `{"fom":1.}`)
	addRecordSeed(f, with(func(r *Record) { r.FOM = math.NaN() }), `{"fom":+1}`)
	addRecordSeed(f, with(func(r *Record) { r.FOM = math.Inf(1) }), `{"fom":1e999}`)
	addRecordSeed(f, with(func(r *Record) { r.CostUSD = math.Inf(-1) }), `{"fom":1e-999}`)
	addRecordSeed(f, with(func(r *Record) { r.Nodes = math.MinInt64 }), `{"ENV":"x","Nodes":3}`)
	addRecordSeed(f, with(func(r *Record) { r.Wall = math.MaxInt64 }), `{"wall_ns":9223372036854775808}`)
	addRecordSeed(f, base, `{"env":null}`)
	addRecordSeed(f, base, `{"env":{}}`)
	addRecordSeed(f, base, `{"extra":{"env":"x"}}`)
	addRecordSeed(f, base, `{"nodes":1.0,"iter":1e2}`)
	addRecordSeed(f, base, ` { "env" : "a" , "env" : "b" } `+"\r")
	addRecordSeed(f, base, `{"env":"a"} {}`)
	addRecordSeed(f, base, `{"env":"a\/b\u00e9\t"}`+"\n\n"+`{"app":"c"}`)
	addRecordSeed(f, base, `{"\u0065nv":"a"}`)
	f.Fuzz(func(t *testing.T, env, app string, nodes, iter int, fom float64, unit, errMsg string, wall, hookup int64, cost float64, line []byte) {
		rec := Record{Env: env, App: app, Nodes: nodes, Iter: iter, FOM: fom, Unit: unit,
			Error: errMsg, Wall: time.Duration(wall), Hookup: time.Duration(hookup), CostUSD: cost}

		// 1. Encoder bytes.
		got, gotErr := MarshalJSONL([]Record{rec})
		want, wantErr := referenceEncode(rec)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("encode error %v, encoding/json error %v, for %+v", gotErr, wantErr, rec)
		}
		if gotErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("encode:\n got  %q\n want %q", got, want)
		}

		// 3. Round trip.
		finite := !math.IsNaN(fom) && !math.IsInf(fom, 0) && !math.IsNaN(cost) && !math.IsInf(cost, 0)
		valid := utf8.ValidString(env) && utf8.ValidString(app) && utf8.ValidString(unit) && utf8.ValidString(errMsg)
		if finite && valid {
			back, err := UnmarshalJSONL(got)
			if err != nil || len(back) != 1 || !reflect.DeepEqual(back[0], rec) {
				t.Fatalf("round trip of %q: %v, %+v", got, err, back)
			}
		}

		// 2. Decoder strictness.
		mine, err := UnmarshalJSONL(line)
		if err != nil {
			return
		}
		ref, err := referenceDecode(line)
		if err != nil {
			t.Fatalf("decoder accepted %q, encoding/json rejects it: %v", line, err)
		}
		if len(mine)+len(ref) > 0 && !reflect.DeepEqual(mine, ref) {
			t.Fatalf("decode of %q:\n got  %+v\n json %+v", line, mine, ref)
		}
	})
}

// TestRecordDecodeStrict pins the lines the decoder rejects although
// json.Unmarshal takes them: the store reads such a line as a corrupt
// artifact and recomputes, instead of guessing at what it meant. Lines
// both reject must of course stay rejected.
func TestRecordDecodeStrict(t *testing.T) {
	t.Parallel()
	jsonAccepts := []string{
		`{"env":"a","bogus":1}`,  // unknown key
		`{"ENV":"a"}`,            // case variant json folds onto Env
		`{"\u0065nv":"a"}`,       // escaped key
		`{"env":null}`,           // null
		`{"env":"a","extra":{}}`, // nested value
		"{\"env\":\"\xff\"}",     // invalid UTF-8
		`{"env":"\ud800"}`,       // unpaired surrogate
		`{"env":"\udc00\ud800"}`, // reversed pair
	}
	bothReject := []string{
		`{"fom":1e999}`,                  // beyond float64
		`{"nodes":99999999999999999999}`, // beyond int
		`{"nodes":1.0}`,                  // fraction in an integer field
		`{"fom":01}`,                     // leading zero
		`{"env":"a"} {}`,                 // data after the object
	}
	for _, line := range jsonAccepts {
		if _, err := referenceDecode([]byte(line)); err != nil {
			t.Errorf("%s: encoding/json rejects it too (%v); move it to bothReject", line, err)
		}
	}
	for _, line := range bothReject {
		if _, err := referenceDecode([]byte(line)); err == nil {
			t.Errorf("%s: encoding/json accepts it; move it to jsonAccepts", line)
		}
	}
	for _, line := range append(jsonAccepts, bothReject...) {
		if _, err := UnmarshalJSONL([]byte("{}\n" + line + "\n")); err == nil || !strings.Contains(err.Error(), "dataset: line 2: ") {
			t.Errorf("%s: accepted, or error without its line number: %v", line, err)
		}
	}
}

// studyRecords is shaped like the seed-2025 study's runs.jsonl: 2,725
// records over 13 environments, 11 applications, 10 units and a few
// distinct errors, with full-precision floats.
func studyRecords() []Record {
	recs := make([]Record, 2725)
	for i := range recs {
		r := Record{
			Env:    fmt.Sprintf("env-%02d", i%13),
			App:    fmt.Sprintf("app-%02d", i/13%11),
			Nodes:  32 << (i % 4),
			Iter:   i % 5,
			FOM:    float64(i)*1234567.891 + 0.0123,
			Unit:   fmt.Sprintf("unit %d/s", i%10),
			Wall:   time.Duration(i) * 7919 * time.Millisecond,
			Hookup: time.Duration(i) * 104729 * time.Microsecond,
		}
		if i%29 == 0 {
			r.Error = fmt.Sprintf("apps: run failed: %q", fmt.Sprint("mode ", i%9))
		}
		if i%3 == 0 {
			r.CostUSD = float64(i) / 7
		}
		recs[i] = r
	}
	return recs
}

// TestRecordCodecAllocs bounds the codec's allocations on a study-sized
// input. Encoding appends into the pooled buffer, so a warm encode
// allocates only the returned copy; decoding allocates the record slice,
// one string per distinct env, app, unit and error (interned), and the
// decoder; nothing per line.
func TestRecordCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	recs := studyRecords()
	data, err := MarshalJSONL(recs)
	if err != nil {
		t.Fatal(err)
	}
	if enc := testing.AllocsPerRun(10, func() {
		if _, err := MarshalJSONL(recs); err != nil {
			t.Fatal(err)
		}
	}); enc > 8 {
		t.Errorf("encoding %d records allocates %.0f times, want at most 8", len(recs), enc)
	}
	if dec := testing.AllocsPerRun(10, func() {
		if _, err := UnmarshalJSONL(data); err != nil {
			t.Fatal(err)
		}
	}); dec > 100 {
		t.Errorf("decoding %d records allocates %.0f times, want at most 100", len(recs), dec)
	}
}

func BenchmarkRecordCodec(b *testing.B) {
	recs := studyRecords()
	data, err := MarshalJSONL(recs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := MarshalJSONL(recs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalJSONL(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
