package dataset

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"

	"cloudhpc/internal/jsonl"
)

// FuzzUnmarshalJSONL hardens the archive reader: arbitrary bytes must
// never panic, and whatever parses must re-marshal.
func FuzzUnmarshalJSONL(f *testing.F) {
	f.Add([]byte(`{"env":"e","app":"a","fom":1.5}` + "\n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte("not json"))
	f.Add([]byte(`{"env":"e"}` + "\n" + `{"app":"b"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := UnmarshalJSONL(data)
		if err != nil {
			return
		}
		if _, err := MarshalJSONL(recs); err != nil {
			t.Fatalf("parsed records do not re-marshal: %v", err)
		}
	})
}

// FuzzUnitMetaCodec checks the hand-written unit.json codec against
// encoding/json, its reference:
//
//  1. the encoder writes json.Marshal's bytes;
//  2. whatever the decoder accepts, json.Unmarshal accepts too, with an
//     equal value (the decoder may reject more);
//  3. decoding what the encoder wrote gives back the metadata, for
//     valid UTF-8 strings.
func FuzzUnitMetaCodec(f *testing.F) {
	add := func(m UnitMeta, data string) {
		f.Add(m.Version, m.Key, m.Seed, m.Env, m.App, m.Iterations, m.Records, []byte(data))
	}
	base := UnitMeta{Version: 2, Key: "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",
		Seed: 2025, Env: "aws-eks-cpu", App: "lammps", Iterations: 5, Records: 30}
	add(base, `{"version":2,"key":"k","seed":2025,"env":"e","app":"a","iterations":5,"records":30}`)
	add(UnitMeta{Seed: math.MaxUint64, Version: math.MinInt64, Records: math.MaxInt64}, `{"seed":18446744073709551615}`)
	add(UnitMeta{Key: "<b>&amp;</b>", Env: "line\u2028para\u2029", App: "\x00\x1f\"\\"}, `{"seed":18446744073709551616}`)
	add(UnitMeta{Key: "bad \xff utf8", Env: "\xed\xa0\x80", App: "\U0001F600"}, `{"seed":-1}`)
	add(base, `{"seed":-0}`)
	add(base, `{"seed":1.0}`)
	add(base, `{"seed":1e3}`)
	add(base, `{"version":null}`)
	add(base, `{"Version":2}`)
	add(base, `{"key":"\ud800"}`)
	add(base, `{"key":"a","key":"b"}`)
	add(base, `{"env":{}}`)
	add(base, `{} {}`)
	add(base, "{\n \"app\" : \"\\u00e9\"\n}\n")
	f.Fuzz(func(t *testing.T, version int, key string, seed uint64, env, app string, iterations, records int, data []byte) {
		m := UnitMeta{Version: version, Key: key, Seed: seed, Env: env, App: app, Iterations: iterations, Records: records}

		// 1. Encoder bytes.
		got, err := m.AppendJSONL(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encode:\n got  %s\n want %s", got, want)
		}

		// 3. Round trip.
		if utf8.ValidString(key) && utf8.ValidString(env) && utf8.ValidString(app) {
			var back UnitMeta
			if err := jsonl.Decode(got, &back); err != nil || back != m {
				t.Fatalf("round trip of %s: %v, %+v", got, err, back)
			}
		}

		// 2. Decoder strictness.
		var mine UnitMeta
		if err := jsonl.Decode(data, &mine); err != nil {
			return
		}
		var ref UnitMeta
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("decoder accepted %q, encoding/json rejects it: %v", data, err)
		}
		if mine != ref {
			t.Fatalf("decode of %q:\n got  %+v\n json %+v", data, mine, ref)
		}
	})
}
