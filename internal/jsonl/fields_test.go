package jsonl

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// fixed is rec with a hand-written codec, so Marshal, Unmarshal and
// Decoder take the fixed-field path for it.
type fixed struct {
	Name string  `json:"name"`
	N    int     `json:"n"`
	F    float64 `json:"f"`
}

func (v *fixed) AppendJSONL(b []byte) ([]byte, error) {
	b = append(b, `{"name":`...)
	b = AppendString(b, v.Name)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(v.N), 10)
	b = append(b, `,"f":`...)
	b, err := AppendFloat(b, v.F)
	if err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

func (v *fixed) UnmarshalJSONL(o *Object) error {
	for o.Next() {
		switch string(o.Key()) {
		case "name":
			v.Name = o.Symbol()
		case "n":
			v.N = o.Int()
		case "f":
			v.F = o.Float()
		default:
			o.UnknownKey()
		}
	}
	return o.Err()
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	t.Parallel()
	var ascii strings.Builder
	for c := 0; c < 128; c++ {
		ascii.WriteByte(byte(c))
	}
	for _, s := range []string{
		"", "plain", ascii.String(), "<script>&amp;</script>",
		"line\u2028para\u2029end", "\u00e9\u4e16\U0001F600",
		"bad \xff\xfe byte", "surrogate \xed\xa0\x80 encoded", "cut \xe4\xb8",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, encoding/json %s", s, got, want)
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	t.Parallel()
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 123456789.123,
		1e-6, 9.99e-7, 1e-7, 1.5e-300, 5e-324,
		1e20, 1e21, 1.2345e22, math.MaxFloat64, -1e21,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat(nil, f)
		if err != nil || string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, %v; encoding/json %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); err == nil {
			t.Errorf("AppendFloat(%v) succeeded; JSON has no form for it", f)
		}
	}
}

func TestFixedFieldCodecDispatch(t *testing.T) {
	t.Parallel()
	in := []fixed{{"a", 1, 0.5}, {"<b>\u2028", -2, 1e-7}, {"a", 3, 1e21}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	// The reflection path is the reference for the bytes.
	var want strings.Builder
	for _, v := range in {
		line, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		want.WriteByte('\n')
	}
	if string(data) != want.String() {
		t.Fatalf("Marshal:\n got  %q\n want %q", data, want.String())
	}
	out, err := Unmarshal[fixed]("test", data)
	if err != nil || len(out) != len(in) {
		t.Fatalf("Unmarshal: %v %v", err, out)
	}
	d := NewDecoder[fixed]("test", data)
	for i := range in {
		v, ok, err := d.Next()
		if err != nil || !ok || v != in[i] || out[i] != in[i] {
			t.Fatalf("record %d: decoder %+v %v %v, Unmarshal %+v, want %+v", i, v, ok, err, out[i], in[i])
		}
	}
	if _, err := Marshal([]fixed{{F: math.NaN()}}); err == nil {
		t.Fatal("NaN encoded")
	}
	_, err = Unmarshal[fixed]("test", []byte("{\"n\":1}\n\n{\"N\":1}\n"))
	if err == nil || !strings.Contains(err.Error(), `test: line 3: unknown key "N"`) {
		t.Fatalf("case-folded key: %v", err)
	}
}

func TestObjectAccepts(t *testing.T) {
	t.Parallel()
	for line, want := range map[string]fixed{
		`{}`: {},
		" {\t\"name\" : \"a\\/\\u00e9\\\"\" , \"n\" : -0 ,\"f\":-0.5E+1} \r": {Name: "a/\u00e9\"", F: -5},
		`{"name":"a","name":"b"}`:     {Name: "b"},
		`{"name":"\ud83d\ude00"}`:     {Name: "\U0001F600"},
		`{"n":-9223372036854775808}`:  {N: math.MinInt64},
		`{"f":1e-400}`:                {},
		`{"name":"\b\f\n\r\t\u0000"}`: {Name: "\b\f\n\r\t\x00"},
	} {
		var ref fixed
		if err := json.Unmarshal([]byte(line), &ref); err != nil || ref != want {
			t.Fatalf("%s: bad case, encoding/json gives %+v, %v", line, ref, err)
		}
		out, err := Unmarshal[fixed]("test", []byte(line))
		if err != nil || len(out) != 1 || out[0] != want {
			t.Errorf("%s: got %+v, %v; want %+v", line, out, err, want)
		}
	}
}

func TestObjectRejects(t *testing.T) {
	t.Parallel()
	for _, line := range []string{
		`[]`, `{`, `{,}`, `{"name":"a",}`, `{"name" "a"}`, `{"name":"a"`, `{"name":"a`,
		`{"name":"a"} x`, `{"name":"a"}{}`, `{name:"a"}`, `{"name":'a'}`,
		`{"name":null}`, `{"name":true}`, `{"name":[]}`, `{"name":{}}`, `{"name":1}`, `{"n":"1"}`,
		`{"n":+1}`, `{"n":01}`, `{"n":1.5}`, `{"n":1e2}`, `{"n":9223372036854775808}`, `{"n":-}`,
		`{"f":1.}`, `{"f":.5}`, `{"f":1e}`, `{"f":1e+}`, `{"f":1e999}`, `{"f":Inf}`, `{"f":0x10}`, `{"f":1_0}`,
		"{\"name\":\"\x01\"}", "{\"name\":\"\xff\"}", `{"name":"\q"}`, `{"name":"\u12"}`, `{"name":"\u12g4"}`,
		`{"name":"\ud800"}`, `{"name":"\ud800x"}`, `{"name":"\ud800A"}`, `{"name":"\udc00\ud800"}`,
		`{"Name":"a"}`, `{"name ":"a"}`, `{"":1}`,
	} {
		if _, err := Unmarshal[fixed]("test", []byte(line)); err == nil {
			t.Errorf("%s: accepted", line)
		}
	}
}

func TestFixedFieldCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	in := make([]fixed, 512)
	for i := range in {
		in[i] = fixed{Name: fmt.Sprintf("name-%d", i%4), N: i, F: float64(i) / 3}
	}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	// Encoding appends into the pooled buffer: only the returned copy
	// allocates once the pool is warm.
	if enc := testing.AllocsPerRun(20, func() {
		if _, err := Marshal(in); err != nil {
			t.Fatal(err)
		}
	}); enc > 2 {
		t.Errorf("Marshal allocates %.0f times for %d records, want at most 2", enc, len(in))
	}
	// Decoding allocates the output slice, the decoder, the intern
	// table and one string per distinct name: nothing per line.
	if dec := testing.AllocsPerRun(20, func() {
		if _, err := Unmarshal[fixed]("test", data); err != nil {
			t.Fatal(err)
		}
	}); dec > 12 {
		t.Errorf("Unmarshal allocates %.0f times for %d records, want at most 12", dec, len(in))
	}
}
