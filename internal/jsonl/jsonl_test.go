package jsonl

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

type rec struct {
	Name string `json:"name"`
	N    int    `json:"n"`
}

func TestRoundTrip(t *testing.T) {
	t.Parallel()
	in := []rec{{"a", 1}, {"b", 2}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal[rec]("test", data)
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %v %v", err, out)
	}
}

func TestBlankLinesSkippedErrorsCarryLineNumbers(t *testing.T) {
	t.Parallel()
	out, err := Unmarshal[rec]("test", []byte("\n{\"name\":\"x\"}\n\n"))
	if err != nil || len(out) != 1 {
		t.Fatalf("blank lines: %v %d", err, len(out))
	}
	_, err = Unmarshal[rec]("test", []byte("{\"name\":\"x\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "test: line 2") {
		t.Fatalf("error should carry prefix and line: %v", err)
	}
}

func TestUnmarshalNoTrailingNewline(t *testing.T) {
	t.Parallel()
	out, err := Unmarshal[rec]("test", []byte("{\"name\":\"a\"}\n{\"name\":\"b\",\"n\":2}"))
	if err != nil || len(out) != 2 || out[1].N != 2 {
		t.Fatalf("unterminated final line: %v %v", err, out)
	}
}

func TestUnmarshalHugeLine(t *testing.T) {
	t.Parallel()
	// The old scanner-based decoder capped lines at 16 MiB and paid a
	// fixed 1 MiB scratch buffer; the in-place splitter has no line cap.
	big := rec{Name: strings.Repeat("x", 2<<20), N: 7}
	data, err := Marshal([]rec{big})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal[rec]("test", data)
	if err != nil || len(out) != 1 || out[0].N != 7 || len(out[0].Name) != 2<<20 {
		t.Fatalf("huge line: %v", err)
	}
}

func TestLines(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		in   string
		want int
	}{
		{"", 0},
		{"a\n", 1},
		{"a", 1},
		{"a\nb\n", 2},
		{"a\nb", 2},
		{"\n\n", 2},
	} {
		if got := Lines([]byte(tc.in)); got != tc.want {
			t.Errorf("Lines(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestDecoderStreams(t *testing.T) {
	t.Parallel()
	in := []rec{{"a", 1}, {"b", 2}, {"c", 3}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder[rec]("test", data)
	for i := range in {
		v, ok, err := d.Next()
		if err != nil || !ok || v != in[i] {
			t.Fatalf("record %d: %v %v %v", i, v, ok, err)
		}
	}
	if _, ok, err := d.Next(); ok || err != nil {
		t.Fatalf("decoder should be exhausted: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := d.Next(); ok {
		t.Fatal("exhausted decoder must stay exhausted")
	}
}

func TestDecoderErrorCarriesLineNumber(t *testing.T) {
	t.Parallel()
	d := NewDecoder[rec]("test", []byte("{\"name\":\"a\"}\n\nbroken\n"))
	if _, ok, err := d.Next(); !ok || err != nil {
		t.Fatalf("first record: %v %v", ok, err)
	}
	_, _, err := d.Next()
	if err == nil || !strings.Contains(err.Error(), "test: line 3") {
		t.Fatalf("blank-line-aware line number: %v", err)
	}
}

func TestMarshalPooledBufferIsolation(t *testing.T) {
	t.Parallel()
	// Two encodes back to back must not share backing storage.
	a, err := Marshal([]rec{{"first", 1}})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := string(a)
	if _, err := Marshal([]rec{{"second-longer-name", 2}}); err != nil {
		t.Fatal(err)
	}
	if string(a) != snapshot {
		t.Fatal("Marshal result aliased the pooled buffer")
	}
}

// benchRecords is sized like a real study artifact shard: enough lines
// that the old per-call 1 MiB scratch and doubling growth showed up.
func benchRecords(n int) []rec {
	out := make([]rec, n)
	for i := range out {
		out[i] = rec{Name: fmt.Sprintf("record-%04d", i), N: i}
	}
	return out
}

func TestMarshalAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	in := benchRecords(512)
	// Warm the pool so steady-state is measured.
	if _, err := Marshal(in); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Marshal(in); err != nil {
			t.Fatal(err)
		}
	})
	// rec has no AppendJSONL, so this bounds the encoding/json path:
	// one interface boxing per record (Encode's signature) plus the
	// right-sized output copy. The old codec re-grew the buffer every
	// call on top of that. The hand-written codecs' bounds live with
	// their types (dataset and trace) and in TestFixedFieldCodecAllocs.
	if allocs > float64(len(in))+16 {
		t.Fatalf("Marshal allocates too much: %.0f allocs/run", allocs)
	}
}

func TestUnmarshalAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	in := benchRecords(512)
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		out, err := Unmarshal[rec]("test", data)
		if err != nil || len(out) != len(in) {
			t.Fatal(err)
		}
	})
	// rec has no UnmarshalJSONL, so this bounds the encoding/json path:
	// one output slice (newline-counted preallocation) plus
	// encoding/json's per-record decode cost (~6 allocs for this
	// shape); the old scanner paid a fixed 1 MiB buffer and log2(n)
	// growth copies on top.
	if allocs > float64(len(in))*8+16 {
		t.Fatalf("Unmarshal allocates too much: %.0f allocs/run", allocs)
	}
}

func TestUnmarshalSmallInputNoMegabyteScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	data := []byte("{\"name\":\"a\",\"n\":1}\n")
	var sink []rec
	avg := testing.AllocsPerRun(50, func() {
		out, err := Unmarshal[rec]("test", data)
		if err != nil {
			t.Fatal(err)
		}
		sink = out
	})
	_ = sink
	// Decoding one ten-byte-scale line must stay in single-digit
	// allocations — the regression this guards is the fixed 1 MiB
	// scanner buffer the old decoder allocated per call.
	if avg > 8 {
		t.Fatalf("small decode allocates %.0f allocs/run", avg)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := Unmarshal[rec]("test", data)
	runtime.ReadMemStats(&after)
	if err != nil || len(out) != 1 {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<18 {
		t.Fatalf("small decode allocated %d bytes (old codec paid 1 MiB scratch)", grew)
	}
}
