package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"cloudhpc/internal/jsonl"
)

// referenceDecode is the encoding/json decode the codec is checked
// against: the same line split, json.Unmarshal into a fresh eventJSON
// per line.
func referenceDecode(data []byte) ([]eventJSON, error) {
	var out []eventJSON
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e eventJSON
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func addEventSeed(f *testing.F, e eventJSON, line string) {
	f.Add(e.AtNs, e.Env, e.Category, e.Severity, e.Msg, e.Cost, []byte(line))
}

// FuzzEventCodec checks the hand-written trace event codec against
// encoding/json, its reference:
//
//  1. the encoder writes json.Encoder's bytes, and both fail on NaN and
//     the infinities;
//  2. whatever line the decoder accepts, json.Unmarshal accepts too,
//     with a deeply equal event (the decoder may reject more, and must
//     reject a missing or unknown severity);
//  3. decoding what the encoder wrote gives back the event, for a
//     finite cost, a valid severity and valid UTF-8 strings.
func FuzzEventCodec(f *testing.F) {
	base := eventJSON{AtNs: int64(time.Minute), Env: "aws-eks-cpu", Category: "setup",
		Severity: "routine", Msg: `Slurm: submitted job 1 "amg2023-0" (32 nodes)`, Cost: 12.5}
	with := func(edit func(*eventJSON)) eventJSON {
		e := base
		edit(&e)
		return e
	}
	addEventSeed(f, base, `{"at_ns":0,"env":"e","category":"setup","severity":"routine","msg":"m"}`)
	addEventSeed(f, with(func(e *eventJSON) { e.Msg = "<b>&amp;</b>" }), `{"severity":"blocking","msg":"\u003cb\u003e\u0026"}`)
	addEventSeed(f, with(func(e *eventJSON) { e.Msg = "line\u2028para\u2029" }), `{"severity":"routine","msg":"\u2028\u2029"}`)
	addEventSeed(f, with(func(e *eventJSON) { e.Env = "bad \xff utf8 \xed\xa0\x80" }), "{\"severity\":\"routine\",\"msg\":\"\xff\"}")
	addEventSeed(f, with(func(e *eventJSON) { e.Msg = "\U0001F600 \x00\x1f\b\f\n\r\t\"\\\x7f" }), `{"severity":"unexpected","msg":"\ud83d\ude00"}`)
	addEventSeed(f, with(func(e *eventJSON) { e.Env = "" }), `{"severity":"routine","msg":"\ud800"}`)
	addEventSeed(f, with(func(e *eventJSON) { e.Severity = "severity(9)" }), `{"severity":"routine","msg":"\udc00\ud800"}`)
	addEventSeed(f, with(func(e *eventJSON) { e.Cost = 1e-7 }), `{"severity":"routine","cost_usd":1e-7}`)
	addEventSeed(f, with(func(e *eventJSON) { e.Cost = 1e21 }), `{"severity":"routine","cost_usd":1e21}`)
	addEventSeed(f, with(func(e *eventJSON) { e.Cost = math.Copysign(0, -1) }), `{"severity":"routine","cost_usd":-0,"at_ns":-0}`)
	addEventSeed(f, with(func(e *eventJSON) { e.Cost = math.NaN() }), `{"severity":"routine","at_ns":01}`)
	addEventSeed(f, with(func(e *eventJSON) { e.Cost = math.Inf(1) }), `{"severity":"routine","cost_usd":1.}`)
	addEventSeed(f, with(func(e *eventJSON) { e.Cost = math.Inf(-1) }), `{"severity":"routine","cost_usd":+1}`)
	addEventSeed(f, with(func(e *eventJSON) { e.AtNs = math.MinInt64 }), `{"severity":"routine","cost_usd":1e999}`)
	addEventSeed(f, base, `{"SEVERITY":"routine","Msg":"x"}`)
	addEventSeed(f, base, `{"severity":null}`)
	addEventSeed(f, base, `{"severity":"routine","msg":{}}`)
	addEventSeed(f, base, `{"category":"setup","msg":"no severity"}`)
	addEventSeed(f, base, `{"severity":"catastrophic"}`)
	addEventSeed(f, base, ` {"severity" : "blocking", "severity":"routine"} `+"\r")
	f.Fuzz(func(t *testing.T, at int64, env, category, severity, msg string, cost float64, line []byte) {
		ev := eventJSON{AtNs: at, Env: env, Category: category, Severity: severity, Msg: msg, Cost: cost}

		// 1. Encoder bytes.
		got, gotErr := jsonl.Marshal([]eventJSON{ev})
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(ev)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("encode error %v, encoding/json error %v, for %+v", gotErr, wantErr, ev)
		}
		if gotErr == nil && !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("encode:\n got  %q\n want %q", got, want.Bytes())
		}

		// 3. Round trip.
		level, sevErr := severityFromString(severity)
		finite := !math.IsNaN(cost) && !math.IsInf(cost, 0)
		valid := utf8.ValidString(env) && utf8.ValidString(category) && utf8.ValidString(msg)
		if finite && valid && sevErr == nil {
			back, err := jsonl.Unmarshal[eventJSON]("trace", got)
			ev.level = level
			if err != nil || len(back) != 1 || !reflect.DeepEqual(back[0], ev) {
				t.Fatalf("round trip of %q: %v, %+v", got, err, back)
			}
		}

		// 2. Decoder strictness.
		mine, err := jsonl.Unmarshal[eventJSON]("trace", line)
		if err != nil {
			return
		}
		ref, err := referenceDecode(line)
		if err != nil {
			t.Fatalf("decoder accepted %q, encoding/json rejects it: %v", line, err)
		}
		for i := range mine {
			if mine[i].level.String() != mine[i].Severity {
				t.Fatalf("decoded severity %q as level %v", mine[i].Severity, mine[i].level)
			}
			mine[i].level = 0 // encoding/json never sets it
		}
		if len(mine)+len(ref) > 0 && !reflect.DeepEqual(mine, ref) {
			t.Fatalf("decode of %q:\n got  %+v\n json %+v", line, mine, ref)
		}
	})
}

// studyLog is shaped like the seed-2025 study's trace.jsonl: 3,305
// events over 22 environments, 6 categories and 3 severities, most
// messages quoting a job name (an escape per line), a few with a cost.
func studyLog() *Log {
	cats := []Category{Setup, Development, AppSetup, Manual, Info, Billing}
	l := NewLog()
	for i := 0; i < 3305; i++ {
		e := Event{
			At:       time.Duration(i) * 1553653345,
			Env:      fmt.Sprintf("env-%02d", i%22),
			Category: cats[i%len(cats)],
			Severity: Severity(i % 3),
			Msg:      fmt.Sprintf("Slurm: submitted job %d %q (%d nodes)", i, fmt.Sprint("amg2023-", i%7), 32<<(i%4)),
		}
		if i%50 == 0 {
			e.Cost = float64(i) / 3
		}
		l.Add(e)
	}
	return l
}

// TestEventCodecAllocs bounds the codec's allocations on a study-sized
// log. Encoding allocates the wire slice and the returned copy;
// decoding allocates the event slice, each message, one string per
// distinct env, category and severity (interned), and the decoder.
func TestEventCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	l := studyLog()
	data, err := l.MarshalJSONL()
	if err != nil {
		t.Fatal(err)
	}
	if enc := testing.AllocsPerRun(10, func() {
		if _, err := l.MarshalJSONL(); err != nil {
			t.Fatal(err)
		}
	}); enc > 8 {
		t.Errorf("encoding %d events allocates %.0f times, want at most 8", l.Len(), enc)
	}
	if dec := testing.AllocsPerRun(10, func() {
		if _, err := UnmarshalJSONL(data); err != nil {
			t.Fatal(err)
		}
	}); dec > float64(l.Len())+100 {
		t.Errorf("decoding %d events allocates %.0f times, want at most %d", l.Len(), dec, l.Len()+100)
	}
}

func BenchmarkEventCodec(b *testing.B) {
	l := studyLog()
	data, err := l.MarshalJSONL()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := l.MarshalJSONL(); err != nil {
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
