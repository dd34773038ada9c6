package trace

import (
	"fmt"
	"strconv"
	"time"

	"cloudhpc/internal/jsonl"
)

// JSON export of the event log, for archiving alongside the study's other
// artifacts and for external analysis.

// eventJSON is the wire form: severity as a string, time in nanoseconds.
// The line decode also keeps the parsed severity in level, which
// encoding/json neither writes nor reads.
type eventJSON struct {
	AtNs     int64   `json:"at_ns"`
	Env      string  `json:"env,omitempty"`
	Category string  `json:"category"`
	Severity string  `json:"severity"`
	Msg      string  `json:"msg"`
	Cost     float64 `json:"cost_usd,omitempty"`

	level Severity
}

// AppendJSONL appends the event's JSON line, without the newline: the
// bytes json.Encoder writes for it, field for field.
func (e *eventJSON) AppendJSONL(b []byte) ([]byte, error) {
	b = append(b, `{"at_ns":`...)
	b = strconv.AppendInt(b, e.AtNs, 10)
	if e.Env != "" {
		b = append(b, `,"env":`...)
		b = jsonl.AppendString(b, e.Env)
	}
	b = append(b, `,"category":`...)
	b = jsonl.AppendString(b, e.Category)
	b = append(b, `,"severity":`...)
	b = jsonl.AppendString(b, e.Severity)
	b = append(b, `,"msg":`...)
	b = jsonl.AppendString(b, e.Msg)
	if e.Cost != 0 {
		b = append(b, `,"cost_usd":`...)
		var err error
		if b, err = jsonl.AppendFloat(b, e.Cost); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// UnmarshalJSONL decodes one JSON line into the event, strictly (see
// jsonl.Object). The severity must name a level, so a bad or missing
// one fails on its own line.
func (e *eventJSON) UnmarshalJSONL(o *jsonl.Object) error {
	for o.Next() {
		switch string(o.Key()) {
		case "at_ns":
			e.AtNs = o.Int64()
		case "env":
			e.Env = o.Symbol()
		case "category":
			e.Category = o.Symbol()
		case "severity":
			e.Severity = o.Symbol()
		case "msg":
			e.Msg = o.Text()
		case "cost_usd":
			e.Cost = o.Float()
		default:
			o.UnknownKey()
		}
	}
	if err := o.Err(); err != nil {
		return err
	}
	var err error
	e.level, err = severityFromString(e.Severity)
	return err
}

// MarshalJSONL encodes the log as JSON lines in insertion order, each
// event straight from the log's snapshot.
func (l *Log) MarshalJSONL() ([]byte, error) {
	events := l.snapshot()
	return jsonl.MarshalEach(len(events), func(b []byte, i int) ([]byte, error) {
		e := &events[i]
		ej := eventJSON{
			AtNs: int64(e.At), Env: e.Env, Category: string(e.Category),
			Severity: e.Severity.String(), Msg: e.Msg, Cost: e.Cost,
		}
		return ej.AppendJSONL(b)
	})
}

// severityFromString inverts Severity.String.
func severityFromString(s string) (Severity, error) {
	switch s {
	case "routine":
		return Routine, nil
	case "unexpected":
		return Unexpected, nil
	case "blocking":
		return Blocking, nil
	case "":
		return 0, fmt.Errorf("missing severity")
	default:
		return 0, fmt.Errorf("unknown severity %q", s)
	}
}

// UnmarshalJSONL rebuilds a log from JSON lines. The events are built
// in one slice, sized from the line count, and become the log's own.
func UnmarshalJSONL(data []byte) (*Log, error) {
	d := jsonl.NewDecoder[eventJSON]("trace", data)
	events := make([]Event, 0, jsonl.Lines(data))
	for {
		ej, ok, err := d.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return &Log{events: events}, nil
		}
		events = append(events, Event{
			At: time.Duration(ej.AtNs), Env: ej.Env, Category: Category(ej.Category),
			Severity: ej.level, Msg: ej.Msg, Cost: ej.Cost,
		})
	}
}
