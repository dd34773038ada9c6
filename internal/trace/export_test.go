package trace

import (
	"strings"
	"testing"
	"time"
)

func TestJSONLRoundTrip(t *testing.T) {
	t.Parallel()
	l := NewLog()
	l.Add(Event{At: time.Minute, Env: "azure-aks-cpu", Category: Development,
		Severity: Blocking, Msg: "custom daemonset", Cost: 12.5})
	l.Add(Event{At: 2 * time.Minute, Env: "", Category: Info, Severity: Routine, Msg: "tick"})
	data, err := l.MarshalJSONL()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalJSONL(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round trip lost events: %d", back.Len())
	}
	evs := back.Events()
	if evs[0].At != time.Minute || evs[0].Severity != Blocking || evs[0].Cost != 12.5 {
		t.Fatalf("fields lost: %+v", evs[0])
	}
	if evs[1].Severity != Routine {
		t.Fatalf("severity lost: %+v", evs[1])
	}
}

func TestUnmarshalRejections(t *testing.T) {
	t.Parallel()
	if _, err := UnmarshalJSONL([]byte("not json\n")); err == nil {
		t.Fatalf("garbage accepted")
	}
	if _, err := UnmarshalJSONL([]byte(`{"severity":"catastrophic","category":"setup"}` + "\n")); err == nil {
		t.Fatalf("unknown severity accepted")
	}
	// A line with no severity fails inside the line decode, with its
	// line number, like every other malformed line.
	_, err := UnmarshalJSONL([]byte(`{"severity":"routine","msg":"a"}` + "\n" + `{"category":"setup","msg":"b"}` + "\n"))
	if err == nil || !strings.HasPrefix(err.Error(), "trace: line 2: ") {
		t.Fatalf("missing severity: want a line-2 error, got %v", err)
	}
	l, err := UnmarshalJSONL([]byte("\n\n"))
	if err != nil || l.Len() != 0 {
		t.Fatalf("blank input should give empty log: %v", err)
	}
}
