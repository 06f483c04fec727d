package probe

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func sampleReqEvents() []ReqEvent {
	return []ReqEvent{
		{Put: true, Key: "k0", Value: []byte{0x00, 0xff, 'a'}, Set: 3, Outcome: OutcomeInsert, Cost: 2},
		{Key: "k0", Set: 3, Outcome: OutcomeHit, Cost: 1},
		{Key: "absent", Set: 9, Outcome: OutcomeMiss, Cost: 16},
		{Put: true, Key: "k0", Value: []byte("v2"), Set: 3, Outcome: OutcomeOverwrite, Cost: 1},
		{Key: "loaded", Set: 1, Outcome: OutcomeFill, Cost: 20},
	}
}

func writeReqLog(t *testing.T, desc string, evs []ReqEvent) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewReqLogWriter(&buf, desc)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		w.ReqEvent(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReqLogRoundTrip(t *testing.T) {
	in := sampleReqEvents()
	data := writeReqLog(t, "profile=mcf seed=0 n=5", in)
	desc, out, err := ReadReqLog(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if desc != "profile=mcf seed=0 n=5" {
		t.Fatalf("desc %q", desc)
	}
	// Get events carry no value on the wire; normalize for comparison.
	want := append([]ReqEvent(nil), in...)
	for i := range want {
		if !want[i].Put {
			want[i].Value = nil
		}
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, want)
	}
}

func TestReqLogCanonicalBytes(t *testing.T) {
	a := writeReqLog(t, "run", sampleReqEvents())
	b := writeReqLog(t, "run", sampleReqEvents())
	if !bytes.Equal(a, b) {
		t.Fatal("two recordings of the same stream differ")
	}
	first, _, _ := strings.Cut(string(a), "\n")
	if !strings.HasPrefix(first, `{"desc":`) {
		t.Fatalf("header line not canonical: %s", first)
	}
}

func TestReqLogWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewReqLogWriter(&buf, "")
	if err != nil {
		t.Fatal(err)
	}
	w.ReqEvent(ReqEvent{Key: "k", Outcome: OutcomeMiss, Cost: 16})
	w.ReqEvent(ReqEvent{Put: true, Key: "k", Outcome: OutcomeInsert, Cost: 2})
	if w.Count() != 2 {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReqLogClassDerivation(t *testing.T) {
	if got := (ReqEvent{}).Class(); got != Load {
		t.Fatalf("Get class = %v", got)
	}
	if got := (ReqEvent{Put: true}).Class(); got != Store {
		t.Fatalf("Put class = %v", got)
	}
}

// TestReqLogRejectsBadInput runs the shared reader rules, then the rows
// only a request journal has: sequence gaps, op/class disagreement and
// a Put value that is not hex.
func TestReqLogRejectsBadInput(t *testing.T) {
	checkReaderRules(t, "reqlog")
	header := `{"desc":"","schema":"rwp-reqlog-v1","t":"header"}`
	rec0 := `{"class":"load","cost":1,"key":"k","op":"get","outcome":"hit","seq":0,"set":0,"t":"req"}`
	cases := map[string]string{
		"seq gap":        header + "\n" + strings.Replace(rec0, `"seq":0`, `"seq":1`, 1),
		"op/class clash": header + "\n" + strings.Replace(rec0, `"class":"load"`, `"class":"store"`, 1),
		"bad value hex":  header + "\n" + `{"class":"store","cost":2,"key":"k","op":"put","outcome":"insert","seq":0,"set":0,"t":"req","value":"zz"}`,
	}
	for name, in := range cases {
		if _, _, err := ReadReqLog(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: error %v, want one at line 2", name, err)
		}
	}
}

// TestReqLogTruncationDetected: cutting the journal mid-record is a
// decode error (the canonical line no longer parses); cutting at a
// line boundary drops trailing records, which the sequence numbers
// leave detectable to any consumer that knows the expected count.
func TestReqLogTruncationDetected(t *testing.T) {
	data := writeReqLog(t, "run", sampleReqEvents())
	if _, _, err := ReadReqLog(bytes.NewReader(data[:len(data)-7])); err == nil {
		t.Fatal("mid-record truncation decoded without error")
	}
}
