package probe

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testResult stands for one core's result object: the journal carries
// it without reading it.
var testResult = json.RawMessage(`{"Workload":"gcc","Policy":"rwp","IPC":1.25,"LLC":{"Hits":[2,0,1]}}`)

// fill populates a recorder with a small, representative event stream.
func fill(r *Recorder) {
	r.Retarget(RetargetEvent{Interval: 1, Target: 5, Accesses: 100_000})
	r.Retarget(RetargetEvent{Interval: 2, Target: 3, Accesses: 200_000})
	r.Policy(PolicyEvent{Policy: "rrp", Kind: "bypass", Value: 0})
	r.Policy(PolicyEvent{Policy: "rrp", Kind: "bypass", Value: 1})
	r.Policy(PolicyEvent{Policy: "duel", Kind: "flip", Value: 512})
	r.IntervalEnd(IntervalEvent{Index: 0, EndAccess: 100_000, Instructions: 90_000,
		Cycles: 200_000, LLCReadMisses: 1200, DirtyTarget: 5, DirtyLines: 700, ValidLines: 2048})
	r.IntervalEnd(IntervalEvent{Index: 1, EndAccess: 200_000, Instructions: 180_000,
		Cycles: 410_000, LLCReadMisses: 2100, DirtyTarget: 3, DirtyLines: 400, ValidLines: 2048})
}

func TestRecorderAggregates(t *testing.T) {
	r := NewRecorder(0)
	if r.Window() != DefaultWindow {
		t.Fatalf("Window() = %d, want default %d", r.Window(), DefaultWindow)
	}
	fill(r)
	if got := r.FinalTarget(); got != 3 {
		t.Errorf("FinalTarget = %d, want 3", got)
	}
	if len(r.PolicyCounts) != 2 {
		t.Fatalf("policy counts = %+v", r.PolicyCounts)
	}
	if pc := r.PolicyCounts[0]; pc.Policy != "rrp" || pc.Count != 2 || pc.Last != 1 {
		t.Errorf("rrp counter = %+v", pc)
	}
	if len(r.Intervals) != 2 {
		t.Fatalf("intervals = %d, want 2", len(r.Intervals))
	}
	empty := NewRecorder(7)
	if empty.Window() != 7 {
		t.Errorf("Window() = %d, want 7", empty.Window())
	}
	if empty.FinalTarget() != -1 {
		t.Errorf("empty FinalTarget = %d, want -1", empty.FinalTarget())
	}
}

func journalBytes(t *testing.T) []byte {
	t.Helper()
	r := NewRecorder(100_000)
	fill(r)
	var buf bytes.Buffer
	if err := WriteJournal(&buf, Header{Kind: "single", Desc: "gcc/rwp"}, []json.RawMessage{testResult}, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestJournalRoundTrip(t *testing.T) {
	b := journalBytes(t)
	j, err := ReadJournal(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if j.Header.Schema != JournalSchema || j.Header.Kind != "single" || j.Header.Desc != "gcc/rwp" {
		t.Errorf("header = %+v", j.Header)
	}
	if j.Header.Window != 100_000 {
		t.Errorf("window = %d", j.Header.Window)
	}
	if len(j.Results) != 1 || !bytes.Equal(j.Results[0], testResult) {
		t.Errorf("results = %s", j.Results)
	}
	want := NewRecorder(100_000)
	fill(want)
	if !reflect.DeepEqual(j.Retargets, want.Retargets) {
		t.Errorf("retargets = %+v", j.Retargets)
	}
	if !reflect.DeepEqual(j.Policies, want.PolicyCounts) {
		t.Errorf("policies = %+v", j.Policies)
	}
	if !reflect.DeepEqual(j.Intervals, want.Intervals) {
		t.Errorf("intervals = %+v", j.Intervals)
	}
	if j.FinalTarget() != 3 {
		t.Errorf("FinalTarget = %d", j.FinalTarget())
	}
}

func TestJournalCanonical(t *testing.T) {
	a, b := journalBytes(t), journalBytes(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two writes of the same run journal differ")
	}
	// Every line must be a JSON object with sorted top-level keys — the
	// "canonical" in canonical JSONL. A result object nested in a line
	// keeps its own encoding.
	for i, line := range strings.Split(strings.TrimRight(string(a), "\n"), "\n") {
		var m map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not a JSON object: %v", i+1, err)
		}
		var keys []string
		dec := json.NewDecoder(strings.NewReader(line))
		if _, err := dec.Token(); err != nil { // consume '{'
			t.Fatal(err)
		}
		for dec.More() {
			tok, err := dec.Token()
			if err != nil {
				t.Fatal(err)
			}
			if k, ok := tok.(string); ok {
				keys = append(keys, k)
			}
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				t.Fatal(err)
			}
		}
		if !sort.StringsAreSorted(keys) {
			t.Errorf("line %d keys not sorted: %v", i+1, keys)
		}
	}
}
