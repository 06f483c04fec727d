package probe

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testCounts is a small, self-consistent set of LLC counts for a
// journal's class and evictions records.
var testCounts = Counts{
	Classes: [NumClasses]ClassCounters{
		Load:  {Accesses: 3, Hits: 2, Misses: 1, HitsClean: 1, HitsDirty: 1, Fills: 1},
		Store: {Accesses: 1, Misses: 1, Bypasses: 1},
		WB:    {Accesses: 2, Hits: 1, Misses: 1, HitsDirty: 1, Fills: 1, FillsDirty: 1},
	},
	EvictClean: 1,
	EvictDirty: 1,
}

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
	err := WriteJournal(&buf,
		Header{Kind: "single", Desc: "gcc/rwp"},
		[]ResultRecord{{Workload: "gcc", Policy: "rwp", IPC: 1.25, ReadMPKI: 3.5,
			TotalMPKI: 5.0, WBPKI: 1.75, Instructions: 180_000}},
		testCounts, r)
	if err != nil {
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
	if len(j.Results) != 1 || j.Results[0].Workload != "gcc" || j.Results[0].IPC != 1.25 { //rwplint:allow floateq — exact JSON round-trip is the property under test
		t.Errorf("results = %+v", j.Results)
	}
	want := NewRecorder(100_000)
	fill(want)
	if j.Counts != testCounts {
		t.Errorf("counts:\n got %+v\nwant %+v", j.Counts, testCounts)
	}
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
	// Every line must be a flat JSON object with sorted keys — the
	// "canonical" in canonical JSONL.
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

func TestJournalRejectsDefects(t *testing.T) {
	if _, err := ReadJournal(strings.NewReader("")); err == nil {
		t.Error("empty journal accepted")
	}
	if _, err := ReadJournal(strings.NewReader(`{"t":"header","schema":"rwp-journal-v999"}`)); err == nil {
		t.Error("unknown schema accepted")
	}
	if _, err := ReadJournal(strings.NewReader(`{"t":"martian"}`)); err == nil {
		t.Error("unknown record type accepted")
	}
	if _, err := ReadJournal(strings.NewReader("not json")); err == nil {
		t.Error("malformed line accepted")
	}
	if _, err := ReadJournal(strings.NewReader(`{"t":"class","class":"warp"}`)); err == nil {
		t.Error("unknown class name accepted")
	}
}
