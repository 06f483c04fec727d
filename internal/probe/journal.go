package probe

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// JournalSchema versions the run-journal encoding. Bump it whenever a
// record's meaning or layout changes so old journals are rejected
// instead of misread.
const JournalSchema = "rwp-journal-v1"

// A run journal is a JSONL stream: one flat JSON object per line, each
// carrying a "t" discriminator. Lines are canonical — object keys are
// sorted and floats use Go's shortest round-trip encoding — so two
// journals of the same run are byte-identical, which check.sh and the
// runner tests enforce with cmp/bytes.Equal. Record order is fixed:
// header, results (one per core), classes, evictions, retargets,
// policy counters, intervals.

// Header identifies the job a journal belongs to.
type Header struct {
	T      string `json:"t"` // "header"
	Schema string `json:"schema"`
	Kind   string `json:"kind"` // runner job kind ("single", "multi")
	Desc   string `json:"desc"` // human-readable job description
	Window uint64 `json:"window"`
}

// ResultRecord is one core's headline result, copied from sim.Result
// by the journal writer so a row of an experiment table can be
// re-derived from the journal alone.
type ResultRecord struct {
	T            string  `json:"t"` // "result"
	Workload     string  `json:"workload"`
	Policy       string  `json:"policy"`
	IPC          float64 `json:"ipc"`
	ReadMPKI     float64 `json:"read_mpki"`
	TotalMPKI    float64 `json:"total_mpki"`
	WBPKI        float64 `json:"wbpki"`
	Instructions uint64  `json:"instructions"`
}

// classRecord is one request class's run-level counters.
type classRecord struct {
	T          string `json:"t"` // "class"
	Class      string `json:"class"`
	Accesses   uint64 `json:"accesses"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	HitsClean  uint64 `json:"hits_clean"`
	HitsDirty  uint64 `json:"hits_dirty"`
	Fills      uint64 `json:"fills"`
	FillsDirty uint64 `json:"fills_dirty"`
	Bypasses   uint64 `json:"bypasses"`
}

// evictRecord is the eviction split by source partition.
type evictRecord struct {
	T     string `json:"t"` // "evictions"
	Clean uint64 `json:"clean"`
	Dirty uint64 `json:"dirty"`
}

// retargetRecord is one predictor decision.
type retargetRecord struct {
	T        string `json:"t"` // "retarget"
	Interval uint64 `json:"interval"`
	Target   int    `json:"target"`
	Accesses uint64 `json:"accesses"`
}

// policyRecord is one (policy, kind) decision counter.
type policyRecord struct {
	T      string `json:"t"` // "policy"
	Policy string `json:"policy"`
	Kind   string `json:"kind"`
	Count  uint64 `json:"count"`
	Last   int64  `json:"last"`
}

// intervalRecord is one window of the time series.
type intervalRecord struct {
	T            string `json:"t"` // "interval"
	Index        int    `json:"index"`
	EndAccess    uint64 `json:"end_access"`
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	ReadMisses   uint64 `json:"read_misses"`
	DirtyTarget  int    `json:"dirty_target"`
	DirtyLines   int    `json:"dirty_lines"`
	ValidLines   int    `json:"valid_lines"`
}

// Journal is a fully decoded run journal.
type Journal struct {
	Header  Header
	Results []ResultRecord
	Counts
	Retargets []RetargetEvent
	Policies  []PolicyCount
	Intervals []IntervalEvent
}

// FinalTarget returns the last retarget decision, or -1 when the
// predictor never fired.
func (j *Journal) FinalTarget() int {
	if len(j.Retargets) == 0 {
		return -1
	}
	return j.Retargets[len(j.Retargets)-1].Target
}

// canonicalLine marshals a flat record with sorted object keys. The
// struct is marshaled once for the values, re-read as raw fields so
// integers keep their exact text, and marshaled again as a map (Go
// sorts map keys), yielding one canonical line per record.
func canonicalLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	return json.Marshal(m)
}

// writeCanonical appends v's canonical line and its newline to bw.
func writeCanonical(bw *bufio.Writer, v any) error {
	line, err := canonicalLine(v)
	if err != nil {
		return err
	}
	if _, err := bw.Write(line); err != nil {
		return err
	}
	return bw.WriteByte('\n')
}

// WriteJournal serializes one run — its identity, per-core results, the
// LLC's counts and the recorder's events — as canonical JSONL.
func WriteJournal(w io.Writer, h Header, results []ResultRecord, counts Counts, rec *Recorder) error {
	bw := bufio.NewWriter(w)
	h.T = "header"
	h.Schema = JournalSchema
	h.Window = rec.Window()
	emit := func(v any) error { return writeCanonical(bw, v) }
	if err := emit(h); err != nil {
		return err
	}
	for _, r := range results {
		r.T = "result"
		if err := emit(r); err != nil {
			return err
		}
	}
	for c := Class(0); c < NumClasses; c++ {
		cc := counts.Classes[c]
		if err := emit(classRecord{
			T: "class", Class: c.String(),
			Accesses: cc.Accesses, Hits: cc.Hits, Misses: cc.Misses,
			HitsClean: cc.HitsClean, HitsDirty: cc.HitsDirty,
			Fills: cc.Fills, FillsDirty: cc.FillsDirty, Bypasses: cc.Bypasses,
		}); err != nil {
			return err
		}
	}
	if err := emit(evictRecord{T: "evictions", Clean: counts.EvictClean, Dirty: counts.EvictDirty}); err != nil {
		return err
	}
	for _, rt := range rec.Retargets {
		if err := emit(retargetRecord{T: "retarget", Interval: rt.Interval, Target: rt.Target, Accesses: rt.Accesses}); err != nil {
			return err
		}
	}
	for _, pc := range rec.PolicyCounts {
		if err := emit(policyRecord{T: "policy", Policy: pc.Policy, Kind: pc.Kind, Count: pc.Count, Last: pc.Last}); err != nil {
			return err
		}
	}
	for _, iv := range rec.Intervals {
		if err := emit(intervalRecord{
			T: "interval", Index: iv.Index, EndAccess: iv.EndAccess,
			Instructions: iv.Instructions, Cycles: iv.Cycles,
			ReadMisses: iv.LLCReadMisses, DirtyTarget: iv.DirtyTarget,
			DirtyLines: iv.DirtyLines, ValidLines: iv.ValidLines,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// headerOrder is the header rule every journal reader keeps: the first
// record is the header, and only the first. isHeader describes the
// record at hand, sawHeader whether one came before it.
func headerOrder(isHeader, sawHeader bool) error {
	switch {
	case isHeader && sawHeader:
		return errors.New("second header")
	case !isHeader && !sawHeader:
		return errors.New("no header before this record")
	}
	return nil
}

// classIndex maps a class name back to its index.
func classIndex(name string) (Class, error) {
	for c := Class(0); c < NumClasses; c++ {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("probe: unknown class %q", name)
}

// ReadJournal decodes a canonical JSONL journal. It rejects unknown
// schemas and malformed lines; unknown record types are an error too,
// and so is a header that is missing, late or repeated, and a class or
// evictions record that is repeated — a journal is versioned data, not
// a log to be skimmed.
func ReadJournal(r io.Reader) (*Journal, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var j Journal
	sawHeader, sawEvictions := false, false
	var sawClass [NumClasses]bool
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var disc struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(line, &disc); err != nil {
			return nil, fmt.Errorf("probe: journal line %d: %w", lineNo, err)
		}
		if err := headerOrder(disc.T == "header", sawHeader); err != nil {
			return nil, fmt.Errorf("probe: journal line %d: %w", lineNo, err)
		}
		switch disc.T {
		case "header":
			sawHeader = true
			if err := json.Unmarshal(line, &j.Header); err != nil {
				return nil, fmt.Errorf("probe: journal line %d: %w", lineNo, err)
			}
			if j.Header.Schema != JournalSchema {
				return nil, fmt.Errorf("probe: journal schema %q, want %q", j.Header.Schema, JournalSchema)
			}
		case "result":
			var rec ResultRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return nil, fmt.Errorf("probe: journal line %d: %w", lineNo, err)
			}
			j.Results = append(j.Results, rec)
		case "class":
			var rec classRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return nil, fmt.Errorf("probe: journal line %d: %w", lineNo, err)
			}
			c, err := classIndex(rec.Class)
			if err != nil {
				return nil, fmt.Errorf("probe: journal line %d: %w", lineNo, err)
			}
			if sawClass[c] {
				return nil, fmt.Errorf("probe: journal line %d: second %q class record", lineNo, rec.Class)
			}
			sawClass[c] = true
			j.Classes[c] = ClassCounters{
				Accesses: rec.Accesses, Hits: rec.Hits, Misses: rec.Misses,
				HitsClean: rec.HitsClean, HitsDirty: rec.HitsDirty,
				Fills: rec.Fills, FillsDirty: rec.FillsDirty, Bypasses: rec.Bypasses,
			}
		case "evictions":
			var rec evictRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return nil, fmt.Errorf("probe: journal line %d: %w", lineNo, err)
			}
			if sawEvictions {
				return nil, fmt.Errorf("probe: journal line %d: second evictions record", lineNo)
			}
			sawEvictions = true
			j.EvictClean, j.EvictDirty = rec.Clean, rec.Dirty
		case "retarget":
			var rec retargetRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return nil, fmt.Errorf("probe: journal line %d: %w", lineNo, err)
			}
			j.Retargets = append(j.Retargets, RetargetEvent{Interval: rec.Interval, Target: rec.Target, Accesses: rec.Accesses})
		case "policy":
			var rec policyRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return nil, fmt.Errorf("probe: journal line %d: %w", lineNo, err)
			}
			j.Policies = append(j.Policies, PolicyCount{Policy: rec.Policy, Kind: rec.Kind, Count: rec.Count, Last: rec.Last})
		case "interval":
			var rec intervalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return nil, fmt.Errorf("probe: journal line %d: %w", lineNo, err)
			}
			j.Intervals = append(j.Intervals, IntervalEvent{
				Index: rec.Index, EndAccess: rec.EndAccess,
				Instructions: rec.Instructions, Cycles: rec.Cycles,
				LLCReadMisses: rec.ReadMisses, DirtyTarget: rec.DirtyTarget,
				DirtyLines: rec.DirtyLines, ValidLines: rec.ValidLines,
			})
		default:
			return nil, fmt.Errorf("probe: journal line %d: unknown record type %q", lineNo, disc.T)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("probe: reading journal: %w", err)
	}
	if j.Header.Schema == "" {
		return nil, fmt.Errorf("probe: journal has no header")
	}
	return &j, nil
}
