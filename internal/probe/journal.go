package probe

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
)

// JournalSchema versions the run-journal encoding. Bump it whenever a
// record's meaning or layout changes so old journals are rejected
// instead of misread.
const JournalSchema = "rwp-journal-v2"

// A run journal is canonical JSONL (jsonl.go) whose record order is
// fixed: the header, one result per core, then the Recorder's
// retargets, policy counters and intervals.

// Header identifies the job a journal belongs to.
type Header struct {
	T      string `json:"t"` // "header"
	Schema string `json:"schema"`
	Kind   string `json:"kind"` // runner job kind ("single", "multi")
	Desc   string `json:"desc"` // human-readable job description
	Window uint64 `json:"window"`
}

// resultRecord is one core's result: the simulator's per-core result in
// the JSON encoding the runner's result cache stores, carried as is.
// The package imports nothing from the simulator, so it neither builds
// nor reads that object; cmd/rwpstat decodes it.
type resultRecord struct {
	T      string          `json:"t"` // "result"
	Result json.RawMessage `json:"result"`
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
	Header Header
	// Results holds each core's result object, in core order, as the
	// journal carries it.
	Results   []json.RawMessage
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

// WriteJournal serializes one run — its identity, each core's result
// object and the recorder's events — as canonical JSONL.
func WriteJournal(w io.Writer, h Header, results []json.RawMessage, rec *Recorder) error {
	bw := bufio.NewWriter(w)
	h.T = "header"
	h.Schema = JournalSchema
	h.Window = rec.Window()
	emit := func(v any) error { return writeCanonical(bw, v) }
	if err := emit(h); err != nil {
		return err
	}
	for _, r := range results {
		if err := emit(resultRecord{T: "result", Result: r}); err != nil {
			return err
		}
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

// ReadJournal decodes a canonical JSONL journal under readJSONL's rules.
// A result record must carry a JSON object; what is in it is the
// caller's to decode.
func ReadJournal(r io.Reader) (*Journal, error) {
	var j Journal
	err := readJSONL(r, "journal", JournalSchema, map[string]func([]byte) error{
		"header": func(line []byte) error { return json.Unmarshal(line, &j.Header) },
		"result": func(line []byte) error {
			var rec resultRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
			if len(rec.Result) == 0 || rec.Result[0] != '{' {
				return errors.New("result record carries no result object")
			}
			j.Results = append(j.Results, rec.Result)
			return nil
		},
		"retarget": func(line []byte) error {
			var rec retargetRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
			j.Retargets = append(j.Retargets, RetargetEvent{Interval: rec.Interval, Target: rec.Target, Accesses: rec.Accesses})
			return nil
		},
		"policy": func(line []byte) error {
			var rec policyRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
			j.Policies = append(j.Policies, PolicyCount{Policy: rec.Policy, Kind: rec.Kind, Count: rec.Count, Last: rec.Last})
			return nil
		},
		"interval": func(line []byte) error {
			var rec intervalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
			j.Intervals = append(j.Intervals, IntervalEvent{
				Index: rec.Index, EndAccess: rec.EndAccess,
				Instructions: rec.Instructions, Cycles: rec.Cycles,
				LLCReadMisses: rec.ReadMisses, DirtyTarget: rec.DirtyTarget,
				DirtyLines: rec.DirtyLines, ValidLines: rec.ValidLines,
			})
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &j, nil
}
