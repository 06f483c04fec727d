package probe

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// ReqLogSchema versions the request-stream journal: the live cache's
// capture of every Get/Put it served, one canonical JSONL line per
// operation. Like the run journal it is op-count clocked — records are
// numbered by a sequence counter, never timestamped — so recording the
// same deterministic stream twice yields byte-identical journals, and
// replaying one reproduces the original run's stats byte for byte
// (`rwpserve -in` and `rwpcluster -in` close that loop).
const ReqLogSchema = "rwp-reqlog-v1"

// Request outcomes, as the live cache classifies them: a Get is a hit,
// a fill (Loader backfill), or a miss; a Put is an overwrite or an
// insert.
const (
	OutcomeHit       = "hit"
	OutcomeFill      = "fill"
	OutcomeMiss      = "miss"
	OutcomeOverwrite = "overwrite"
	OutcomeInsert    = "insert"
)

// ReqEvent is one observed cache operation: what was asked (op, key,
// value), where it landed (the global set index — shard-layout
// independent), and what happened (outcome plus the deterministic
// modeled service cost). Value is the Put payload and nil for Gets; a
// sink must not retain it past the call.
type ReqEvent struct {
	Put     bool
	Key     string
	Value   []byte
	Set     int
	Outcome string
	Cost    int
}

// Class returns the paper's access class for the event ("load" for
// Gets, "store" for Puts) — the same split the run journal's class
// counters use.
func (e ReqEvent) Class() Class {
	if e.Put {
		return Store
	}
	return Load
}

// ReqProbe consumes request events. Like Probe, call sites in
// instrumented code must be nil-guarded.
type ReqProbe interface {
	ReqEvent(ev ReqEvent)
}

// reqHeader identifies a request journal.
type reqHeader struct {
	T      string `json:"t"` // "header"
	Schema string `json:"schema"`
	Desc   string `json:"desc"`
}

// reqRecord is the JSONL form of one ReqEvent. Class is redundant with
// Op by construction; the reader cross-checks them, which catches
// single-field corruption that still parses.
type reqRecord struct {
	T       string `json:"t"` // "req"
	Seq     uint64 `json:"seq"`
	Op      string `json:"op"`    // "get" | "put"
	Class   string `json:"class"` // "load" | "store"
	Key     string `json:"key"`
	Set     int    `json:"set"`
	Outcome string `json:"outcome"`
	Cost    int    `json:"cost"`
	Value   string `json:"value,omitempty"` // hex Put payload; absent for Gets
}

// ReqLogWriter streams request events to w as a canonical reqlog
// journal. It is safe for concurrent use: a mutex orders the records
// (concurrent serving interleaves nondeterministically, but every
// journal it writes is well formed; single-goroutine runs — the
// deterministic harnesses — journal in exact stream order). Errors are
// sticky and surfaced by Close.
type ReqLogWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	seq uint64
	err error
}

// NewReqLogWriter writes the journal header to w and returns the
// writer. The caller owns w and closes it after Close.
func NewReqLogWriter(w io.Writer, desc string) (*ReqLogWriter, error) {
	rw := &ReqLogWriter{bw: bufio.NewWriter(w)}
	line, err := canonicalLine(reqHeader{T: "header", Schema: ReqLogSchema, Desc: desc})
	if err != nil {
		return nil, err
	}
	if _, err := rw.bw.Write(append(line, '\n')); err != nil {
		return nil, err
	}
	return rw, nil
}

// ReqEvent implements ReqProbe: append one record.
func (w *ReqLogWriter) ReqEvent(ev ReqEvent) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	rec := reqRecord{
		T: "req", Seq: w.seq, Key: ev.Key, Set: ev.Set,
		Outcome: ev.Outcome, Cost: ev.Cost,
	}
	if ev.Put {
		rec.Op, rec.Class = "put", Store.String()
		rec.Value = hex.EncodeToString(ev.Value)
	} else {
		rec.Op, rec.Class = "get", Load.String()
	}
	line, err := canonicalLine(rec)
	if err != nil {
		w.err = err
		return
	}
	// The mutex exists to order record emission; the write belongs
	// inside it or concurrent events would interleave bytes.
	if _, err := w.bw.Write(append(line, '\n')); err != nil {
		w.err = err
		return
	}
	w.seq++
}

// Close flushes the journal and returns the first error the writer
// hit, if any. It does not close the underlying io.Writer.
func (w *ReqLogWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// Count returns the number of records written so far.
func (w *ReqLogWriter) Count() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// ReadReqLog decodes a request journal under readJSONL's rules, and
// refuses gaps in the sequence and op/class disagreements too: a
// journal is versioned data whose replay must reproduce a run exactly
// or not at all.
func ReadReqLog(r io.Reader) (desc string, evs []ReqEvent, err error) {
	err = readJSONL(r, "reqlog", ReqLogSchema, map[string]func([]byte) error{
		"header": func(line []byte) error {
			var h reqHeader
			err := json.Unmarshal(line, &h)
			desc = h.Desc
			return err
		},
		"req": func(line []byte) error {
			var rec reqRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
			if rec.Seq != uint64(len(evs)) {
				return fmt.Errorf("seq %d, want %d (journal truncated or reordered)", rec.Seq, len(evs))
			}
			ev := ReqEvent{Key: rec.Key, Set: rec.Set, Outcome: rec.Outcome, Cost: rec.Cost}
			switch {
			case rec.Op == "get" && rec.Class == Load.String():
			case rec.Op == "put" && rec.Class == Store.String():
				ev.Put = true
				v, err := hex.DecodeString(rec.Value)
				if err != nil {
					return fmt.Errorf("value: %w", err)
				}
				ev.Value = v
			default:
				return fmt.Errorf("op %q / class %q disagree", rec.Op, rec.Class)
			}
			evs = append(evs, ev)
			return nil
		},
	})
	if err != nil {
		return "", nil, err
	}
	return desc, evs, nil
}
