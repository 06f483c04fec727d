package probe

import (
	"bufio"
	"encoding/json"
	"io"
)

// WindowSchema versions the cluster shard-window journal. Windows are
// keyed by operation count — never wall clock — so a journal is a pure
// function of the routed stream and the shard-manager's decisions can
// be reproduced bit-identically from it (internal/cluster pins that
// with a replay test).
const WindowSchema = "rwp-cluster-windows-v1"

// ShardWindow is one ring shard's load sample over one op-count
// window, as observed by the cluster router: op-rate split by class,
// the p99 of the deterministic per-op service costs (queue-depth
// proxy, see internal/cluster), and the shard's replica count at the
// window boundary. The shard manager consumes exactly these records —
// nothing else — which is what makes its decisions replayable.
type ShardWindow struct {
	// Window is the 0-based window index (window boundaries fall every
	// WindowOps routed operations).
	Window int
	// Shard is the ring shard index.
	Shard int
	// Reads and Writes count the shard's routed operations in the
	// window (a write to R replicas counts once — it is one stream op).
	Reads  uint64
	Writes uint64
	// P99Cost is the 99th percentile of the shard's read service costs
	// in the window (0 when the shard saw no reads).
	P99Cost int
	// Replicas is the shard's replica count at the window's end, before
	// the manager acts on this window.
	Replicas int
}

// windowHeader identifies a shard-window journal.
type windowHeader struct {
	T         string `json:"t"` // "header"
	Schema    string `json:"schema"`
	Desc      string `json:"desc"`
	WindowOps int    `json:"window_ops"`
}

// windowRecord is the JSONL form of one ShardWindow.
type windowRecord struct {
	T        string `json:"t"` // "window"
	Window   int    `json:"window"`
	Shard    int    `json:"shard"`
	Reads    uint64 `json:"reads"`
	Writes   uint64 `json:"writes"`
	P99Cost  int    `json:"p99_cost"`
	Replicas int    `json:"replicas"`
}

// WindowWriter streams a cluster run's shard-window log as canonical
// JSONL (sorted keys, fixed record order), the same discipline as the
// run journals: two logs of the same run are byte-identical, and a
// run's log is, through its last whole window, a byte prefix of the log
// of any longer run of the same stream. It holds no window: each Window
// call encodes its records and writes them through, so a journal costs
// the writer one bufio buffer however long the run.
//
// The header goes out with the first window, because its window_ops —
// the op-count window width — is read off that window (the sum of its
// shards' reads and writes), not configured. A journal closed before
// any window carries window_ops 0.
type WindowWriter struct {
	bw     *bufio.Writer
	desc   string
	headed bool
}

// NewWindowWriter starts a journal on w; desc labels the run. The
// caller keeps ownership of w and closes it after Close.
func NewWindowWriter(w io.Writer, desc string) *WindowWriter {
	return &WindowWriter{bw: bufio.NewWriter(w), desc: desc}
}

func (ww *WindowWriter) header(windowOps int) error {
	ww.headed = true
	return writeCanonical(ww.bw, windowHeader{T: "header", Schema: WindowSchema, Desc: ww.desc, WindowOps: windowOps})
}

// Window appends one closed window's records (one per shard, ascending
// shard order) and flushes them, so the file on disk always ends on a
// whole window. ws is not retained.
func (ww *WindowWriter) Window(ws []ShardWindow) error {
	if !ww.headed {
		var ops uint64
		for _, s := range ws {
			ops += s.Reads + s.Writes
		}
		if err := ww.header(int(ops)); err != nil {
			return err
		}
	}
	for _, s := range ws {
		if err := writeCanonical(ww.bw, windowRecord{
			T: "window", Window: s.Window, Shard: s.Shard,
			Reads: s.Reads, Writes: s.Writes,
			P99Cost: s.P99Cost, Replicas: s.Replicas,
		}); err != nil {
			return err
		}
	}
	return ww.bw.Flush()
}

// Close completes the journal: a run that closed no window still gets
// its header.
func (ww *WindowWriter) Close() error {
	if !ww.headed {
		if err := ww.header(0); err != nil {
			return err
		}
	}
	return ww.bw.Flush()
}

// ReadShardWindows decodes a shard-window journal under readJSONL's
// rules.
func ReadShardWindows(r io.Reader) (desc string, windowOps int, ws []ShardWindow, err error) {
	err = readJSONL(r, "windows", WindowSchema, map[string]func([]byte) error{
		"header": func(line []byte) error {
			var h windowHeader
			err := json.Unmarshal(line, &h)
			desc, windowOps = h.Desc, h.WindowOps
			return err
		},
		"window": func(line []byte) error {
			var rec windowRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
			ws = append(ws, ShardWindow{
				Window: rec.Window, Shard: rec.Shard,
				Reads: rec.Reads, Writes: rec.Writes,
				P99Cost: rec.P99Cost, Replicas: rec.Replicas,
			})
			return nil
		},
	})
	if err != nil {
		return "", 0, nil, err
	}
	return desc, windowOps, ws, nil
}
