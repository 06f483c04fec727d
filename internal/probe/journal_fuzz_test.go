package probe

import (
	"bufio"
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// FuzzReadJournal holds ReadJournal to its contract on arbitrary input:
// it never panics, and whatever it accepts keeps the header rules — the
// first record is a header of the current schema and no other record
// is one. (WriteJournal encodes result objects and a Recorder, not a
// decoded Journal, so there is no writer to round-trip through.) The
// seed corpus (testdata/fuzz/FuzzReadJournal) holds a small recorded
// journal of the first schema, a truncated one, one whose header comes
// after a record, and one with two headers; the added seed is a
// journal of the current schema.
func FuzzReadJournal(f *testing.F) {
	f.Add([]byte(validHeader +
		`{"result":{"Workload":"mcf","IPC":0.5},"t":"result"}` + "\n" +
		`{"accesses":100,"interval":1,"t":"retarget","target":5}` + "\n" +
		`{"count":2,"kind":"bypass","last":1,"policy":"rrp","t":"policy"}` + "\n" +
		`{"cycles":9,"dirty_lines":1,"dirty_target":5,"end_access":100,"index":0,"instructions":4,"read_misses":2,"t":"interval","valid_lines":8}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		if j.Header.Schema != JournalSchema {
			t.Fatalf("accepted a journal of schema %q", j.Header.Schema)
		}
		checkHeaderRules(t, data)
	})
}

// FuzzReadShardWindows holds ReadShardWindows to its contract on
// arbitrary input: it never panics, whatever it accepts keeps the
// header rules, and the accepted windows round-trip — re-encoded
// through WindowWriter under the accepted desc they decode to the same
// desc and windows, and encoding those again gives the same bytes. The
// window width is not compared: the writer derives it from the first
// window instead of carrying the header's. The seed corpus
// (testdata/fuzz/FuzzReadShardWindows) is FuzzReadJournal's four
// shapes over a recorded window journal.
func FuzzReadShardWindows(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		desc, _, ws, err := ReadShardWindows(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkHeaderRules(t, data)
		var again bytes.Buffer
		if err := writeWindows(&again, desc, ws); err != nil {
			t.Fatal(err)
		}
		desc2, _, ws2, err := ReadShardWindows(bytes.NewReader(again.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded journal refused: %v", err)
		}
		if desc2 != desc || !slices.Equal(ws2, ws) {
			t.Fatalf("re-encoded journal decodes to %q %+v, want %q %+v", desc2, ws2, desc, ws)
		}
		var third bytes.Buffer
		if err := writeWindows(&third, desc2, ws2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(third.Bytes(), again.Bytes()) {
			t.Fatalf("the encoding is not canonical:\n%s\nvs\n%s", third.Bytes(), again.Bytes())
		}
	})
}

// checkHeaderRules fails t unless the first non-blank line of an
// accepted journal is its header and no later line is one.
func checkHeaderRules(t *testing.T, data []byte) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 8*1024*1024)
	records := 0
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var disc struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(sc.Bytes(), &disc); err != nil {
			t.Fatalf("accepted journal has a malformed record %d: %v", records, err)
		}
		if isHeader := disc.T == "header"; isHeader != (records == 0) {
			t.Fatalf("accepted journal has record %d of type %q", records, disc.T)
		}
		records++
	}
}
