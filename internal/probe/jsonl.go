package probe

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// The three journals here — run journals, request journals and
// shard-window journals — are JSONL streams: one JSON object per line,
// each carrying a "t" discriminator, the first of them a header naming
// the schema. Lines are canonical — top-level object keys are sorted and
// floats use Go's shortest round-trip encoding — so two journals of the
// same run are byte-identical. One writer helper and one scan loop serve
// all three.

// maxLine caps one journal line. A request journal's Put value reaches
// the transport's 1 MiB cap, which doubles in hex.
const maxLine = 8 * 1024 * 1024

// canonicalLine marshals a record with sorted top-level keys. The
// struct is marshaled once for the values, re-read as raw fields so
// integers and nested objects keep their exact text, and marshaled
// again as a map (Go sorts map keys), yielding one canonical line per
// record.
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

// readJSONL is the scan loop every journal reader here shares. It
// numbers lines (blank ones are skipped but counted), reads each
// record's "t" discriminator and keeps the header rule: the first
// record is the header, of the given schema, and no later record is
// one. Every record, the header included, goes to decode[t]; a record
// type decode does not name is an error, and so is a journal with no
// header — a journal is versioned data, not a log to be skimmed. name
// labels the errors, which carry the line number.
func readJSONL(r io.Reader, name, schema string, decode map[string]func(line []byte) error) error {
	sawHeader := false
	record := func(line []byte) error {
		var disc struct {
			T      string `json:"t"`
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(line, &disc); err != nil {
			return err
		}
		switch isHeader := disc.T == "header"; {
		case isHeader && sawHeader:
			return errors.New("second header")
		case !isHeader && !sawHeader:
			return errors.New("no header before this record")
		case isHeader && disc.Schema != schema:
			return fmt.Errorf("schema %q, want %q", disc.Schema, schema)
		}
		dec, known := decode[disc.T]
		if !known {
			return fmt.Errorf("unknown record type %q", disc.T)
		}
		sawHeader = true
		return dec(line)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	for lineNo := 1; sc.Scan(); lineNo++ {
		if line := sc.Bytes(); len(line) > 0 {
			if err := record(line); err != nil {
				return fmt.Errorf("probe: %s line %d: %w", name, lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("probe: reading %s: %w", name, err)
	}
	if !sawHeader {
		return fmt.Errorf("probe: %s has no header", name)
	}
	return nil
}
