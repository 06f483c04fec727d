package probe

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// validHeader is a line ReadJournal accepts, used as a prefix where a
// test needs decoding to get past the header.
const validHeader = `{"desc":"d","kind":"single","schema":"` + JournalSchema + `","t":"header","window":100}` + "\n"

func TestReadJournalDecodeErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input string
		want  string // substring of the error
	}{
		{"empty input", "", "no header"},
		{"blank lines only", "\n\n\n", "no header"},
		{"malformed json", "{not json}\n", "line 1"},
		{"missing header", `{"t":"evictions","clean":1,"dirty":2}` + "\n", "no header"},
		{"wrong schema", `{"schema":"rwp-journal-v0","t":"header"}` + "\n", `schema "rwp-journal-v0"`},
		{"unknown record type", validHeader + `{"t":"bogus"}` + "\n", `unknown record type "bogus"`},
		{"unknown class", validHeader + `{"t":"class","class":"prefetch"}` + "\n", `unknown class "prefetch"`},
		{"type mismatch in record", validHeader + `{"t":"retarget","interval":"three"}` + "\n", "line 2"},
		{"malformed second line", validHeader + "{]\n", "line 2"},
		{"bad result record", validHeader + `{"t":"result","ipc":"fast"}` + "\n", "line 2"},
		{"bad evictions record", validHeader + `{"t":"evictions","clean":-1}` + "\n", "line 2"},
		{"bad policy record", validHeader + `{"t":"policy","count":"many"}` + "\n", "line 2"},
		{"bad interval record", validHeader + `{"t":"interval","index":"first"}` + "\n", "line 2"},
		{"bad header types", `{"t":"header","schema":5}` + "\n", "line 1"},
		{"late header", `{"t":"evictions","clean":1,"dirty":2}` + "\n" + validHeader, "line 1: no header"},
		{"second header", validHeader + strings.Replace(validHeader, `"desc":"d"`, `"desc":"e"`, 1), "line 2: second header"},
		{"repeated class", validHeader + `{"t":"class","class":"load","accesses":5}` + "\n" + `{"t":"class","class":"load","accesses":9}` + "\n", `line 3: second "load" class record`},
		{"repeated evictions", validHeader + `{"t":"evictions","clean":1,"dirty":2}` + "\n" + `{"t":"evictions","clean":7,"dirty":8}` + "\n", "line 3: second evictions record"},
		{"late second header", `{"t":"evictions","clean":1,"dirty":2}` + "\n" + validHeader + validHeader, "line 1: no header"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, err := ReadJournal(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("ReadJournal accepted %q: %+v", tc.input, j)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// errReader fails after yielding its prefix, exercising the scanner
// error path.
type errReader struct {
	prefix io.Reader
	err    error
	done   bool
}

func (r *errReader) Read(p []byte) (int, error) {
	if !r.done {
		n, err := r.prefix.Read(p)
		if err == io.EOF {
			r.done = true
			return n, nil
		}
		return n, err
	}
	return 0, r.err
}

func TestReadJournalReaderError(t *testing.T) {
	sentinel := errors.New("disk on fire")
	_, err := ReadJournal(&errReader{prefix: strings.NewReader(validHeader), err: sentinel})
	if !errors.Is(err, sentinel) {
		t.Fatalf("ReadJournal error = %v, want wrapped %v", err, sentinel)
	}
}

func TestReadJournalOversizedLine(t *testing.T) {
	// The scanner caps lines at 4 MiB; a longer line must surface as an
	// error, not a silent truncation.
	long := validHeader + `{"t":"policy","kind":"` + strings.Repeat("x", 5*1024*1024) + `"}` + "\n"
	if _, err := ReadJournal(strings.NewReader(long)); err == nil {
		t.Fatal("ReadJournal accepted a 5MiB line")
	}
}

func TestReadJournalBlankLinesBetweenRecords(t *testing.T) {
	// Blank lines are tolerated (line numbers still count them).
	input := validHeader + "\n" + `{"t":"evictions","clean":3,"dirty":4}` + "\n"
	j, err := ReadJournal(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if j.EvictClean != 3 || j.EvictDirty != 4 {
		t.Fatalf("evictions = %d/%d", j.EvictClean, j.EvictDirty)
	}
}
