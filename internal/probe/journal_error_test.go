package probe

import (
	"strings"
	"testing"
)

// validHeader is a line ReadJournal accepts, used as a prefix where a
// test needs decoding to get past the header.
const validHeader = `{"desc":"d","kind":"single","schema":"` + JournalSchema + `","t":"header","window":100}` + "\n"

// TestReadJournalDecodeErrors runs the shared reader rules, then the
// rows only a run journal has: malformed records of its own types.
func TestReadJournalDecodeErrors(t *testing.T) {
	checkReaderRules(t, "journal")
	for _, tc := range []struct {
		name  string
		input string
		want  string // substring of the error
	}{
		{"type mismatch in record", validHeader + `{"t":"retarget","interval":"three"}` + "\n", "line 2"},
		{"bad result record", validHeader + `{"t":"result","result":"fast"}` + "\n", "line 2: result record carries no result object"},
		{"result record without a result", validHeader + `{"t":"result"}` + "\n", "line 2: result record carries no result object"},
		{"bad policy record", validHeader + `{"t":"policy","count":"many"}` + "\n", "line 2"},
		{"bad interval record", validHeader + `{"t":"interval","index":"first"}` + "\n", "line 2"},
		{"bad header types", `{"t":"header","schema":5}` + "\n", "line 1"},
		{"class records are gone", validHeader + `{"t":"class","class":"load"}` + "\n", `line 2: unknown record type "class"`},
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

func TestReadJournalBlankLinesBetweenRecords(t *testing.T) {
	// Blank lines are tolerated (line numbers still count them).
	input := validHeader + "\n" + `{"accesses":100,"interval":1,"t":"retarget","target":5}` + "\n"
	j, err := ReadJournal(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if j.FinalTarget() != 5 {
		t.Fatalf("retargets = %+v", j.Retargets)
	}
}
