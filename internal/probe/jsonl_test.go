package probe

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// jsonlFormats are the three readers that share readJSONL, each with a
// header line and a record line it accepts.
var jsonlFormats = map[string]struct {
	read           func(io.Reader) error
	header, record string
}{
	"journal": {
		read:   func(r io.Reader) error { _, err := ReadJournal(r); return err },
		header: validHeader,
		record: `{"accesses":100,"interval":1,"t":"retarget","target":5}` + "\n",
	},
	"reqlog": {
		read:   func(r io.Reader) error { _, _, err := ReadReqLog(r); return err },
		header: `{"desc":"","schema":"` + ReqLogSchema + `","t":"header"}` + "\n",
		record: `{"class":"load","cost":1,"key":"k","op":"get","outcome":"hit","seq":0,"set":0,"t":"req"}` + "\n",
	},
	"windows": {
		read:   func(r io.Reader) error { _, _, _, err := ReadShardWindows(r); return err },
		header: `{"desc":"a","schema":"` + WindowSchema + `","t":"header","window_ops":5}` + "\n",
		record: `{"p99_cost":1,"reads":3,"replicas":1,"shard":0,"t":"window","window":0,"writes":2}` + "\n",
	},
}

var errDiskOnFire = errors.New("disk on fire")

// readerRules is the one table of what every JSONL reader refuses: each
// row builds its input from the format's header and record lines and
// names a substring of the error, the line number included where the
// fault is on a line.
var readerRules = []struct {
	name  string
	input func(header, record string) string
	fail  bool // the reader fails with errDiskOnFire after the input
	want  string
}{
	{"empty input", func(_, _ string) string { return "" }, false, "no header"},
	{"blank lines only", func(_, _ string) string { return "\n\n\n" }, false, "no header"},
	{"malformed json", func(_, _ string) string { return "{not json}\n" }, false, "line 1"},
	{"malformed second line", func(h, _ string) string { return h + "{]\n" }, false, "line 2"},
	{"blank lines are counted", func(h, _ string) string { return h + "\n" + `{"t":"bogus"}` + "\n" }, false, "line 3: unknown record type"},
	{"missing header", func(_, r string) string { return r }, false, "line 1: no header"},
	{"late header", func(h, r string) string { return r + h }, false, "line 1: no header"},
	{"late second header", func(h, r string) string { return r + h + h }, false, "line 1: no header"},
	{"second header", func(h, _ string) string { return h + h }, false, "line 2: second header"},
	{"header after a record", func(h, r string) string { return h + r + h }, false, "line 3: second header"},
	{"wrong schema", func(h, _ string) string {
		return strings.NewReplacer(JournalSchema, "rwp-journal-v0", ReqLogSchema, "rwp-journal-v0", WindowSchema, "rwp-journal-v0").Replace(h)
	}, false, `line 1: schema "rwp-journal-v0"`},
	{"unknown record type", func(h, _ string) string { return h + `{"t":"bogus"}` + "\n" }, false, `line 2: unknown record type "bogus"`},
	{"line over the cap", func(h, _ string) string {
		return h + `{"t":"bogus","x":"` + strings.Repeat("x", maxLine) + `"}` + "\n"
	}, false, "token too long"},
	{"failing reader", func(h, r string) string { return h + r }, true, errDiskOnFire.Error()},
}

// checkReaderRules runs readerRules against one format, each row a
// subtest. The format's header and record lines are the control: read
// together they must decode.
func checkReaderRules(t *testing.T, format string) {
	t.Helper()
	f := jsonlFormats[format]
	if err := f.read(strings.NewReader(f.header + f.record)); err != nil {
		t.Fatalf("%s control input refused: %v", format, err)
	}
	for _, tc := range readerRules {
		t.Run(tc.name, func(t *testing.T) {
			var r io.Reader = strings.NewReader(tc.input(f.header, f.record))
			if tc.fail {
				r = &errReader{prefix: r, err: errDiskOnFire}
			}
			err := f.read(r)
			switch {
			case err == nil:
				t.Fatalf("%s reader accepted the input", format)
			case !strings.Contains(err.Error(), tc.want):
				t.Errorf("error %q does not mention %q", err, tc.want)
			case tc.fail && !errors.Is(err, errDiskOnFire):
				t.Errorf("error %q does not wrap the reader's", err)
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
