package probe

import (
	"bytes"
	"testing"
)

// FuzzReadReqLog holds ReadReqLog to its contract on arbitrary input:
// it never panics, and whatever it accepts round-trips — the accepted
// events, re-encoded through ReqLogWriter under the accepted desc,
// decode to the same desc and events, and encoding those again gives
// the same bytes. The seed corpus (testdata/fuzz/FuzzReadReqLog) holds
// a small recorded journal, a truncated one, one whose header comes
// after a record, and one with two headers.
func FuzzReadReqLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		desc, evs, err := ReadReqLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		again := writeReqLog(t, desc, evs)
		desc2, evs2, err := ReadReqLog(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded journal refused: %v", err)
		}
		if desc2 != desc || !sameReqEvents(evs, evs2) {
			t.Fatalf("re-encoded journal decodes to %q %+v, want %q %+v", desc2, evs2, desc, evs)
		}
		if third := writeReqLog(t, desc2, evs2); !bytes.Equal(third, again) {
			t.Fatalf("the encoding is not canonical:\n%s\nvs\n%s", third, again)
		}
	})
}

// sameReqEvents compares event lists, an empty Put payload equal to a
// nil one.
func sameReqEvents(a, b []ReqEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Put != y.Put || x.Key != y.Key || x.Set != y.Set || x.Outcome != y.Outcome ||
			x.Cost != y.Cost || !bytes.Equal(x.Value, y.Value) {
			return false
		}
	}
	return true
}
