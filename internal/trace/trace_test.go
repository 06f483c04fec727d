package trace

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"rwp/internal/mem"
	"rwp/internal/xrand"
)

func sampleTrace(n int, seed uint64) []mem.Access {
	rng := xrand.New(seed)
	recs := make([]mem.Access, n)
	ic := uint64(0)
	for i := range recs {
		ic += uint64(rng.Intn(8))
		k := mem.Load
		if rng.Intn(3) == 0 {
			k = mem.Store
		}
		recs[i] = mem.Access{
			PC:   mem.Addr(0x400000 + rng.Intn(1024)*4),
			Addr: mem.Addr(rng.Intn(1 << 20)),
			IC:   ic,
			Kind: k,
		}
	}
	return recs
}

func TestSliceSource(t *testing.T) {
	recs := sampleTrace(100, 1)
	s := NewSlice(recs)
	got, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("Collect(NewSlice(recs)) != recs")
	}
	if _, err := s.Next(); err != ErrEnd {
		t.Fatalf("exhausted source returned %v, want ErrEnd", err)
	}
	s.Reset()
	a, err := s.Next()
	if err != nil || a != recs[0] {
		t.Fatalf("after Reset got %v, %v", a, err)
	}
}

func TestLimit(t *testing.T) {
	recs := sampleTrace(50, 2)
	got, err := Collect(NewLimit(NewSlice(recs), 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("limit yielded %d records, want 10", len(got))
	}
	if !reflect.DeepEqual(got, recs[:10]) {
		t.Fatal("limit changed record content")
	}
	// A limit larger than the trace ends at trace end.
	got, err = Collect(NewLimit(NewSlice(recs), 500))
	if err != nil || len(got) != 50 {
		t.Fatalf("oversized limit: %d records, err %v", len(got), err)
	}
}

func TestConcatRebasesIC(t *testing.T) {
	a := sampleTrace(20, 3)
	b := sampleTrace(20, 4)
	got, err := Collect(NewConcat(NewSlice(a), NewSlice(b)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("concat yielded %d records, want 40", len(got))
	}
	prev := uint64(0)
	for i, r := range got {
		if r.IC < prev {
			t.Fatalf("IC regressed at record %d: %d < %d", i, r.IC, prev)
		}
		prev = r.IC
	}
	// The second half must start strictly after the first half's last IC.
	if got[20].IC <= got[19].IC {
		t.Fatalf("second source not rebased: %d <= %d", got[20].IC, got[19].IC)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	recs := sampleTrace(5000, 5)
	var buf bytes.Buffer
	n, err := WriteAll(&buf, NewSlice(recs))
	if err != nil {
		t.Fatal(err)
	}
	if n != 5000 {
		t.Fatalf("wrote %d records, want 5000", n)
	}
	got, err := Collect(NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("decode(encode(trace)) != trace")
	}
}

func TestCodecRoundTripQuick(t *testing.T) {
	// Property: arbitrary monotone-IC traces survive a round trip.
	f := func(seed uint64, n uint8) bool {
		recs := sampleTrace(int(n), seed)
		var buf bytes.Buffer
		if _, err := WriteAll(&buf, NewSlice(recs)); err != nil {
			return false
		}
		got, err := Collect(NewReader(&buf))
		if err != nil {
			return false
		}
		if len(recs) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSlice(nil)); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty trace decoded to %d records", len(got))
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Collect(NewReader(bytes.NewReader([]byte("not a trace")))); err == nil {
		t.Fatal("garbage input decoded without error")
	}
}

func TestCodecRejectsICRegression(t *testing.T) {
	tw := NewWriter(&bytes.Buffer{})
	if err := tw.Write(mem.Access{IC: 10}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(mem.Access{IC: 5}); err == nil {
		t.Fatal("IC regression accepted")
	}
}

func TestCodecRejectsInvalidKind(t *testing.T) {
	tw := NewWriter(&bytes.Buffer{})
	if err := tw.Write(mem.Access{Kind: mem.Kind(7)}); err == nil {
		t.Fatal("invalid kind accepted")
	}
}

func TestCodecCompression(t *testing.T) {
	// Delta encoding should beat naive 25-byte records comfortably on a
	// strided trace.
	recs := make([]mem.Access, 10000)
	for i := range recs {
		recs[i] = mem.Access{PC: 0x400100, Addr: mem.Addr(i * 64), IC: uint64(i * 3), Kind: mem.Load}
	}
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSlice(recs)); err != nil {
		t.Fatal(err)
	}
	perRec := float64(buf.Len()) / float64(len(recs))
	if perRec > 8 {
		t.Errorf("strided trace costs %.1f bytes/record, want <= 8", perRec)
	}
}

func TestSummarize(t *testing.T) {
	recs := []mem.Access{
		{Addr: 0, Kind: mem.Load, IC: 0},
		{Addr: 32, Kind: mem.Store, IC: 5},  // same line as 0
		{Addr: 128, Kind: mem.Load, IC: 9},  // second line
		{Addr: 130, Kind: mem.Load, IC: 12}, // same second line
		{Addr: 4096, Kind: mem.Store, IC: 20} /* third line */}
	st, err := Summarize(NewSlice(recs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses != 5 || st.Loads != 3 || st.Stores != 2 {
		t.Fatalf("counts wrong: %+v", st)
	}
	if st.Lines != 3 {
		t.Fatalf("lines = %d, want 3", st.Lines)
	}
	if st.Instructions != 21 {
		t.Fatalf("instructions = %d, want 21", st.Instructions)
	}
	if got := st.ReadRatio(); got != 0.6 {
		t.Fatalf("read ratio = %v, want 0.6", got)
	}
	if st.FootprintBytes() != 3*64 {
		t.Fatalf("footprint = %d", st.FootprintBytes())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st, err := Summarize(NewSlice(nil))
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses != 0 || st.ReadRatio() != 0 {
		t.Fatalf("empty stats wrong: %+v", st)
	}
}
