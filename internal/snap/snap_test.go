package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rwp/internal/core"
)

// sample builds a small but fully-populated snapshot: two sets, one
// with entries, in two one-set groups, one with a ledger and a warm
// predictor (histograms, sampler stacks).
func sample() *Snapshot {
	st := core.State{
		TargetDirty:  2,
		Accesses:     250,
		Intervals:    2,
		RetargetUp:   1,
		RetargetDown: 0,
		RetargetSame: 1,
		CleanHist:    []uint64{4, 2, 1, 0},
		DirtyHist:    []uint64{1, 0, 0, 2},
		Samplers: []core.SamplerState{{
			Clean: []core.SamplerEntry{{Line: 0xdeadbeef, Rewritten: true}, {Line: 7}},
			Dirty: []core.SamplerEntry{{Line: 42}},
		}},
	}
	st2 := core.State{
		TargetDirty: 1,
		CleanHist:   make([]uint64, 4),
		DirtyHist:   make([]uint64, 4),
		Samplers:    []core.SamplerState{{}},
	}
	return &Snapshot{
		Policy: "rwp",
		Sets:   4,
		Ways:   4,
		RWP:    core.Config{SamplerSets: 1, Interval: 100, DecayShift: 1, InitialDirtyTarget: -1},
		Lo:     1,
		Hi:     3,
		Records: []SetRecord{
			{
				Set: 1,
				Entries: []Entry{
					{Key: "k1", Value: []byte("v1"), Dirty: true},
					{Key: "k2", Value: nil, Dirty: false},
				},
			},
			{Set: 2},
		},
		Groups: []GroupRecord{
			// Opaque to this package: any vector round-trips.
			{Ops: []uint64{10, 6, 4, 0, 1 << 40}, RWP: &st},
			{RWP: &st2},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sample()
	data := Encode(s)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip differs:\ngot  %+v\nwant %+v", got, s)
	}
	// Encoding is canonical: re-encoding the decode is byte-identical.
	if !bytes.Equal(Encode(got), data) {
		t.Fatal("re-encode is not byte-identical")
	}
}

func TestDecodeWrongSchema(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("short"),
		// Older and newer schemas are rejected at the magic, never
		// half-read.
		[]byte("rwp-snap-v1\nxxxxxxxxxxxxxxxx"),
		[]byte("rwp-snap-v2\nxxxxxxxxxxxxxxxx"),
		append([]byte("rwp-snap-v3\n"), Encode(sample())[len(Magic):]...),
		append([]byte("rwp-snap-v4\n"), Encode(sample())[len(Magic):]...),
		[]byte("rwp-snap-v6\nxxxxxxxxxxxxxxxx"),
		bytes.Repeat([]byte{0xff}, 64),
	} {
		if _, err := Decode(data); !errors.Is(err, ErrSchema) {
			t.Errorf("Decode(%q...) = %v, want ErrSchema", data[:min(8, len(data))], err)
		}
	}
}

func TestDecodeTruncationEverywhere(t *testing.T) {
	data := Encode(sample())
	for n := len(Magic); n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("Decode accepted truncation to %d of %d bytes", n, len(data))
		}
	}
}

func TestDecodeBitFlips(t *testing.T) {
	data := Encode(sample())
	// Flip one bit at a sample of offsets; the CRC must catch each
	// (flipping inside the CRC trailer itself breaks the match too).
	for off := 0; off < len(data); off += 7 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x10
		if string(mut[:len(Magic)]) == Magic {
			if _, err := Decode(mut); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("bit flip at %d: err = %v, want ErrCorrupt", off, err)
			}
		} else if _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at %d (magic) accepted", off)
		}
	}
}

// mutate decodes, applies f, re-encodes. Mutations that Encode can
// express (wrong counters, bad ranges) go through this path so the CRC
// is valid and structural checks are exercised.
func mutate(t *testing.T, f func(s *Snapshot)) []byte {
	t.Helper()
	s, err := Decode(Encode(sample()))
	if err != nil {
		t.Fatalf("Decode(sample): %v", err)
	}
	f(s)
	return Encode(s)
}

func TestDecodeStructuralRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(s *Snapshot)
	}{
		{"duplicate set record", func(s *Snapshot) { s.Records[1] = s.Records[0] }},
		{"out-of-order records", func(s *Snapshot) { s.Records[0], s.Records[1] = s.Records[1], s.Records[0] }},
		{"record outside range", func(s *Snapshot) { s.Records[1].Set = 3 }},
		{"missing record", func(s *Snapshot) { s.Records = s.Records[:1] }},
		{"extra record", func(s *Snapshot) { s.Records = append(s.Records, SetRecord{Set: 3}) }},
		{"entries exceed ways", func(s *Snapshot) {
			r := &s.Records[0]
			for i := 0; i < 5; i++ {
				r.Entries = append(r.Entries, Entry{Key: strings.Repeat("x", i+3)})
			}
		}},
		{"duplicate key in set", func(s *Snapshot) { s.Records[0].Entries[1].Key = s.Records[0].Entries[0].Key }},
		{"inverted range", func(s *Snapshot) { s.Lo, s.Hi = s.Hi, s.Lo; s.Records = nil }},
		{"hi beyond sets", func(s *Snapshot) {
			s.Hi = 5
			s.Records = append(s.Records, SetRecord{Set: 3}, SetRecord{Set: 4})
		}},
		{"sets not power of two", func(s *Snapshot) { s.Sets = 3 }},
		{"zero ways", func(s *Snapshot) { s.Ways = 0 }},
		{"counter vector beyond limit", func(s *Snapshot) { s.Groups[0].Ops = make([]uint64, MaxCounters+1) }},
		{"target beyond ways", func(s *Snapshot) { s.Groups[0].RWP.TargetDirty = 5 }},
		{"direction sum broken", func(s *Snapshot) { s.Groups[0].RWP.RetargetUp++ }},
		{"sampler stack beyond ways", func(s *Snapshot) {
			s.Groups[0].RWP.Samplers[0].Clean = make([]core.SamplerEntry, 5)
		}},
		{"more groups than sets", func(s *Snapshot) { s.Groups = append(s.Groups, s.Groups[1]) }},
		{"groups do not divide the range", func(s *Snapshot) {
			s.Lo, s.Records = 0, append([]SetRecord{{Set: 0}}, s.Records...)
		}},
	}
	for _, tc := range cases {
		data := mutate(t, tc.mut)
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

func TestDecodeRejectsUnsupportedPolicy(t *testing.T) {
	s := sample()
	s.Policy = "bogus"
	s.Groups = nil
	if _, err := Decode(Encode(s)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unsupported policy: %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsPolicyFlagMismatch(t *testing.T) {
	// An "lru" snapshot that carries RWP state, and vice versa.
	s := sample()
	s.Policy = "lru"
	if _, err := Decode(Encode(s)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("lru with rwp state: %v, want ErrCorrupt", err)
	}
	s = sample()
	for i := range s.Groups {
		s.Groups[i].RWP = nil
	}
	if _, err := Decode(Encode(s)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rwp without state: %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	data := Encode(sample())
	// Pad the body with junk and re-seal with a fresh valid CRC: the
	// structural check, not the checksum, must reject it.
	body := append(append([]byte(nil), data[:len(data)-4]...), 0, 0, 0)
	sealed := binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crcTab))
	if _, err := Decode(sealed); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: %v, want ErrCorrupt", err)
	}
}

// TestDecodeRejectsPaddedVarint: a varint written longer than Encode
// writes it (the policy length 3 as 0x83 0x00) is refused even under a
// valid CRC, so every accepted snapshot re-encodes to its own bytes.
func TestDecodeRejectsPaddedVarint(t *testing.T) {
	data := Encode(sample())
	body := append([]byte(nil), data[:len(Magic)]...)
	body = append(body, 0x83, 0x00)
	body = append(body, data[len(Magic)+1:len(data)-4]...)
	sealed := binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crcTab))
	if _, err := Decode(sealed); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("padded varint: %v, want ErrCorrupt", err)
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "cache.snap")
	s := sample()
	if err := WriteFile(p, s); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(p)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatal("file round trip differs")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.snap")); err == nil {
		t.Fatal("ReadFile(missing) succeeded")
	}
}
