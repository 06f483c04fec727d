package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// FuzzDecode holds Decode to its contract on arbitrary input: it never
// panics, it refuses with ErrSchema or ErrCorrupt and no snapshot, and
// whatever it accepts re-encodes to exactly the input bytes — the
// canonical form the re-snapshot fixed point rests on. Each input is
// tried as given and with its trailer replaced by the body's CRC, so
// mutations reach the structural checks behind the checksum. The seed
// corpus (testdata/fuzz/FuzzDecode) holds snapshots of a small lru and
// a small rwp cache, a truncated one and an rwp-snap-v4 file.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(sample()))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeRoundTrip(t, data)
		if len(data) >= 4 {
			body := data[: len(data)-4 : len(data)-4]
			decodeRoundTrip(t, binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crcTab)))
		}
	})
}

func decodeRoundTrip(t *testing.T, data []byte) {
	s, err := Decode(data)
	if err != nil {
		if s != nil || !(errors.Is(err, ErrSchema) || errors.Is(err, ErrCorrupt)) {
			t.Fatalf("Decode refused with (%v, %v), want (nil, ErrSchema or ErrCorrupt)", s, err)
		}
		return
	}
	if again := Encode(s); !bytes.Equal(again, data) {
		t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), len(again))
	}
}
