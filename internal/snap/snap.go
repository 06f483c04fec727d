// Package snap is the deterministic snapshot format for the live RWP
// cache: schema rwp-snap-v5, a canonical binary encoding with a
// CRC-32C trailer, written atomically (fsatomic). A snapshot is
// set-indexed, never shard-indexed — it records, per global set, the
// resident entries in recency order, and then one record per policy
// group of consecutive sets: the group's ledger vector and, under RWP,
// its predictor state — so restoring it into a cache with any shard
// count reproduces the same /stats document and the same future
// behavior as the never-restarted run.
//
// Way indices are deliberately absent from the format. Fills always
// take the lowest invalid way, so a set holding K entries has exactly
// ways 0..K-1 valid with the invalid tail at the recency bottom in
// ascending order; replaying the recorded MRU→LRU entries as fills
// into ways 0..K-1 reproduces an observationally identical set, and
// makes re-snapshotting a restored cache a byte-exact fixed point.
//
// Decode validates everything it can see — schema, checksum, bounds,
// ordering — before returning; the checks that need the target cache
// (key-to-set hashing, config match, the group size, the ledger
// vector's length and conservation laws, which only internal/live can
// name) run in live's
// checkSnapshot, also before any mutation. A corrupt snapshot
// therefore never installs partial state anywhere.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"rwp/internal/core"
)

// Magic is the schema identifier leading every snapshot file; any
// other version is rejected with ErrSchema rather than misread. A group
// record's ledger (counters, then cost-table cells) is one opaque
// length-prefixed vector, and nothing in the format grows with uptime —
// in particular no per-retarget history.
// Negative-cache contents and in-flight fill state are
// deliberately NOT in the format: both are transient op-clocked state,
// and a restored cache starting with them cold only re-consults the
// backend — it never serves a stale absence verdict (see DESIGN.md §16).
const Magic = "rwp-snap-v5\n"

// Limits mirror the wire protocol's: a snapshot holds the same keys
// and values the transport carries.
const (
	// MaxKey bounds one key's byte length.
	MaxKey = 1 << 16
	// MaxValue bounds one value's byte length.
	MaxValue = 1 << 20
	// MaxSets bounds the set count a decoder will believe.
	MaxSets = 1 << 24
	// MaxWays bounds associativity (recency tables hold way indices in
	// a byte).
	MaxWays = 256
	// MaxCounters bounds the per-group ledger vector a decoder will
	// believe.
	MaxCounters = 64
)

// ErrSchema reports a file that is not an rwp-snap-v5 snapshot at all.
var ErrSchema = errors.New("snap: unrecognized snapshot schema")

// ErrCorrupt reports a snapshot that declares the right schema but
// fails checksum or structural validation.
var ErrCorrupt = errors.New("snap: corrupt snapshot")

// Snapshot is the decoded form: the cache geometry it was taken from
// and one record per set in [Lo, Hi), ascending.
type Snapshot struct {
	// Policy is the replacement policy name ("lru" or "rwp").
	Policy string
	// Sets and Ways are the source cache's geometry.
	Sets, Ways int
	// RWP is the policy configuration (ignored for "lru").
	RWP core.Config
	// Lo, Hi delimit the covered global-set range [Lo, Hi).
	Lo, Hi int
	// Records holds exactly Hi-Lo set records; Records[i].Set == Lo+i.
	Records []SetRecord
	// Groups holds one record per policy group of the range, ascending:
	// the range's sets divide evenly among them. The group size belongs
	// to internal/live, which checks it.
	Groups []GroupRecord
}

// SetRecord is one global set's contents.
type SetRecord struct {
	// Set is the global set index.
	Set int
	// Entries are the resident lines in recency order, MRU first.
	Entries []Entry
}

// GroupRecord is one policy group's history and predictor.
type GroupRecord struct {
	// Ops is the group's cumulative ledger vector: its counters, then its
	// cost-table cells. The format carries it opaquely: its length, order
	// and conservation laws belong to internal/live, whose restore paths
	// check all three.
	Ops []uint64
	// RWP is the group's predictor state, with one sampler. Present iff
	// the policy is "rwp".
	RWP *core.State
}

// Entry is one resident line.
type Entry struct {
	Key   string
	Value []byte
	Dirty bool
}

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// Encode renders s in the canonical rwp-snap-v5 byte form. The
// encoding is a pure function of s: identical snapshots encode to
// identical bytes, which is what lets rwpserve's
// TestSelftestRestartEquivalence compare the re-snapshot fixed point
// byte for byte. A group's predictor is written where it is present;
// Decode reads one per group exactly when the policy is "rwp", so a
// snapshot that contradicts its policy does not decode.
func Encode(s *Snapshot) []byte {
	b := make([]byte, 0, 1<<12)
	b = append(b, Magic...)
	b = appendString(b, s.Policy)
	b = binary.AppendUvarint(b, uint64(s.Sets))
	b = binary.AppendUvarint(b, uint64(s.Ways))
	b = binary.AppendUvarint(b, uint64(s.RWP.SamplerSets))
	b = binary.AppendUvarint(b, s.RWP.Interval)
	b = binary.AppendUvarint(b, uint64(s.RWP.DecayShift))
	b = binary.AppendVarint(b, int64(s.RWP.InitialDirtyTarget))
	b = binary.AppendUvarint(b, uint64(s.Lo))
	b = binary.AppendUvarint(b, uint64(s.Hi))
	for i := range s.Records {
		b = appendRecord(b, &s.Records[i])
	}
	b = binary.AppendUvarint(b, uint64(len(s.Groups)))
	for i := range s.Groups {
		b = appendGroup(b, &s.Groups[i])
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTab))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendRecord(b []byte, r *SetRecord) []byte {
	b = binary.AppendUvarint(b, uint64(r.Set))
	b = binary.AppendUvarint(b, uint64(len(r.Entries)))
	for i := range r.Entries {
		e := &r.Entries[i]
		b = appendString(b, e.Key)
		b = binary.AppendUvarint(b, uint64(len(e.Value)))
		b = append(b, e.Value...)
		b = append(b, boolByte(e.Dirty))
	}
	return b
}

func appendGroup(b []byte, g *GroupRecord) []byte {
	b = binary.AppendUvarint(b, uint64(len(g.Ops)))
	for _, v := range g.Ops {
		b = binary.AppendUvarint(b, v)
	}
	if g.RWP != nil {
		b = appendState(b, g.RWP)
	}
	return b
}

// appendState renders one group's predictor. The histograms are Ways
// long and there is exactly one sampler, so neither carries a count.
func appendState(b []byte, st *core.State) []byte {
	b = binary.AppendUvarint(b, uint64(st.TargetDirty))
	b = binary.AppendUvarint(b, st.Accesses)
	b = binary.AppendUvarint(b, st.Intervals)
	b = binary.AppendUvarint(b, st.RetargetUp)
	b = binary.AppendUvarint(b, st.RetargetDown)
	b = binary.AppendUvarint(b, st.RetargetSame)
	for _, v := range st.CleanHist {
		b = binary.AppendUvarint(b, v)
	}
	for _, v := range st.DirtyHist {
		b = binary.AppendUvarint(b, v)
	}
	b = appendStack(b, st.Samplers[0].Clean)
	return appendStack(b, st.Samplers[0].Dirty)
}

func appendStack(b []byte, entries []core.SamplerEntry) []byte {
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint64(b, e.Line)
		b = append(b, boolByte(e.Rewritten))
	}
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// decoder is a bounds-checked cursor over the snapshot body.
type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) fail(format string, args ...any) error {
	return fmt.Errorf("%w: %s at offset %d", ErrCorrupt, fmt.Sprintf(format, args...), d.pos)
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if err := d.varintLen(what, n); err != nil {
		return 0, err
	}
	return v, nil
}

func (d *decoder) varint(what string) (int64, error) {
	v, n := binary.Varint(d.buf[d.pos:])
	if err := d.varintLen(what, n); err != nil {
		return 0, err
	}
	return v, nil
}

// varintLen consumes a decoded varint's n bytes. It refuses a
// truncated one and a padded one (a zero final byte after the first):
// Encode writes the shortest form, so every accepted input re-encodes
// to the same bytes.
func (d *decoder) varintLen(what string, n int) error {
	if n <= 0 {
		return d.fail("truncated %s", what)
	}
	if n > 1 && d.buf[d.pos+n-1] == 0 {
		return d.fail("padded %s", what)
	}
	d.pos += n
	return nil
}

// count reads a uvarint bounded by max and by the remaining bytes
// (assuming each counted item costs at least minBytes), so hostile
// declared counts can never drive a large allocation.
func (d *decoder) count(what string, max int, minBytes int) (int, error) {
	v, err := d.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(max) {
		return 0, d.fail("%s %d exceeds limit %d", what, v, max)
	}
	if minBytes > 0 && v > uint64((len(d.buf)-d.pos)/minBytes) {
		return 0, d.fail("%s %d exceeds remaining input", what, v)
	}
	return int(v), nil
}

func (d *decoder) bytes(what string, n int) ([]byte, error) {
	if n > len(d.buf)-d.pos {
		return nil, d.fail("truncated %s", what)
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

func (d *decoder) boolByte(what string) (bool, error) {
	b, err := d.bytes(what, 1)
	if err != nil {
		return false, err
	}
	if b[0] > 1 {
		return false, d.fail("%s flag byte %d is not 0/1", what, b[0])
	}
	return b[0] == 1, nil
}

// Decode parses and fully validates a canonical snapshot. Everything
// self-contained is checked here: schema, CRC, bounds, strict set
// ordering over exactly [Lo,Hi), a group count that divides the range,
// and RWP-state shape (core's State.Validate). On any defect the error
// wraps ErrSchema or ErrCorrupt and no Snapshot is returned. A snapshot
// Decode accepts re-encodes to the same bytes.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(Magic)+4 || string(data[:len(Magic)]) != Magic {
		return nil, ErrSchema
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTab) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := &decoder{buf: body, pos: len(Magic)}
	s := &Snapshot{}
	n, err := d.count("policy length", 64, 1)
	if err != nil {
		return nil, err
	}
	pb, err := d.bytes("policy", n)
	if err != nil {
		return nil, err
	}
	s.Policy = string(pb)
	if s.Policy != "lru" && s.Policy != "rwp" {
		return nil, d.fail("unsupported policy %q", s.Policy)
	}
	if s.Sets, err = d.count("sets", MaxSets, 0); err != nil {
		return nil, err
	}
	if s.Sets == 0 || s.Sets&(s.Sets-1) != 0 {
		return nil, d.fail("set count %d is not a power of two", s.Sets)
	}
	if s.Ways, err = d.count("ways", MaxWays, 0); err != nil {
		return nil, err
	}
	if s.Ways == 0 {
		return nil, d.fail("zero ways")
	}
	if s.RWP.SamplerSets, err = d.count("sampler sets", MaxSets, 0); err != nil {
		return nil, err
	}
	if s.RWP.Interval, err = d.uvarint("interval"); err != nil {
		return nil, err
	}
	shift, err := d.count("decay shift", 63, 0)
	if err != nil {
		return nil, err
	}
	s.RWP.DecayShift = uint(shift)
	idt, err := d.varint("initial dirty target")
	if err != nil {
		return nil, err
	}
	if idt < -1 || idt > int64(s.Ways) {
		return nil, d.fail("initial dirty target %d outside [-1,%d]", idt, s.Ways)
	}
	s.RWP.InitialDirtyTarget = int(idt)
	if s.Lo, err = d.count("lo", s.Sets, 0); err != nil {
		return nil, err
	}
	if s.Hi, err = d.count("hi", s.Sets, 0); err != nil {
		return nil, err
	}
	if s.Lo > s.Hi {
		return nil, d.fail("range [%d,%d) is inverted", s.Lo, s.Hi)
	}
	for set := s.Lo; set < s.Hi; set++ {
		r, err := d.record(s, set)
		if err != nil {
			return nil, err
		}
		s.Records = append(s.Records, r)
	}
	// A group record is at least its ledger length; under RWP also six
	// scalars, two histograms and two stack sizes.
	minGroup := 1
	if s.Policy == "rwp" {
		minGroup += 8 + 2*s.Ways
	}
	ng, err := d.count("group count", s.Hi-s.Lo, minGroup)
	if err != nil {
		return nil, err
	}
	if s.Hi > s.Lo && (ng == 0 || (s.Hi-s.Lo)%ng != 0) {
		return nil, d.fail("%d groups do not divide range [%d,%d)", ng, s.Lo, s.Hi)
	}
	for i := 0; i < ng; i++ {
		g, err := d.group(s)
		if err != nil {
			return nil, err
		}
		s.Groups = append(s.Groups, g)
	}
	if d.pos != len(body) {
		return nil, d.fail("%d trailing bytes after last record", len(body)-d.pos)
	}
	return s, nil
}

func (d *decoder) record(s *Snapshot, want int) (SetRecord, error) {
	var r SetRecord
	idx, err := d.uvarint("set index")
	if err != nil {
		return r, err
	}
	if idx != uint64(want) {
		return r, d.fail("set index %d, want %d (records must cover [lo,hi) exactly once, ascending)", idx, want)
	}
	r.Set = want
	k, err := d.count("entry count", s.Ways, 3)
	if err != nil {
		return r, err
	}
	if k > 0 {
		r.Entries = make([]Entry, k)
	}
	for i := 0; i < k; i++ {
		if err := d.entry(&r.Entries[i]); err != nil {
			return r, err
		}
		for j := 0; j < i; j++ {
			if r.Entries[j].Key == r.Entries[i].Key {
				return r, d.fail("duplicate key %q in set %d", r.Entries[i].Key, want)
			}
		}
	}
	return r, nil
}

func (d *decoder) group(s *Snapshot) (GroupRecord, error) {
	var g GroupRecord
	n, err := d.count("counter count", MaxCounters, 1)
	if err != nil {
		return g, err
	}
	if n > 0 {
		g.Ops = make([]uint64, n)
	}
	for i := range g.Ops {
		if g.Ops[i], err = d.uvarint("op counter"); err != nil {
			return g, err
		}
	}
	if s.Policy == "rwp" {
		st, err := d.rwpState(s)
		if err != nil {
			return g, err
		}
		g.RWP = &st
	}
	return g, nil
}

func (d *decoder) entry(e *Entry) error {
	n, err := d.count("key length", MaxKey, 1)
	if err != nil {
		return err
	}
	kb, err := d.bytes("key", n)
	if err != nil {
		return err
	}
	e.Key = string(kb)
	if n, err = d.count("value length", MaxValue, 1); err != nil {
		return err
	}
	vb, err := d.bytes("value", n)
	if err != nil {
		return err
	}
	if n > 0 {
		e.Value = append([]byte(nil), vb...)
	}
	e.Dirty, err = d.boolByte("dirty")
	return err
}

func (d *decoder) rwpState(s *Snapshot) (core.State, error) {
	var st core.State
	td, err := d.count("dirty target", s.Ways, 0)
	if err != nil {
		return st, err
	}
	st.TargetDirty = td
	if st.Accesses, err = d.uvarint("accesses"); err != nil {
		return st, err
	}
	if st.Intervals, err = d.uvarint("intervals"); err != nil {
		return st, err
	}
	if st.RetargetUp, err = d.uvarint("retarget up"); err != nil {
		return st, err
	}
	if st.RetargetDown, err = d.uvarint("retarget down"); err != nil {
		return st, err
	}
	if st.RetargetSame, err = d.uvarint("retarget same"); err != nil {
		return st, err
	}
	st.CleanHist = make([]uint64, s.Ways)
	st.DirtyHist = make([]uint64, s.Ways)
	for i := range st.CleanHist {
		if st.CleanHist[i], err = d.uvarint("clean histogram"); err != nil {
			return st, err
		}
	}
	for i := range st.DirtyHist {
		if st.DirtyHist[i], err = d.uvarint("dirty histogram"); err != nil {
			return st, err
		}
	}
	// The live cache attaches one RWP per group with SamplerSets 1, so
	// every predictor has exactly one sampler.
	st.Samplers = make([]core.SamplerState, 1)
	if st.Samplers[0].Clean, err = d.stack(s, "clean"); err != nil {
		return st, err
	}
	if st.Samplers[0].Dirty, err = d.stack(s, "dirty"); err != nil {
		return st, err
	}
	if err := st.Validate(s.Ways, 1); err != nil {
		return st, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return st, nil
}

func (d *decoder) stack(s *Snapshot, which string) ([]core.SamplerEntry, error) {
	n, err := d.count(which+" stack size", s.Ways, 9)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]core.SamplerEntry, n)
	for i := range out {
		lb, err := d.bytes(which+" stack line", 8)
		if err != nil {
			return nil, err
		}
		out[i].Line = binary.LittleEndian.Uint64(lb)
		if out[i].Rewritten, err = d.boolByte(which + " stack flag"); err != nil {
			return nil, err
		}
	}
	return out, nil
}
