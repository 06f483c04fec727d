// Package loadgen turns the repo's synthetic SPEC-like workload
// profiles (internal/workload) into deterministic key-value operation
// streams for the live cache (internal/live).
//
// The mapping preserves exactly the properties RWP's advantage depends
// on: each profile's memory-reference stream is generated as in the
// simulator (same seeds, same component mix), then every reference
// becomes one KV operation on the key of its cache line — loads become
// Gets, stores become Puts. Zipf-popular read lines become hot Get
// keys; write-once output streams become Put floods of never-reread
// keys; producer-consumer rings become Put-then-Get key reuse. Values
// are derived from the key alone (seeded SplitMix64), so the whole
// stream — keys, values, op kinds — is a pure function of (profile,
// seed delta): bit-identical on every run.
package loadgen

import (
	"strconv"

	"rwp/internal/live"
	"rwp/internal/mem"
	"rwp/internal/workload"
	"rwp/internal/xrand"
)

// Op is one key-value operation.
type Op struct {
	// Put selects the operation: false is a Get.
	Put bool
	// Key is the target key.
	Key string
	// Value is the payload for Puts (nil for Gets).
	Value []byte
}

// Gen produces the deterministic operation stream of one profile.
type Gen struct {
	src     *workload.Source
	valSize int
}

// DefaultValueSize is the synthetic payload size in bytes.
const DefaultValueSize = 64

// New builds a generator for the named profile. seed offsets the
// profile's random streams (0 is the canonical stream, as in
// rwp.Config.Seed); valSize is the Put payload size (<= 0 selects
// DefaultValueSize).
func New(profile string, seed uint64, valSize int) (*Gen, error) {
	prof, err := workload.Get(profile)
	if err != nil {
		return nil, err
	}
	prof = prof.WithSeed(seed)
	if valSize <= 0 {
		valSize = DefaultValueSize
	}
	return &Gen{src: prof.NewSource(), valSize: valSize}, nil
}

// Next returns the next operation. The stream is infinite.
func (g *Gen) Next() Op {
	a, err := g.src.Next()
	if err != nil {
		// Workload sources never end or fail; a change there must not
		// be silently absorbed into the op stream.
		panic("loadgen: workload source failed: " + err.Error())
	}
	key := Key(a.Addr.DefaultLine())
	if a.Kind.IsWrite() {
		return Op{Put: true, Key: key, Value: Value(key, g.valSize)}
	}
	return Op{Key: key}
}

// Key names the cache line's key: the line address in hex. Distinct
// lines map to distinct keys, so the KV working set mirrors the
// profile's line working set one-to-one.
func Key(line mem.LineAddr) string {
	return strconv.FormatUint(uint64(line), 16)
}

// Value derives a key's deterministic payload: size bytes drawn from a
// SplitMix64 stream seeded with the key's hash. Both the loadgen Put
// payloads and the backing-store Loader use it, so a Get backfill and
// an earlier Put of the same key store identical bytes.
func Value(key string, size int) []byte {
	rng := xrand.New(live.HashKey(key))
	v := make([]byte, size)
	for i := 0; i < size; i += 8 {
		w := rng.Uint64()
		for j := i; j < i+8 && j < size; j++ {
			v[j] = byte(w)
			w >>= 8
		}
	}
	return v
}

// Loader returns a live.Loader serving Value(key, size) — the
// deterministic synthetic backing store behind read-allocate fills.
func Loader(size int) live.Loader {
	if size <= 0 {
		size = DefaultValueSize
	}
	return func(key string) []byte { return Value(key, size) }
}

// Apply issues op against c, reporting whether it was a Get hit.
func Apply(c *live.Cache, op Op) (hit bool) {
	if op.Put {
		c.Put(op.Key, op.Value)
		return false
	}
	_, hit = c.Get(op.Key)
	return hit
}

// Run issues the next n operations of s against c.
func Run(c *live.Cache, s Stream, n int) {
	for i := 0; i < n; i++ {
		Apply(c, s.Next())
	}
}
