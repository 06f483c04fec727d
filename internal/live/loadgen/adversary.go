package loadgen

import (
	"fmt"
	"strconv"
	"strings"

	"rwp/internal/live"
	"rwp/internal/xrand"
)

// This file is the adversarial half of loadgen: deterministic op
// streams shaped like the traffic that breaks look-aside caches, for
// scoring the stampede defenses (live.Config.Coalesce / NegOps) and
// RWP-vs-LRU under hostile skew. Like every generator in this package,
// each stream is a pure function of (profile, seed): bit-identical on
// every run, on every host.
//
// The four profiles:
//
//	adv:zipf   zipfian hot-key skew (delegates to Hotspot): a handful
//	           of keys absorb most reads — the shared-hot-set shape of
//	           the data-sharing workloads in PAPERS.md.
//	adv:flash  flash crowd: mostly a uniform read-heavy background,
//	           but the last FlashBurst ops of every FlashPeriod-op
//	           window all hit one fresh never-seen key. Every client
//	           running the stream converges on that key at the same
//	           op index — the miss storm fill coalescing exists for.
//	adv:scan   scan flood: an endless cyclic sweep over AbsentKeys the
//	           backing store does not have. Without negative caching
//	           every op is a backend round trip; with it, all but the
//	           first probe per key per window answer locally.
//	adv:write  write storm: almost all Puts over a small keyspace —
//	           the dirty-partition pressure case.

// Stream is the common face of this package's deterministic op
// generators — an infinite seeded stream; *Gen, *Hotspot, and
// *Adversary all implement it.
type Stream interface {
	Next() Op
}

// Adversarial profile names, accepted by NewStream (and therefore by
// rwpserve -profile).
const (
	AdvZipf  = "adv:zipf"
	AdvFlash = "adv:flash"
	AdvScan  = "adv:scan"
	AdvWrite = "adv:write"
)

// Flash-crowd shape: each FlashPeriod-op window ends with FlashBurst
// consecutive Gets of that window's FlashKey. Exported so tests and
// the stampede bench can pin the exact convergence indices.
const (
	FlashPeriod = 256
	FlashBurst  = 16
)

// ScanKeys is adv:scan's cycle length: the flood sweeps this many
// distinct absent keys before repeating. Exported so the stampede
// bench can check the cache geometry against it (a set needs
// ScanKeys/Sets ≤ Ways negative-cache slots to remember one sweep).
const ScanKeys = 4096

const (
	flashBgKeys    = 512  // uniform background keyspace of adv:flash
	flashWriteFrac = 0.05 // background Put fraction of adv:flash
	scanKeys       = ScanKeys
	writeKeys      = 1024 // keyspace of adv:write
	writeFrac      = 0.95 // Put fraction of adv:write
	zipfHotKeys    = 16   // adv:zipf hot population
	zipfColdKeys   = 4096 // adv:zipf cold population
	zipfHotFrac    = 0.9  // adv:zipf hot-traffic fraction
	zipfWriteFrac  = 0.1  // adv:zipf Put fraction
)

// AbsentPrefix marks keys AbsentLoader reports as not in the backing
// store. adv:scan draws all its keys from this namespace.
const AbsentPrefix = "absent:"

// AbsentKey names absent-keyspace index i.
func AbsentKey(i int) string { return AbsentPrefix + strconv.Itoa(i) }

// FlashKey names the key a flash-crowd window converges on. Epochs
// never repeat, so every flash key is cold when its storm begins.
func FlashKey(epoch uint64) string { return "flash:" + strconv.FormatUint(epoch, 10) }

// BgKey names adv:flash's background keyspace index i.
func BgKey(i int) string { return "bg:" + strconv.Itoa(i) }

// WriteKey names adv:write's keyspace index i.
func WriteKey(i int) string { return "wr:" + strconv.Itoa(i) }

// AbsentLoader is Loader with a hole: keys in the AbsentPrefix
// namespace are reported absent (nil), everything else is served
// Value(key, size) as usual. It is a drop-in replacement — streams
// that never touch the absent namespace see identical bytes — and it
// is what gives adv:scan true backend misses to negatively cache.
func AbsentLoader(size int) live.Loader {
	if size <= 0 {
		size = DefaultValueSize
	}
	return func(key string) []byte {
		if strings.HasPrefix(key, AbsentPrefix) {
			return nil
		}
		return Value(key, size)
	}
}

// NewStream resolves a profile name to its generator: adv:* names
// build adversarial streams, everything else is New's workload-backed
// Gen. seed and valSize mean what they mean in New.
func NewStream(profile string, seed uint64, valSize int) (Stream, error) {
	if !strings.HasPrefix(profile, "adv:") {
		return New(profile, seed, valSize)
	}
	if valSize <= 0 {
		valSize = DefaultValueSize
	}
	if profile == AdvZipf {
		h, err := NewHotspot(HotspotConfig{
			HotKeys: zipfHotKeys, ColdKeys: zipfColdKeys,
			HotFrac: zipfHotFrac, WriteFrac: zipfWriteFrac,
			ValueSize: valSize, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		return h, nil
	}
	switch profile {
	case AdvFlash, AdvScan, AdvWrite:
	default:
		return nil, fmt.Errorf("loadgen: unknown adversarial profile %q", profile)
	}
	return &Adversary{
		kind: profile,
		rng:  xrand.New(seed),
		// A seed-dependent phase into the scan cycle, so differently
		// seeded scan clients sweep the same keyspace out of step.
		off:     seed * 2654435761 % scanKeys,
		valSize: valSize,
	}, nil
}

// Adversary generates adv:flash, adv:scan, and adv:write (adv:zipf is
// Hotspot). Keyed directly like Hotspot — no workload profile behind
// it — so each stream's hostile shape is exact by construction.
type Adversary struct {
	kind    string
	rng     *xrand.RNG
	i       uint64 // op index: drives the flash epochs and the scan cycle
	off     uint64 // seed-derived scan phase
	valSize int
}

// Next returns the next operation. The stream is infinite and a pure
// function of (kind, seed).
func (a *Adversary) Next() Op {
	i := a.i
	a.i++
	switch a.kind {
	case AdvFlash:
		if i%FlashPeriod >= FlashPeriod-FlashBurst {
			// The crowd: ops with these indices Get the epoch's key, in
			// every client's stream at once. No rng draw — the burst
			// must not shift the background stream's phase.
			return Op{Key: FlashKey(i / FlashPeriod)}
		}
		key := BgKey(a.rng.Intn(flashBgKeys))
		if a.rng.Chance(flashWriteFrac) {
			return Op{Put: true, Key: key, Value: Value(key, a.valSize)}
		}
		return Op{Key: key}
	case AdvScan:
		return Op{Key: AbsentKey(int((i + a.off) % scanKeys))}
	default: // AdvWrite, by NewStream
		key := WriteKey(a.rng.Intn(writeKeys))
		if a.rng.Chance(writeFrac) {
			return Op{Put: true, Key: key, Value: Value(key, a.valSize)}
		}
		return Op{Key: key}
	}
}
