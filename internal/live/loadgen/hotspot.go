package loadgen

import (
	"strconv"

	"rwp/internal/xrand"
)

// HotspotConfig shapes a Hotspot stream. The zero value is not usable;
// fill every field (NewHotspot validates).
type HotspotConfig struct {
	// HotKeys and ColdKeys size the two key populations. Hot keys are
	// few and drawn Zipf-skewed; cold keys are many and drawn uniformly.
	HotKeys  int
	ColdKeys int
	// HotNames, when non-empty, overrides the hot population's key
	// names (and HotKeys is taken as len(HotNames)). The cluster bench
	// uses it to concentrate the hot set on one ring shard — the
	// hot-shard scenario replication exists for.
	HotNames []string
	// HotFrac is the probability an op targets the hot population.
	HotFrac float64
	// WriteFrac is the probability an op is a Put (applied to both
	// populations).
	WriteFrac float64
	// ZipfS is the hot population's Zipf exponent (> 0; 0.99 is the
	// YCSB-style default when callers pass 0).
	ZipfS float64
	// ValueSize is the Put payload size (<= 0 selects DefaultValueSize).
	ValueSize int
	// Seed seeds the stream; equal configs yield bit-identical streams.
	Seed uint64
}

// Hotspot generates the cluster bench's skewed op stream: a small
// Zipf-hot key population that concentrates load on a handful of ring
// shards, over a uniform cold background. That is exactly the shape
// the shard manager exists for — replicating the hot shards' reads
// spreads them across nodes while the cold shards stay at one replica.
// Unlike Gen it is keyed directly (no workload profile behind it), so
// the hot-shard placement is controlled by key names alone.
type Hotspot struct {
	cfg  HotspotConfig
	rng  *xrand.RNG
	zipf *xrand.Zipf
}

// NewHotspot validates cfg and builds the generator.
func NewHotspot(cfg HotspotConfig) (*Hotspot, error) {
	if len(cfg.HotNames) > 0 {
		cfg.HotKeys = len(cfg.HotNames)
	}
	if cfg.HotKeys <= 0 || cfg.ColdKeys <= 0 {
		return nil, errHotspot("HotKeys and ColdKeys must be positive")
	}
	if cfg.HotFrac < 0 || cfg.HotFrac > 1 {
		return nil, errHotspot("HotFrac outside [0,1]")
	}
	if cfg.WriteFrac < 0 || cfg.WriteFrac > 1 {
		return nil, errHotspot("WriteFrac outside [0,1]")
	}
	switch {
	case cfg.ZipfS < 0:
		return nil, errHotspot("ZipfS must be positive")
	case cfg.ZipfS < 1e-9: // unset: the YCSB-style default
		cfg.ZipfS = 0.99
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = DefaultValueSize
	}
	rng := xrand.New(cfg.Seed)
	return &Hotspot{cfg: cfg, rng: rng, zipf: xrand.NewZipf(rng, cfg.HotKeys, cfg.ZipfS)}, nil
}

type errHotspot string

func (e errHotspot) Error() string { return "loadgen: hotspot: " + string(e) }

// HotKey names hot rank i; ranks are stable across runs so rank 0 is
// always the hottest key.
func HotKey(i int) string { return "hot:" + strconv.Itoa(i) }

// ColdKey names cold index i.
func ColdKey(i int) string { return "cold:" + strconv.Itoa(i) }

// Next returns the next operation. The stream is infinite and a pure
// function of the config.
func (h *Hotspot) Next() Op {
	var key string
	if h.rng.Chance(h.cfg.HotFrac) {
		rank := h.zipf.Next()
		if len(h.cfg.HotNames) > 0 {
			key = h.cfg.HotNames[rank]
		} else {
			key = HotKey(rank)
		}
	} else {
		key = ColdKey(h.rng.Intn(h.cfg.ColdKeys))
	}
	if h.rng.Chance(h.cfg.WriteFrac) {
		return Op{Put: true, Key: key, Value: Value(key, h.cfg.ValueSize)}
	}
	return Op{Key: key}
}
