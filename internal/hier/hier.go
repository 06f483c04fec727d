// Package hier assembles the memory hierarchy: per-core private L1D and
// L2 caches over a shared last-level cache and a DRAM channel.
//
// Levels are non-inclusive and write-back/write-allocate. Dirty evictions
// propagate down as Writeback-class accesses, carrying the PC of the
// dirtying store (cache.Result.WritebackPC) so PC-indexed LLC policies
// (RRP) can classify them. Demand misses propagate down as their own
// class, so the LLC — where the interesting policies live — sees demand
// loads, demand stores (RFO fills) and writebacks distinctly, matching
// the paper's access taxonomy.
package hier

import (
	"fmt"

	"rwp/internal/cache"
	"rwp/internal/dram"
	"rwp/internal/mem"
	"rwp/internal/policy"
	"rwp/internal/probe"
)

// Config describes a hierarchy. LLCPolicy names a registered policy; the
// private levels always use LRU (as in the paper — only the LLC policy is
// under study).
type Config struct {
	Cores     int
	L1        cache.Config
	L2        cache.Config
	LLC       cache.Config
	L1Lat     uint64
	L2Lat     uint64
	LLCLat    uint64
	DRAM      dram.Config
	LLCPolicy string
}

// DefaultConfig returns the paper-style single-core system: 32 KiB/8-way
// L1D, 256 KiB/8-way L2, 2 MiB/16-way LLC, 200-cycle DRAM.
func DefaultConfig() Config {
	return Config{
		Cores:     1,
		L1:        cache.Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LineSize: 64},
		L2:        cache.Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LineSize: 64},
		LLC:       cache.Config{Name: "LLC", SizeBytes: 2 << 20, Ways: 16, LineSize: 64},
		L1Lat:     3,
		L2Lat:     12,
		LLCLat:    30,
		DRAM:      dram.DefaultConfig(),
		LLCPolicy: "lru",
	}
}

// MulticoreConfig returns the paper-style 4-core system: private L1/L2
// per core and a 4 MiB/16-way shared LLC.
func MulticoreConfig(cores int) Config {
	cfg := DefaultConfig()
	cfg.Cores = cores
	cfg.LLC.SizeBytes = 4 << 20
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("hier: Cores %d must be positive", c.Cores)
	}
	for _, cc := range []cache.Config{c.L1, c.L2, c.LLC} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if c.L1.LineSize != c.L2.LineSize || c.L2.LineSize != c.LLC.LineSize {
		return fmt.Errorf("hier: line sizes differ across levels")
	}
	if c.L1Lat == 0 || c.L2Lat == 0 || c.LLCLat == 0 {
		return fmt.Errorf("hier: level latencies must be positive")
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if c.LLCPolicy == "" {
		return fmt.Errorf("hier: empty LLC policy name")
	}
	return nil
}

// private is one core's L1D+L2 pair.
type private struct {
	l1 *cache.Cache
	l2 *cache.Cache
}

// Hierarchy is the assembled memory system.
type Hierarchy struct {
	cfg   Config
	priv  []private
	llc   *cache.Cache
	dram  *dram.DRAM
	shift uint
	// llcReadMiss attributes shared-LLC demand-load misses to the
	// requesting core (the shared cache.Stats cannot).
	llcReadMiss []uint64
}

// New builds a hierarchy. The LLC policy is constructed fresh from the
// registry; private levels get fresh LRU instances.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Below the first level, demand-store misses are RFO fetches: the
	// modified data lives in L1 and arrives later as a writeback.
	cfg.L2.StoreFillsClean = true
	cfg.LLC.StoreFillsClean = true
	// The private levels' dirty victims are LLC writebacks, which carry
	// the dirtying store's PC to the LLC policy; the LLC's go to DRAM,
	// which has no use for one, so the LLC keeps no PCs.
	cfg.L1.CarryWritebackPC = true
	cfg.L2.CarryWritebackPC = true
	llcPol, err := policy.New(cfg.LLCPolicy)
	if err != nil {
		return nil, err
	}
	llc, err := cache.New(cfg.LLC, llcPol)
	if err != nil {
		return nil, err
	}
	d, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg, llc: llc, dram: d, shift: llc.LineShift(),
		llcReadMiss: make([]uint64, cfg.Cores)}
	for i := 0; i < cfg.Cores; i++ {
		l1p, err := policy.New("lru")
		if err != nil {
			return nil, err
		}
		l1, err := cache.New(cfg.L1, l1p)
		if err != nil {
			return nil, err
		}
		l2p, err := policy.New("lru")
		if err != nil {
			return nil, err
		}
		l2, err := cache.New(cfg.L2, l2p)
		if err != nil {
			return nil, err
		}
		h.priv = append(h.priv, private{l1: l1, l2: l2})
	}
	return h, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// LLC exposes the shared cache (for stats and policy introspection).
func (h *Hierarchy) LLC() *cache.Cache { return h.llc }

// SetProbe attaches a probe to the LLC policy when the policy is
// instrumentable, and does nothing otherwise. The caches themselves
// emit no events: their counts are cache.Stats.
func (h *Hierarchy) SetProbe(p probe.Probe) {
	if ip, ok := h.llc.Policy().(probe.Instrumentable); ok {
		ip.SetProbe(p)
	}
}

// DRAM exposes the memory channel.
func (h *Hierarchy) DRAM() *dram.DRAM { return h.dram }

// L1 returns core i's L1D.
func (h *Hierarchy) L1(core int) *cache.Cache { return h.priv[core].l1 }

// L2 returns core i's L2.
func (h *Hierarchy) L2(core int) *cache.Cache { return h.priv[core].l2 }

// LineShift returns log2(line size).
func (h *Hierarchy) LineShift() uint { return h.shift }

// LLCReadMisses returns the shared-LLC demand-load misses attributed to
// the given core since the last stats reset.
func (h *Hierarchy) LLCReadMisses(core int) uint64 { return h.llcReadMiss[core] }

// llcAccess performs one access at the LLC, forwarding any dirty eviction
// to DRAM. It returns whether the access hit and whether it was bypassed.
func (h *Hierarchy) llcAccess(now uint64, line mem.LineAddr, pc mem.Addr, class cache.Class, core int) cache.Result {
	res := h.llc.Access(line, pc, class, core)
	if class == cache.DemandLoad && !res.Hit && core >= 0 && core < len(h.llcReadMiss) {
		h.llcReadMiss[core]++
	}
	if res.Writeback {
		h.dram.Write(now)
	}
	if res.Bypassed && class != cache.DemandLoad {
		// A bypassed write goes straight to memory.
		h.dram.Write(now)
	}
	return res
}

// l2Access performs one access at a core's L2, recursing to the LLC on
// miss and forwarding L2 dirty evictions down as LLC writebacks. It
// returns the latency from `now` until the data is available to the L1.
func (h *Hierarchy) l2Access(now uint64, core int, line mem.LineAddr, pc mem.Addr, class cache.Class) uint64 {
	p := &h.priv[core]
	res := p.l2.Access(line, pc, class, core)
	lat := h.cfg.L2Lat
	if !res.Hit {
		if class == cache.Writeback {
			// Writeback allocated (or bypass-impossible: L2 is LRU);
			// eviction handling below. No latency contribution: the
			// writeback is off the critical path.
			lat = 0
		} else {
			llcRes := h.llcAccess(now+h.cfg.L2Lat, line, pc, class, core)
			switch {
			case llcRes.Hit:
				lat = h.cfg.L2Lat + h.cfg.LLCLat
			default:
				// Miss or bypass: data comes from DRAM.
				done := h.dram.Read(now + h.cfg.L2Lat + h.cfg.LLCLat)
				lat = done - now
			}
		}
	} else if class == cache.Writeback {
		lat = 0
	}
	if res.Writeback {
		h.llcAccess(now+lat, res.WritebackLine, res.WritebackPC, cache.Writeback, core)
	}
	return lat
}

// Load performs a demand load for core at cycle now, returning the load-
// to-use latency in cycles.
func (h *Hierarchy) Load(core int, now uint64, addr mem.Addr, pc mem.Addr) uint64 {
	return h.access(core, now, addr, pc, cache.DemandLoad)
}

// Store performs a demand store for core at cycle now, returning the
// cycles until the store leaves the store buffer.
func (h *Hierarchy) Store(core int, now uint64, addr mem.Addr, pc mem.Addr) uint64 {
	return h.access(core, now, addr, pc, cache.DemandStore)
}

// access is Load and Store: a demand access of class through core's L1D,
// forwarding a miss and the L1D's dirty victim to the L2.
func (h *Hierarchy) access(core int, now uint64, addr mem.Addr, pc mem.Addr, class cache.Class) uint64 {
	line := addr.Line(h.shift)
	res := h.priv[core].l1.Access(line, pc, class, core)
	if res.Hit {
		return h.cfg.L1Lat
	}
	lat := h.cfg.L1Lat + h.l2Access(now+h.cfg.L1Lat, core, line, pc, class)
	if res.Writeback {
		h.l2Access(now+lat, core, res.WritebackLine, res.WritebackPC, cache.Writeback)
	}
	return lat
}
