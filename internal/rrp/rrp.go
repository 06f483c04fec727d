// Package rrp implements the Read Reference Predictor, the paper's
// "new yet complex instruction-address-based technique" that RWP is
// compared against (and performs within 3 % of, at 5.4 % of the state).
//
// RRP predicts, from the PC that fills or last writes a line, whether the
// line will receive any future *read*. Write-filled lines (demand-store
// RFOs and writebacks) predicted read-never are bypassed around the
// cache entirely; the rest are managed with true LRU. Demand-load fills
// always allocate — the triggering access is itself a read request, and
// RRP, like RWP, manages the write side of the reference stream: it is
// the per-line, PC-indexed generalization of RWP's clean/dirty split,
// which is why RWP can approach it so closely at a fraction of the
// state.
//
// Structure (and why it is expensive):
//
//   - A signature history table (SHCT analogue) of saturating counters,
//     indexed by a hashed PC signature, trained on read outcomes.
//   - Every resident line carries its fill signature and a was-read bit so
//     evictions can train the table down — per-line state across the
//     whole cache, the dominant cost.
//   - Writebacks are indexed by the PC of the store that dirtied the line,
//     which must travel with the line from the upper levels
//     (cache.Result.WritebackPC provides that plumbing).
//   - Designated always-allocate sets keep training alive so a PC whose
//     behavior changes can escape the bypass verdict.
package rrp

import (
	"fmt"

	"rwp/internal/cache"
	"rwp/internal/mem"
	"rwp/internal/policy"
	"rwp/internal/probe"
	"rwp/internal/recency"
)

// Config parameterizes RRP.
type Config struct {
	// TableBits sizes the predictor table (2^TableBits counters).
	TableBits int
	// CounterBits sizes each saturating counter.
	CounterBits int
	// TrainSets is the number of always-allocate sets that keep the
	// predictor training even for bypass-verdict PCs.
	TrainSets int
	// BypassThreshold: counters strictly below it predict "never read"
	// and bypass. 1 means only saturated-down counters bypass.
	BypassThreshold int
}

// DefaultConfig returns the paper-scale configuration: a 16K-entry table
// of 3-bit counters, 64 training sets.
func DefaultConfig() Config {
	return Config{TableBits: 14, CounterBits: 3, TrainSets: 64, BypassThreshold: 1}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TableBits < 1 || c.TableBits > 24 {
		return fmt.Errorf("rrp: TableBits %d out of [1,24]", c.TableBits)
	}
	if c.CounterBits < 1 || c.CounterBits > 8 {
		return fmt.Errorf("rrp: CounterBits %d out of [1,8]", c.CounterBits)
	}
	if c.TrainSets < 1 {
		return fmt.Errorf("rrp: TrainSets %d must be positive", c.TrainSets)
	}
	if c.BypassThreshold < 1 || c.BypassThreshold >= 1<<c.CounterBits {
		return fmt.Errorf("rrp: BypassThreshold %d out of [1, 2^%d)", c.BypassThreshold, c.CounterBits)
	}
	return nil
}

// RRP is the read-reference-predicting bypass policy. It implements
// cache.Policy.
type RRP struct {
	cfg Config

	r   cache.StateReader
	tab *recency.Table

	counters   []uint8
	counterMax uint8

	// Per-line training state across the whole cache.
	sig     []uint16
	wasRead []bool

	trainStride int

	// Telemetry.
	bypassVerdicts uint64
	fills          uint64

	// probe receives bypass-verdict events; nil disables them.
	probe probe.Probe
}

// SetProbe implements probe.Instrumentable.
func (p *RRP) SetProbe(pr probe.Probe) { p.probe = pr }

// New returns an RRP policy.
func New(cfg Config) *RRP {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &RRP{cfg: cfg}
}

// Name implements cache.Policy.
func (p *RRP) Name() string { return "rrp" }

// Attach implements cache.Policy.
func (p *RRP) Attach(r cache.StateReader) {
	p.r = r
	sets, ways := r.NumSets(), r.Ways()
	p.tab = recency.NewTable(sets, ways)
	p.counters = make([]uint8, 1<<p.cfg.TableBits)
	p.counterMax = uint8(1<<p.cfg.CounterBits - 1)
	for i := range p.counters {
		p.counters[i] = uint8(p.cfg.BypassThreshold) // weakly read-predicted
	}
	n := sets * ways
	p.sig = make([]uint16, n)
	p.wasRead = make([]bool, n)
	ts := p.cfg.TrainSets
	if ts > sets {
		ts = sets
	}
	p.trainStride = sets / ts
	if p.trainStride < 1 {
		p.trainStride = 1
	}
}

// Signature hashes a PC into a table index.
func (p *RRP) Signature(pc mem.Addr) uint16 {
	h := uint64(pc) >> 2
	h ^= h >> uint(p.cfg.TableBits)
	h ^= h >> uint(2*p.cfg.TableBits)
	return uint16(h & uint64(len(p.counters)-1))
}

// Counter returns the current counter value for a PC (for tests/reports).
func (p *RRP) Counter(pc mem.Addr) uint8 { return p.counters[p.Signature(pc)] }

// isTrainSet reports whether set always allocates.
func (p *RRP) isTrainSet(set int) bool { return set%p.trainStride == 0 }

func (p *RRP) idx(set, way int) int { return set*p.r.Ways() + way }

// OnHit implements cache.Policy.
func (p *RRP) OnHit(set, way int, ai cache.AccessInfo) {
	p.tab.Touch(set, way)
	if !ai.Class.IsRead() {
		return
	}
	i := p.idx(set, way)
	if !p.wasRead[i] {
		p.wasRead[i] = true
		if c := &p.counters[p.sig[i]]; *c < p.counterMax {
			*c++
		}
	}
}

// Victim implements cache.Policy: bypass write fills predicted
// read-never, except in training sets. Load fills always allocate.
func (p *RRP) Victim(set int, ai cache.AccessInfo) (int, bool) {
	if ai.Class != cache.DemandLoad && !p.isTrainSet(set) &&
		p.counters[p.Signature(ai.PC)] < uint8(p.cfg.BypassThreshold) {
		p.bypassVerdicts++
		if p.probe != nil {
			p.probe.Policy(probe.PolicyEvent{Policy: "rrp", Kind: "bypass", Value: int64(p.counters[p.Signature(ai.PC)])})
		}
		return 0, true
	}
	if w := p.r.InvalidWay(set); w >= 0 {
		return w, false
	}
	return p.tab.LRU(set), false
}

// OnEvict implements cache.Policy: a line dying unread trains its
// signature toward "never read".
func (p *RRP) OnEvict(set, way int, _ cache.AccessInfo) {
	i := p.idx(set, way)
	if !p.wasRead[i] {
		if c := &p.counters[p.sig[i]]; *c > 0 {
			*c--
		}
	}
}

// OnFill implements cache.Policy.
func (p *RRP) OnFill(set, way int, ai cache.AccessInfo) {
	p.tab.Touch(set, way)
	i := p.idx(set, way)
	p.sig[i] = p.Signature(ai.PC)
	p.wasRead[i] = false
	p.fills++
}

// BypassVerdicts returns how many fills were bypassed.
func (p *RRP) BypassVerdicts() uint64 { return p.bypassVerdicts }

// Fills returns how many fills were allocated.
func (p *RRP) Fills() uint64 { return p.fills }

func init() {
	policy.Register("rrp", func() cache.Policy { return New(DefaultConfig()) })
}
