// Package overhead computes the hardware state cost, in bits, of every
// mechanism in the repo, from the same configuration structs the
// simulator runs with. It reproduces the paper's headline storage claim:
// RWP needs only ~5 % of RRP's state (paper: 5.4 %), because RRP carries a
// signature and an outcome bit on every cache line while RWP only shadows
// a few sampler sets.
//
// Conventions: tags in samplers are 16-bit partial tags (as in UMON and
// SHiP samplers); full-cache per-line additions are charged at their
// exact width; the baseline true-LRU recency state (log2(ways) bits per
// line) is charged to every policy that orders lines and is reported
// separately so mechanism deltas are comparable.
package overhead

import (
	"fmt"
	"math/bits"
	"strings"

	"rwp/internal/cache"
	"rwp/internal/core"
	"rwp/internal/rrp"
)

// Item is one contributor to a mechanism's storage cost.
type Item struct {
	What string
	Bits uint64
}

// Breakdown is a mechanism's full storage account.
type Breakdown struct {
	Name  string
	Items []Item
}

// TotalBits sums the items.
func (b Breakdown) TotalBits() uint64 {
	var t uint64
	for _, it := range b.Items {
		t += it.Bits
	}
	return t
}

// TotalBytes is TotalBits rounded up to bytes.
func (b Breakdown) TotalBytes() uint64 { return (b.TotalBits() + 7) / 8 }

// String renders a human-readable account.
func (b Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d bits (%.1f KiB)\n", b.Name, b.TotalBits(), float64(b.TotalBits())/8192)
	for _, it := range b.Items {
		fmt.Fprintf(&sb, "  %-44s %12d bits\n", it.What, it.Bits)
	}
	return sb.String()
}

// log2 returns ceil(log2(n)) for n >= 1.
func log2(n int) uint64 {
	if n <= 1 {
		return 0
	}
	return uint64(bits.Len(uint(n - 1)))
}

// partialTagBits is the sampler partial-tag width (UMON/SHiP convention).
const partialTagBits = 16

// histCounterBits is the RWP read-hit histogram counter width.
const histCounterBits = 16

// LRU returns the baseline recency cost: log2(ways) bits per line. Every
// stack-ordering policy (LRU, DIP, RWP, RRP backends, UCP) pays it.
func LRU(llc cache.Config) Breakdown {
	sets, ways := llc.Sets(), llc.Ways
	return Breakdown{
		Name: "lru",
		Items: []Item{
			{What: fmt.Sprintf("recency state (%d sets × %d ways × %d b)", sets, ways, log2(ways)),
				Bits: uint64(sets) * uint64(ways) * log2(ways)},
		},
	}
}

// DIP returns DIP's cost over LRU: just the PSEL counter (leader sets are
// identified by index decoding, costing no storage).
func DIP(llc cache.Config, pselBits int) Breakdown {
	b := LRU(llc)
	b.Name = "dip"
	b.Items = append(b.Items, Item{What: "PSEL selector", Bits: uint64(pselBits)})
	return b
}

// DRRIP returns DRRIP's cost: RRPV bits per line plus PSEL.
func DRRIP(llc cache.Config, rrpvBits, pselBits int) Breakdown {
	sets, ways := llc.Sets(), llc.Ways
	return Breakdown{
		Name: "drrip",
		Items: []Item{
			{What: fmt.Sprintf("RRPV (%d sets × %d ways × %d b)", sets, ways, rrpvBits),
				Bits: uint64(sets) * uint64(ways) * uint64(rrpvBits)},
			{What: "PSEL selector", Bits: uint64(pselBits)},
		},
	}
}

// SHiP returns SHiP-PC's cost: RRPV per line, signature+outcome per line,
// and the SHCT.
func SHiP(llc cache.Config, rrpvBits, shctBits, shctCounterBits int) Breakdown {
	sets, ways := llc.Sets(), llc.Ways
	lines := uint64(sets) * uint64(ways)
	return Breakdown{
		Name: "ship",
		Items: []Item{
			{What: "RRPV per line", Bits: lines * uint64(rrpvBits)},
			{What: fmt.Sprintf("signature per line (%d b)", partialTagBits-2),
				Bits: lines * (partialTagBits - 2)},
			{What: "outcome bit per line", Bits: lines},
			{What: fmt.Sprintf("SHCT (2^%d × %d b)", shctBits, shctCounterBits),
				Bits: (1 << uint(shctBits)) * uint64(shctCounterBits)},
		},
	}
}

// RWP returns RWP's cost over the baseline LRU+dirty-bit cache: the
// sampler shadow stacks, the two read-hit histograms, and the target
// register. The dirty bit per line is already present in any write-back
// cache and is charged at zero, as the paper does.
func RWP(llc cache.Config, cfg core.Config) Breakdown {
	ways := llc.Ways
	samplers := cfg.SamplerSets
	if s := llc.Sets(); samplers > s {
		samplers = s
	}
	// Each sampler set: two stacks × ways entries × (partial tag + valid
	// + recency position).
	entryBits := uint64(partialTagBits) + 1 + log2(ways)
	samplerBits := uint64(samplers) * 2 * uint64(ways) * entryBits
	return Breakdown{
		Name: "rwp",
		Items: []Item{
			{What: fmt.Sprintf("shadow sampler (%d sets × 2 stacks × %d entries × %d b)",
				samplers, ways, entryBits), Bits: samplerBits},
			{What: fmt.Sprintf("read-hit histograms (2 × %d × %d b)", ways, histCounterBits),
				Bits: 2 * uint64(ways) * histCounterBits},
			{What: "dirty-partition target register", Bits: log2(ways + 1)},
			{What: "interval access counter", Bits: 20},
		},
	}
}

// LiveRWP returns the predictor state of the live cache (internal/live)
// under the same conventions: one RWP predictor — one shadowed set, two
// histograms, target and interval registers — per group of groupSets
// consecutive sets. groupSets 1 is a predictor on every set;
// live.GroupSets(sets) is what the cache runs. EXPERIMENTS.md L5 prints
// it beside the measured heap and snapshot sizes.
func LiveRWP(sets, ways, groupSets int) Breakdown {
	group := cache.Config{SizeBytes: groupSets * ways * 64, Ways: ways, LineSize: 64}
	per := RWP(group, core.Config{SamplerSets: 1})
	n := uint64(sets / groupSets)
	b := Breakdown{Name: fmt.Sprintf("live rwp, 1 predictor per %d sets", groupSets)}
	for _, it := range per.Items {
		b.Items = append(b.Items, Item{What: fmt.Sprintf("%d × %s", n, it.What), Bits: n * it.Bits})
	}
	return b
}

// RRP returns RRP's cost: the predictor table plus a signature and
// outcome bit on every line of the cache (needed to train on evictions),
// which dominates.
func RRP(llc cache.Config, cfg rrp.Config) Breakdown {
	lines := uint64(llc.Sets()) * uint64(llc.Ways)
	sigBits := uint64(cfg.TableBits)
	return Breakdown{
		Name: "rrp",
		Items: []Item{
			{What: fmt.Sprintf("predictor table (2^%d × %d b)", cfg.TableBits, cfg.CounterBits),
				Bits: (1 << uint(cfg.TableBits)) * uint64(cfg.CounterBits)},
			{What: fmt.Sprintf("signature per line (%d lines × %d b)", lines, sigBits),
				Bits: lines * sigBits},
			{What: "was-read bit per line", Bits: lines},
		},
	}
}

// Ratio returns a's state as a fraction of b's.
func Ratio(a, b Breakdown) float64 {
	tb := b.TotalBits()
	if tb == 0 {
		return 0
	}
	return float64(a.TotalBits()) / float64(tb)
}
