package overhead

import (
	"strings"
	"testing"

	"rwp/internal/cache"
	"rwp/internal/core"
	"rwp/internal/rrp"
)

func paperLLC() cache.Config {
	return cache.Config{Name: "LLC", SizeBytes: 2 << 20, Ways: 16, LineSize: 64}
}

func TestLog2(t *testing.T) {
	cases := map[int]uint64{1: 0, 2: 1, 3: 2, 4: 2, 16: 4, 17: 5, 1024: 10}
	for n, want := range cases {
		if got := log2(n); got != want {
			t.Errorf("log2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestRWPIsSmallFractionOfRRP(t *testing.T) {
	llc := paperLLC()
	rwpB := RWP(llc, core.DefaultConfig())
	rrpB := RRP(llc, rrp.DefaultConfig())
	ratio := Ratio(rwpB, rrpB)
	// Paper: 5.4 %. Our structures land in the same regime; require the
	// order of magnitude (2-10 %).
	if ratio < 0.02 || ratio > 0.10 {
		t.Fatalf("RWP/RRP state ratio = %.4f, want 0.02..0.10 (paper: 0.054)\nRWP:\n%s\nRRP:\n%s",
			ratio, rwpB, rrpB)
	}
}

func TestRWPIsSmallAbsolutely(t *testing.T) {
	// RWP should cost a few KiB on a 2 MiB cache — negligible.
	b := RWP(paperLLC(), core.DefaultConfig())
	if kib := float64(b.TotalBits()) / 8192; kib > 8 {
		t.Fatalf("RWP costs %.1f KiB, want < 8", kib)
	}
}

// TestLiveRWPPerGroup pins EXPERIMENTS.md L5's accounting column: at
// the serving geometry a predictor costs 1209 bits, so one per set is
// 1209 bits a set and one per 8 sets an eighth of that.
func TestLiveRWPPerGroup(t *testing.T) {
	perSet, perGroup := LiveRWP(1024, 16, 1), LiveRWP(1024, 16, 8)
	if got := perSet.TotalBits(); got != 1024*1209 {
		t.Errorf("one predictor per set: %d bits, want %d", got, 1024*1209)
	}
	if got := perGroup.TotalBits(); got != 128*1209 {
		t.Errorf("one predictor per 8 sets: %d bits, want %d", got, 128*1209)
	}
	//rwplint:allow floateq — exact: both totals are multiples of the same per-predictor cost
	if r := Ratio(perGroup, perSet); r != 0.125 {
		t.Errorf("per-group / per-set state = %v, want exactly 1/8", r)
	}
}

func TestRRPDominatedByPerLineState(t *testing.T) {
	b := RRP(paperLLC(), rrp.DefaultConfig())
	var perLine uint64
	for _, it := range b.Items {
		if strings.Contains(it.What, "per line") {
			perLine += it.Bits
		}
	}
	if perLine*2 < b.TotalBits() {
		t.Fatalf("per-line state %d of %d bits; expected dominance", perLine, b.TotalBits())
	}
}

func TestOrderingAcrossMechanisms(t *testing.T) {
	llc := paperLLC()
	lru := LRU(llc).TotalBits()
	dip := DIP(llc, 10).TotalBits()
	drrip := DRRIP(llc, 2, 10).TotalBits()
	ship := SHiP(llc, 2, 14, 3).TotalBits()
	rwpB := RWP(llc, core.DefaultConfig()).TotalBits()
	rrpB := RRP(llc, rrp.DefaultConfig()).TotalBits()

	if dip != lru+10 {
		t.Errorf("DIP = LRU + PSEL: got %d vs %d", dip, lru+10)
	}
	if drrip >= lru {
		t.Errorf("DRRIP (%d) should undercut LRU (%d): 2b RRPV vs 4b recency", drrip, lru)
	}
	if ship <= drrip {
		t.Errorf("SHiP (%d) must exceed DRRIP (%d)", ship, drrip)
	}
	// SHiP and RRP both pay per-line signatures; both dwarf DRRIP and RWP.
	if rrpB <= 4*drrip {
		t.Errorf("RRP (%d) must dwarf DRRIP (%d)", rrpB, drrip)
	}
	if rwpB >= ship || rwpB >= rrpB {
		t.Errorf("RWP (%d) must undercut SHiP (%d) and RRP (%d)", rwpB, ship, rrpB)
	}
}

func TestBreakdownString(t *testing.T) {
	s := RWP(paperLLC(), core.DefaultConfig()).String()
	if !strings.Contains(s, "rwp:") || !strings.Contains(s, "histograms") {
		t.Fatalf("breakdown rendering incomplete:\n%s", s)
	}
}

func TestTotalBytesRoundsUp(t *testing.T) {
	b := Breakdown{Name: "x", Items: []Item{{What: "a", Bits: 9}}}
	if b.TotalBytes() != 2 {
		t.Fatalf("TotalBytes(9 bits) = %d, want 2", b.TotalBytes())
	}
}

func TestRatioZeroDenominator(t *testing.T) {
	if Ratio(Breakdown{}, Breakdown{}) != 0 { //rwplint:allow floateq — exact: zero-denominator ratio is exactly 0
		t.Fatal("Ratio with empty denominator must be 0")
	}
}
