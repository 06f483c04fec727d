package live_test

import (
	"sync"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
)

// TestStressConcurrent hammers one cache from many goroutines (run
// under -race by scripts/check.sh) and then checks that the per-set
// counters are conserved exactly: every operation is accounted for,
// whatever the interleaving.
func TestStressConcurrent(t *testing.T) {
	const (
		workers = 8
		opsPer  = 5_000
	)
	for _, pol := range []string{"lru", "rwp"} {
		t.Run(pol, func(t *testing.T) {
			cfg := live.DefaultConfig()
			cfg.Sets = 128
			cfg.Ways = 4
			cfg.Shards = 8
			cfg.Policy = pol
			cfg.Loader = loadgen.Loader(0)
			c, err := live.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					g, err := loadgen.New("mcf", seed, 0)
					if err != nil {
						panic(err)
					}
					loadgen.Run(c, g, opsPer)
				}(uint64(w))
			}
			// A concurrent reader renders the stats document (a Stats
			// sweep) against the writers (the race detector checks the
			// locking).
			stop := make(chan struct{})
			var rg sync.WaitGroup
			rg.Add(1)
			go func() {
				defer rg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						_, _ = c.StatsJSON()
					}
				}
			}()
			wg.Wait()
			close(stop)
			rg.Wait()

			s := c.Stats()
			if got := s.Gets + s.Puts; got != workers*opsPer {
				t.Fatalf("ops lost: gets+puts = %d, want %d", got, workers*opsPer)
			}
			if s.GetHits+s.GetMisses != s.Gets {
				t.Errorf("get split broken: %d+%d != %d", s.GetHits, s.GetMisses, s.Gets)
			}
			if s.PutHits+s.PutInserts != s.Puts {
				t.Errorf("put split broken: %d+%d != %d", s.PutHits, s.PutInserts, s.Puts)
			}
			// The stampede conservation law: every miss resolved to
			// exactly one of the six counters (the defense counters are
			// zero here — the defenses are off — but the law is the same).
			if s.Loads+s.LoadRaces+s.LoadAbsents+s.CoalescedLoads+s.NegHits+s.NegInserts != s.GetMisses {
				t.Errorf("loader misses: loads %d + races %d + absents %d + coalesced %d + neg %d/%d != get misses %d",
					s.Loads, s.LoadRaces, s.LoadAbsents, s.CoalescedLoads, s.NegHits, s.NegInserts, s.GetMisses)
			}
			if s.Fills != s.PutInserts+s.Loads {
				t.Errorf("fill conservation broken: %d != %d+%d", s.Fills, s.PutInserts, s.Loads)
			}
			if got := uint64(s.Entries); got != s.Fills-s.Evictions {
				t.Errorf("occupancy broken: entries %d != fills %d - evictions %d", s.Entries, s.Fills, s.Evictions)
			}
			if s.Entries > c.Capacity() {
				t.Errorf("entries %d exceed capacity %d", s.Entries, c.Capacity())
			}
			if s.GetHitsClean+s.GetHitsDirty != s.GetHits || s.PutHitsClean+s.PutHitsDirty != s.PutHits {
				t.Errorf("partition hit splits %d+%d / %d+%d disagree with hits %d / %d",
					s.GetHitsClean, s.GetHitsDirty, s.PutHitsClean, s.PutHitsDirty, s.GetHits, s.PutHits)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStressConcurrentDefended hammers a cache with every stampede
// defense on: half the workers replay flash crowds (independently
// seeded, converging on the same key every FlashPeriod ops — the
// coalescing case), half replay scan floods over the absent keyspace
// (the negative-caching case). Under -race this exercises the
// fills-map and negs-slice locking; afterwards the six-term
// conservation law must hold exactly.
func TestStressConcurrentDefended(t *testing.T) {
	const (
		workers = 8
		opsPer  = 5_000
	)
	cfg := live.DefaultConfig()
	cfg.Sets = 128
	cfg.Ways = 4
	cfg.Shards = 8
	cfg.Coalesce = true
	cfg.NegOps = 64
	cfg.LeaseOps = 1 << 20 // present but never expiring: loads here are fast
	cfg.Loader = loadgen.AbsentLoader(0)
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w == 0 {
				// One worker hammers a single absent key: whatever the
				// interleaving, most of its Gets land inside a live
				// verdict window, so both neg counters provably move.
				for i := 0; i < opsPer; i++ {
					c.Get(loadgen.AbsentKey(0))
				}
				return
			}
			profile := loadgen.AdvFlash
			if w%2 == 1 {
				profile = loadgen.AdvScan
			}
			s, err := loadgen.NewStream(profile, uint64(w), 0)
			if err != nil {
				panic(err)
			}
			loadgen.Run(c, s, opsPer)
		}(w)
	}
	wg.Wait()

	s := c.Stats()
	if got := s.Gets + s.Puts; got != workers*opsPer {
		t.Fatalf("ops lost: gets+puts = %d, want %d", got, workers*opsPer)
	}
	if s.Loads+s.LoadRaces+s.LoadAbsents+s.CoalescedLoads+s.NegHits+s.NegInserts != s.GetMisses {
		t.Errorf("conservation broken: loads %d + races %d + absents %d + coalesced %d + neg %d/%d != get misses %d",
			s.Loads, s.LoadRaces, s.LoadAbsents, s.CoalescedLoads, s.NegHits, s.NegInserts, s.GetMisses)
	}
	if s.Fills != s.PutInserts+s.Loads {
		t.Errorf("fill conservation broken: %d != %d+%d", s.Fills, s.PutInserts, s.Loads)
	}
	// The absent-key hammer guarantees both negative-cache counters
	// moved under any interleaving; the scan flood adds cap-eviction
	// churn on top. (Coalesced fills need a concurrent window and
	// cannot be asserted nonzero here, only conserved — the
	// choreographed tests in fill_test.go pin them exactly.)
	if s.NegInserts == 0 || s.NegHits == 0 {
		t.Errorf("absent-key traffic never engaged the negative cache: inserts %d, hits %d", s.NegInserts, s.NegHits)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
