package main

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
	"rwp/internal/live/proto"
)

// TestStressConcurrentTCP hammers one tcpServer with many pipelined
// binary clients at once (run under -race by scripts/check.sh), each
// with its own seed, batch size, and pipeline depth, then checks
// counter conservation the same way internal/live's stress test does:
// every op that left a client is accounted for in the aggregate, and a
// full structural recount (CheckInvariants) agrees with the
// incremental counters.
func TestStressConcurrentTCP(t *testing.T) {
	const clients = 8
	opsPer := 5_000
	if testing.Short() {
		opsPer = 1_000
	}

	cfg := live.DefaultConfig()
	cfg.Sets, cfg.Ways = 128, 4
	cfg.Loader = loadgen.Loader(0)
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tsrv := newTCPServer(ln, c, io.Discard)
	go tsrv.serve()
	defer tsrv.shutdownNow()

	var sentGets, sentPuts atomic.Uint64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- func() error {
				g, err := loadgen.New("mcf", uint64(i), 0)
				if err != nil {
					return err
				}
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					return err
				}
				defer conn.Close()
				cli := proto.NewClient(conn)
				// Every client uses a different framing shape; the
				// aggregate must not care.
				batch := 1 << (i % 6) // 1..32 ops per frame
				depth := 1 + i%5      // 1..5 frames per flush
				for _, run := range loadgen.Runs(loadgen.Take(g, opsPer), batch) {
					var err error
					if run[0].Put {
						kvs := make([]proto.KV, len(run))
						for j, op := range run {
							kvs[j] = proto.KV{Key: op.Key, Value: op.Value}
						}
						sentPuts.Add(uint64(len(run)))
						err = cli.QueueMPut(kvs)
					} else {
						keys := make([]string, len(run))
						for j, op := range run {
							keys[j] = op.Key
						}
						sentGets.Add(uint64(len(run)))
						err = cli.QueueMGet(keys)
					}
					if err != nil {
						return err
					}
					if cli.Depth() >= depth {
						if _, err := cli.Flush(); err != nil {
							return err
						}
					}
				}
				_, err = cli.Flush()
				return err
			}()
		}(i)
	}

	// A concurrent STATS poller on its own connection exercises the
	// snapshot path against the writers.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		cli := proto.NewClient(conn)
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := cli.Stats(); err != nil {
					return
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	rg.Wait()
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	s := c.Stats()
	if s.Gets != sentGets.Load() || s.Puts != sentPuts.Load() {
		t.Fatalf("ops lost in transit: server saw %d/%d gets/puts, clients sent %d/%d",
			s.Gets, s.Puts, sentGets.Load(), sentPuts.Load())
	}
	if got := s.Gets + s.Puts; got != clients*uint64(opsPer) {
		t.Fatalf("ops lost: gets+puts = %d, want %d", got, clients*opsPer)
	}
	if s.GetHits+s.GetMisses != s.Gets {
		t.Errorf("get split broken: %d+%d != %d", s.GetHits, s.GetMisses, s.Gets)
	}
	if s.PutHits+s.PutInserts != s.Puts {
		t.Errorf("put split broken: %d+%d != %d", s.PutHits, s.PutInserts, s.Puts)
	}
	// The stampede conservation law (the defense counters are zero with
	// the defenses off, but the law is the same six-term identity).
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
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
