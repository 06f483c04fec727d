package cluster

import (
	"runtime"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
	"rwp/internal/live/proto"
	"rwp/internal/probe"
)

// countLog is a run log in O(1) memory: it proves the router handed
// windows and both command kinds over without keeping any of them.
type countLog struct {
	windows, adds, drops int
}

func (l *countLog) Window([]probe.ShardWindow) error { l.windows++; return nil }

func (l *countLog) Command(cmd Command) error {
	if cmd.Kind == AddReplica {
		l.adds++
	} else {
		l.drops++
	}
	return nil
}

// TestRouterMemoryPlateaus is ROADMAP 2b's router part: a router left
// running holds O(shards + one window) of state, never O(ops). Two
// in-process nodes behind a 64-shard ring serve 64-key MGETs over
// 10 240 keys, every 16th call an MPUT — the benchmark's cluster_batch
// shape — and the live heap is read at 10^5, 10^6 and 3*10^6 routed
// ops. Between the last two the heap may grow by no more than 256 KiB,
// whatever the window configuration and with the manager adding and
// dropping replicas throughout. Before the run log became a stream and
// Window 0 stopped meaning "never reset", the unconfigured leg grew by
// 35 MB there (a histogram bucket per read) and the windowed legs by
// 1.8 MB (the retained journal).
func TestRouterMemoryPlateaus(t *testing.T) {
	if testing.Short() {
		t.Skip("routes 12M ops")
	}
	const (
		nKeys     = 10240
		batchKeys = 64
		putEvery  = 16
		maxGrowth = 256 << 10
	)
	keys := make([]string, nKeys)
	kvs := make([]proto.KV, nKeys)
	for i := range keys {
		keys[i] = loadgen.ColdKey(i)
		kvs[i] = proto.KV{Key: keys[i], Value: loadgen.Value(keys[i], 32)}
	}
	cacheCfg := live.DefaultConfig()
	cacheCfg.Loader = loadgen.Loader(32)

	for _, leg := range []struct {
		name    string
		window  int
		managed bool
	}{
		{"window 0", 0, false},
		{"window 4096", 4096, false},
		{"window 0 managed", 0, true},
		{"window 4096 managed", 4096, true},
	} {
		t.Run(leg.name, func(t *testing.T) {
			var mgr *Manager
			if leg.managed {
				// A 4096-op window spreads ~60 reads over each of the 64
				// shards; thresholds this close to the mean keep shards
				// crossing them in both directions.
				m, err := NewManager(ManagerConfig{Window: 4096, HotReads: 64, ColdReads: 56})
				if err != nil {
					t.Fatal(err)
				}
				mgr = m
			}
			log := new(countLog)
			h, err := NewHarness(HarnessConfig{
				Nodes: 2, RingShards: 64, Cache: cacheCfg,
				Manager: mgr, Window: leg.window, Log: log,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			cl := h.Client()

			routed, calls := 0, 0
			heapAt := func(ops int) uint64 {
				for routed < ops {
					lo := (calls * batchKeys) % nKeys
					var err error
					if calls%putEvery == putEvery-1 {
						_, err = cl.MPut(kvs[lo : lo+batchKeys])
					} else {
						_, err = cl.MGet(keys[lo : lo+batchKeys])
					}
					if err != nil {
						t.Fatal(err)
					}
					calls++
					routed += batchKeys
				}
				runtime.GC()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			h5, h6, h3e6 := heapAt(100_000), heapAt(1_000_000), heapAt(3_000_000)
			t.Logf("heap at 1e5 / 1e6 / 3e6 ops: %d / %d / %d KiB; %d windows, %d adds, %d drops",
				h5>>10, h6>>10, h3e6>>10, log.windows, log.adds, log.drops)
			if h3e6 > h6+maxGrowth {
				t.Errorf("heap grew %d KiB between 1e6 and 3e6 routed ops, want at most %d KiB",
					(h3e6-h6)>>10, maxGrowth>>10)
			}
			if log.windows < 3_000_000/4096-1 {
				t.Errorf("router closed %d windows over 3e6 ops: it is not windowing at 4096", log.windows)
			}
			if leg.managed && (log.adds == 0 || log.drops == 0) {
				t.Errorf("manager applied %d adds and %d drops: the leg must churn replicas", log.adds, log.drops)
			}
		})
	}
}
