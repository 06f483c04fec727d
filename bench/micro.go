package main

import (
	"flag"
	"io"
	"testing"
	"time"

	"rwp/internal/cache"
	"rwp/internal/cluster"
	"rwp/internal/live"
	"rwp/internal/live/loadgen"
	"rwp/internal/live/proto"
	"rwp/internal/mem"
	"rwp/internal/policy"
	"rwp/internal/probe"
	"rwp/internal/workload"
)

// Micro-rows: testing.Benchmark on single public functions. They are
// per-layer numbers only, taken in a traced run for the layers the
// workload exercises.
type micro struct {
	benchtime string // how long each row runs
	ref       *hostRef
	out       map[string]float64
}

// row runs fn for about benchtime and returns ns (in reference-host
// time, like every duration reported) and allocations per iteration.
func (m micro) row(fn func(b *testing.B)) (ns, allocs float64) {
	testing.Init()
	if err := flag.Set("test.benchtime", m.benchtime); err != nil {
		panic(err) // the flag exists once testing.Init has run
	}
	var rm refMeter
	m.ref.sample(&rm, 100*time.Millisecond)
	r := testing.Benchmark(fn)
	m.ref.sample(&rm, 100*time.Millisecond)
	if r.N == 0 {
		return 0, 0 // fn called b.Fatal
	}
	return float64(r.T.Nanoseconds()) / float64(r.N) * rm.scale(), float64(r.MemAllocs) / float64(r.N)
}

// microKeys are the keys of the rows that need resident entries. They
// have one length, so canned frames over them do too.
func microKeys() []string {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = loadgen.HotKey(1000 + i)
	}
	return keys
}

func (m micro) live() error {
	out := m.out
	keys := microKeys()
	out["live.hashkey_ns"], _ = m.row(func(b *testing.B) {
		var x uint64
		for i := 0; i < b.N; i++ {
			x += live.HashKey(keys[i%len(keys)])
		}
		spinSink = x
	})
	ns, _ := m.row(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := live.New(live.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	out["live.new_ms"] = ns / 1e6
	// The closed set of costs the live cache charges: hit, insert,
	// insert+dirty eviction, miss, miss+dirty eviction.
	costs := [5]int{live.CostHit, live.CostInsert, live.CostInsert + live.CostDirtyEvict, live.CostMiss, live.CostMiss + live.CostDirtyEvict}
	out["probe.costhist_observe_ns"], _ = m.row(func(b *testing.B) {
		var h probe.CostHist
		for i := 0; i < b.N; i++ {
			h.Observe(costs[i%len(costs)])
		}
	})
	return nil
}

// loopReader serves data over and over, stopping after limit bytes
// (limit < 0: never).
type loopReader struct {
	data  []byte
	off   int
	limit int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.limit == 0 {
		return 0, io.EOF
	}
	if l.limit > 0 && len(p) > l.limit {
		p = p[:l.limit]
	}
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	if l.limit > 0 {
		l.limit -= n
	}
	return n, nil
}

type memConn struct {
	io.Reader
	io.Writer
}

// serveRow feeds ServeConn canned request frames (equal lengths, keys
// keys each) from memory until b.N keys are served, and discards the
// replies: the server's whole per-request cost with no socket.
func (m micro) serveRow(frames []byte, frameLen, keys int) (ns, allocs float64, err error) {
	c, err := live.New(live.DefaultConfig())
	if err != nil {
		return 0, 0, err
	}
	for _, k := range microKeys() {
		c.Put(k, loadgen.Value(k, valueSize))
	}
	ns, allocs = m.row(func(b *testing.B) {
		b.ReportAllocs()
		n := (b.N + keys - 1) / keys // whole frames covering b.N keys
		in := &loopReader{data: frames, limit: n * frameLen}
		if err := proto.ServeConn(memConn{in, io.Discard}, c); err != nil {
			b.Fatal(err)
		}
	})
	return ns, allocs, nil
}

func (m micro) proto(batch bool) error {
	out := m.out
	keys := microKeys()
	payload, err := proto.AppendGetReq(nil, keys[0])
	if err != nil {
		return err
	}
	out["proto.append_frame_ns"], _ = m.row(func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = proto.AppendFrame(buf[:0], proto.OpGet, payload)
		}
	})
	frame := proto.AppendFrame(nil, proto.OpGet, payload)
	out["proto.read_frame_ns"], out["proto.read_frame_allocs"] = m.row(func(b *testing.B) {
		b.ReportAllocs()
		r := proto.NewReader(&loopReader{data: frame, limit: -1})
		for i := 0; i < b.N; i++ {
			if _, _, err := r.ReadFrame(); err != nil {
				b.Fatal(err)
			}
		}
	})
	if !batch {
		var frames []byte
		for _, k := range keys {
			p, err := proto.AppendGetReq(nil, k)
			if err != nil {
				return err
			}
			frames = proto.AppendFrame(frames, proto.OpGet, p)
		}
		out["proto.serve_get_ns"], out["proto.serve_get_allocs"], err = m.serveRow(frames, len(frames)/len(keys), 1)
		return err
	}
	var frames []byte
	for i := 0; i+batchKeys <= len(keys); i += batchKeys {
		p, err := proto.AppendMGetReq(nil, keys[i:i+batchKeys])
		if err != nil {
			return err
		}
		frames = proto.AppendFrame(frames, proto.OpMGet, p)
	}
	out["proto.serve_mget_ns_per_key"], out["proto.serve_mget_allocs_per_key"], err = m.serveRow(frames, len(frames)/(len(keys)/batchKeys), batchKeys)
	return err
}

func (m micro) cluster() error {
	out := m.out
	ring, err := cluster.New(live.DefaultConfig().Sets, ringShards, []string{"node0", "node1"}, 0)
	if err != nil {
		return err
	}
	keys := microKeys()
	out["cluster.ring_route_ns"], _ = m.row(func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			n += ring.ReadNode(ring.KeyShard(k), live.HashKey(k))
		}
		spinSink = uint64(n)
	})
	return nil
}

// microSim repeats the simulator's own hot-path rows from the root
// package's bench_test.go: a 1 MiB 16-way cache, the mcf generator.
func (m micro) sim() error {
	out := m.out
	for _, name := range simPolicies {
		p, err := policy.New(name)
		if err != nil {
			return err
		}
		c, err := cache.New(cache.Config{Name: "llc", SizeBytes: 1 << 20, Ways: 16, LineSize: 64}, p)
		if err != nil {
			return err
		}
		out["cache.access_"+name+"_ns"], _ = m.row(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Access(mem.LineAddr(i*31%40000), mem.Addr(i%64)*4, cache.Class(i%3), 0)
			}
		})
	}
	prof, err := workload.Get("mcf")
	if err != nil {
		return err
	}
	src := prof.NewSource()
	out["workload.next_ns"], _ = m.row(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := src.Next(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return nil
}
