package main

import (
	"fmt"
	"runtime"
	"time"

	"rwp/internal/live/loadgen"
)

// The two operation streams are built here from loadgen's public
// generators, so their shape is fixed by this file and cannot move when
// a private constant elsewhere does.

// mixProfiles and mixBlock define stream "mix4": four workload profiles
// (seeds seed+0..3) interleaved in blocks of mixBlock operations.
var mixProfiles = [4]string{"gcc", "mcf", "dealII", "xalancbmk"}

const mixBlock = 64

type mix4 struct {
	gens [4]*loadgen.Gen
	n    int
}

func (m *mix4) Next() loadgen.Op {
	g := m.gens[(m.n/mixBlock)%len(m.gens)]
	m.n++
	return g.Next()
}

// newStream builds the named stream; seed is its only input.
func newStream(name string, seed uint64) (loadgen.Stream, error) {
	switch name {
	case "fit":
		// 10 240 keys in a 16 384-entry cache: everything stays
		// resident apart from a few over-subscribed sets.
		return loadgen.NewHotspot(loadgen.HotspotConfig{
			HotKeys: 2048, ColdKeys: 8192, HotFrac: 0.9, WriteFrac: 0.05,
			ZipfS: 0.99, ValueSize: valueSize, Seed: seed,
		})
	case "mix4":
		m := &mix4{}
		for i, p := range mixProfiles {
			g, err := loadgen.New(p, seed+uint64(i), valueSize)
			if err != nil {
				return nil, err
			}
			m.gens[i] = g
		}
		return m, nil
	}
	return nil, fmt.Errorf("unknown stream %q", name)
}

// valueCacheKeys bounds the chunker's memo of expected values.
const valueCacheKeys = 1 << 15

// chunker cuts a stream into chunks of n operations. Every operation
// carries the value its reply must equal (Puts write those bytes, the
// Loader fills them), so checking a reply inside a timed loop is one
// bytes.Equal. Generation happens outside the timed sections and is
// accounted on its own.
type chunker struct {
	src  loadgen.Stream
	n    int
	ops  []loadgen.Op
	vals map[string][]byte

	wall    time.Duration
	mallocs uint64
	made    int
}

func newChunker(src loadgen.Stream, n int) *chunker {
	return &chunker{src: src, n: n}
}

// next generates the following chunk. The slice is reused by the next
// call.
func (c *chunker) next() []loadgen.Op {
	if c.ops == nil {
		c.ops, c.vals = make([]loadgen.Op, c.n), make(map[string][]byte)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, t0 := ms.Mallocs, time.Now()
	for i := range c.ops {
		op := c.src.Next()
		v, ok := c.vals[op.Key]
		if !ok {
			v = op.Value
			if v == nil {
				v = loadgen.Value(op.Key, valueSize)
			}
			if len(c.vals) < valueCacheKeys {
				c.vals[op.Key] = v
			}
		}
		op.Value = v
		c.ops[i] = op
	}
	c.wall += time.Since(t0)
	runtime.ReadMemStats(&ms)
	c.mallocs += ms.Mallocs - m0
	c.made += len(c.ops)
	return c.ops
}

// release drops the chunk buffer and the value memo, so that a heap
// measurement sees the system under test and not the generator; the
// next chunk allocates them again.
func (c *chunker) release() { c.ops, c.vals = nil, nil }
