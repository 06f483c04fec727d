// Package trace provides the memory-trace substrate of the simulator:
// streaming access sources, a compact binary on-disk codec, composition
// helpers (limit, concat, interleave), the read-ahead stage that feeds
// every simulation loop from a second goroutine, and summary statistics.
//
// Traces are streams of mem.Access records. The paper drives its simulator
// with Pin-captured SPEC CPU2006 traces; this repo's traces come either
// from the synthetic generators in internal/workload or from files written
// with this package's codec. Everything downstream (caches, timing models)
// consumes the Source interface and is agnostic to the origin.
package trace

import (
	"errors"
	"fmt"

	"rwp/internal/mem"
)

// ErrEnd is returned by Source.Next when the trace is exhausted.
var ErrEnd = errors.New("trace: end of trace")

// Source is a stream of memory accesses. Implementations must be
// deterministic: two sources constructed with identical parameters yield
// identical streams.
type Source interface {
	// Next returns the next access, or ErrEnd when the stream is
	// exhausted. Any other error is a malformed-trace condition.
	Next() (mem.Access, error)
}

// Resetter is implemented by sources that can be rewound to their first
// access. Generators and in-memory traces are Resetters; file readers are
// not necessarily.
type Resetter interface {
	Reset()
}

// Slice is an in-memory trace. It implements Source and Resetter.
type Slice struct {
	recs []mem.Access
	pos  int
}

// NewSlice returns a Source over recs. The slice is not copied; the caller
// must not mutate it while the Slice is in use.
func NewSlice(recs []mem.Access) *Slice { return &Slice{recs: recs} }

// Next implements Source.
func (s *Slice) Next() (mem.Access, error) {
	if s.pos >= len(s.recs) {
		return mem.Access{}, ErrEnd
	}
	a := s.recs[s.pos]
	s.pos++
	return a, nil
}

// Reset implements Resetter.
func (s *Slice) Reset() { s.pos = 0 }

// Len returns the total number of records in the trace.
func (s *Slice) Len() int { return len(s.recs) }

// Collect drains src into a new slice. It is intended for tests and small
// traces; production paths stream instead.
func Collect(src Source) ([]mem.Access, error) {
	var out []mem.Access
	for {
		a, err := src.Next()
		if err == ErrEnd {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, a)
	}
}

// Limit wraps src, ending the stream after at most n accesses.
type Limit struct {
	src  Source
	left uint64
}

// NewLimit returns a Source that yields at most n accesses from src.
func NewLimit(src Source, n uint64) *Limit { return &Limit{src: src, left: n} }

// Next implements Source.
func (l *Limit) Next() (mem.Access, error) {
	if l.left == 0 {
		return mem.Access{}, ErrEnd
	}
	a, err := l.src.Next()
	if err != nil {
		return a, err
	}
	l.left--
	return a, nil
}

// Concat chains sources end to end. Instruction counts are rebased so the
// concatenated stream has a monotonically non-decreasing IC.
type Concat struct {
	srcs   []Source
	cur    int
	icBase uint64
	lastIC uint64
}

// NewConcat returns a Source that yields all of each source in turn.
func NewConcat(srcs ...Source) *Concat { return &Concat{srcs: srcs} }

// Next implements Source.
func (c *Concat) Next() (mem.Access, error) {
	for c.cur < len(c.srcs) {
		a, err := c.srcs[c.cur].Next()
		if err == ErrEnd {
			c.cur++
			c.icBase = c.lastIC + 1
			continue
		}
		if err != nil {
			return a, err
		}
		a.IC += c.icBase
		c.lastIC = a.IC
		return a, nil
	}
	return mem.Access{}, ErrEnd
}

// Stats summarizes a trace: counts by kind and the distinct-line footprint.
type Stats struct {
	Accesses uint64
	Loads    uint64
	Stores   uint64
	// Lines is the number of distinct cache lines touched (64 B lines).
	Lines uint64
	// Instructions is the IC of the last access plus one, i.e. the
	// dynamic instruction count the trace spans.
	Instructions uint64
}

// ReadRatio returns loads / accesses, or 0 for an empty trace.
func (s Stats) ReadRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Loads) / float64(s.Accesses)
}

// FootprintBytes returns the touched footprint in bytes (64 B lines).
func (s Stats) FootprintBytes() uint64 { return s.Lines * mem.DefaultLineSize }

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("accesses=%d loads=%d stores=%d lines=%d insts=%d",
		s.Accesses, s.Loads, s.Stores, s.Lines, s.Instructions)
}

// Summarize drains src and returns its Stats.
func Summarize(src Source) (Stats, error) {
	var st Stats
	lines := make(map[mem.LineAddr]struct{})
	for {
		a, err := src.Next()
		if err == ErrEnd {
			st.Lines = uint64(len(lines))
			return st, nil
		}
		if err != nil {
			return st, err
		}
		st.Accesses++
		if a.Kind.IsRead() {
			st.Loads++
		} else {
			st.Stores++
		}
		lines[a.Addr.DefaultLine()] = struct{}{}
		if a.IC+1 > st.Instructions {
			st.Instructions = a.IC + 1
		}
	}
}
