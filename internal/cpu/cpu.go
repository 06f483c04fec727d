// Package cpu implements the trace-driven core timing model that makes
// the paper's read-write criticality asymmetry real:
//
//   - Loads enter an MSHR-bounded outstanding queue. The core keeps
//     issuing instructions until the reorder window fills behind the
//     oldest incomplete load, so short latencies and overlapping misses
//     (MLP) are hidden but long read misses stall retirement.
//   - Stores retire into a finite store buffer immediately; their miss
//     latency is only felt when the buffer fills faster than it drains.
//
// The model is CMP$im-class: not cycle-accurate microarchitecture, but it
// reproduces the first-order mechanism the paper's evaluation relies on —
// read misses cost ~full memory latency, write misses cost ~nothing until
// write pressure saturates buffering.
package cpu

import "fmt"

// Config describes the core.
type Config struct {
	// Width is the issue width in instructions per cycle.
	Width int
	// Window is the reorder-buffer size in instructions: how far the
	// core can run ahead of the oldest incomplete load.
	Window int
	// MSHRs bounds concurrently outstanding load misses (the MLP cap).
	MSHRs int
	// StoreBuffer is the number of in-flight stores tolerated before
	// stores stall the core.
	StoreBuffer int
}

// DefaultConfig returns the paper-scale core: 4-wide, 128-entry window,
// 16 MSHRs, 32-entry store buffer.
func DefaultConfig() Config {
	return Config{Width: 4, Window: 128, MSHRs: 16, StoreBuffer: 32}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width < 1 {
		return fmt.Errorf("cpu: Width %d must be positive", c.Width)
	}
	if c.Window < 1 {
		return fmt.Errorf("cpu: Window %d must be positive", c.Window)
	}
	if c.MSHRs < 1 {
		return fmt.Errorf("cpu: MSHRs %d must be positive", c.MSHRs)
	}
	if c.StoreBuffer < 1 {
		return fmt.Errorf("cpu: StoreBuffer %d must be positive", c.StoreBuffer)
	}
	return nil
}

// inflight is one outstanding load or buffered store.
type inflight struct {
	ic   uint64 // instruction count at issue (loads only)
	done uint64 // completion cycle
}

// ring is a fixed-capacity FIFO of in-flight operations. Its buffer is
// allocated once, at construction, and never grows: the callers bound
// the occupancy (MSHRs, StoreBuffer) before every push, so steady-state
// simulation allocates nothing.
type ring struct {
	buf  []inflight
	head int // index of the oldest entry
	n    int // live entries, 0 <= n <= len(buf)
}

func newRing(capacity int) ring { return ring{buf: make([]inflight, capacity)} }

// front returns the oldest entry; the ring must not be empty.
func (r *ring) front() inflight { return r.buf[r.head] }

// pop drops the oldest entry; the ring must not be empty.
func (r *ring) pop() {
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

// push appends e behind the youngest entry.
func (r *ring) push(e inflight) {
	if r.n == len(r.buf) {
		panic("cpu: push on a full ring")
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = e
	r.n++
}

// Stats summarizes a core's execution.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	Loads        uint64
	Stores       uint64
	LoadStalls   uint64 // cycles lost waiting on loads (window or MSHR)
	StoreStalls  uint64 // cycles lost waiting on the store buffer
}

// IPC returns instructions per cycle (0 for an idle core).
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// Core is the timing model for one hardware context.
type Core struct {
	cfg Config

	cycle  uint64
	issued uint64 // instructions issued so far (IC high-water mark)
	frac   uint64 // sub-cycle issue residue, in instructions
	loads  ring   // outstanding loads, oldest first; capacity MSHRs
	stores ring   // buffered stores (done only), oldest first; capacity StoreBuffer
	stats  Stats
}

// New returns a core at cycle zero.
func New(cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Core{cfg: cfg, loads: newRing(cfg.MSHRs), stores: newRing(cfg.StoreBuffer)}, nil
}

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// Now returns the current cycle.
func (c *Core) Now() uint64 { return c.cycle }

// advanceTo issues instructions up to dynamic count target, honoring the
// issue width and the reorder window behind incomplete loads.
func (c *Core) advanceTo(target uint64) {
	width, window := uint64(c.cfg.Width), uint64(c.cfg.Window)
	for c.issued < target {
		// The window bounds how far past the oldest incomplete load we
		// may issue.
		limit := target
		if c.loads.n > 0 {
			if winEnd := c.loads.front().ic + window; winEnd < limit {
				limit = winEnd
			}
		}
		if limit <= c.issued {
			// Window full: stall until the oldest load completes.
			c.retireOldestLoad()
			continue
		}
		n := limit - c.issued
		c.issued = limit
		// Issue n instructions at Width per cycle, with residue carry.
		c.frac += n
		c.cycle += c.frac / width
		c.frac %= width
		// Retire any loads that completed in the meantime.
		for c.loads.n > 0 && c.loads.front().done <= c.cycle {
			c.loads.pop()
		}
	}
}

// retireOldestLoad waits out the oldest outstanding load, charging the
// wait as a load stall, and frees its MSHR.
func (c *Core) retireOldestLoad() {
	if done := c.loads.front().done; done > c.cycle {
		c.stats.LoadStalls += done - c.cycle
		c.cycle = done
	}
	c.loads.pop()
}

// Load records a demand load at dynamic instruction ic whose data arrives
// `latency` cycles after issue. The caller obtains latency from the
// memory hierarchy using the cycle returned by Now *after* calling
// AdvanceTo(ic) — see Run in internal/sim for the canonical sequence.
func (c *Core) Load(ic uint64, latency uint64) {
	c.advanceTo(ic)
	// MSHR full: the miss cannot even be issued until one frees up.
	if c.loads.n >= c.cfg.MSHRs {
		c.retireOldestLoad()
	}
	c.loads.push(inflight{ic: ic, done: c.cycle + latency})
	c.stats.Loads++
}

// AdvanceTo exposes instruction-issue progress so the driver can read the
// issue cycle before querying the hierarchy.
func (c *Core) AdvanceTo(ic uint64) { c.advanceTo(ic) }

// Store records a store at instruction ic that completes (leaves the
// store buffer) `latency` cycles after issue. Stores only stall when the
// buffer is full.
func (c *Core) Store(ic uint64, latency uint64) {
	c.advanceTo(ic)
	if c.stores.n >= c.cfg.StoreBuffer {
		if head := c.stores.front().done; head > c.cycle {
			c.stats.StoreStalls += head - c.cycle
			c.cycle = head
		}
		c.stores.pop()
	} else {
		// Lazily retire any stores that already completed.
		for c.stores.n > 0 && c.stores.front().done <= c.cycle {
			c.stores.pop()
		}
	}
	c.stores.push(inflight{done: c.cycle + latency})
	c.stats.Stores++
}

// Finish drains all in-flight work and finalizes the cycle count for
// `totalInstructions` retired instructions. It returns the final stats.
// Both rings are left empty with their buffers intact.
func (c *Core) Finish(totalInstructions uint64) Stats {
	c.advanceTo(totalInstructions)
	for c.loads.n > 0 {
		c.retireOldestLoad()
	}
	// Stores drain in the background; the last one bounds completion.
	for ; c.stores.n > 0; c.stores.pop() {
		if done := c.stores.front().done; done > c.cycle {
			// Not a stall charged to stores: the core is done, the
			// machine just finishes the drain.
			c.cycle = done
		}
	}
	c.stats.Instructions = totalInstructions
	c.stats.Cycles = c.cycle
	return c.stats
}

// Stats returns a snapshot of the counters accumulated so far (Cycles and
// Instructions are only final after Finish).
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = c.cycle
	s.Instructions = c.issued
	return s
}
