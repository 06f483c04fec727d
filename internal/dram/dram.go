// Package dram models main memory as a fixed-latency, bandwidth-limited
// channel with a write queue. Reads occupy the channel and complete after
// the access latency; writes (LLC writebacks and bypassed stores) enter a
// bounded queue and consume channel slots only when the queue overflows —
// which is exactly the paper's premise that writes are off the critical
// path until write bandwidth saturates.
package dram

import "fmt"

// Config describes the memory channel.
type Config struct {
	// Latency is the read access latency in core cycles (paper-scale:
	// 200).
	Latency uint64
	// CyclesPerTransfer is the channel occupancy of one line transfer;
	// its inverse is the peak bandwidth.
	CyclesPerTransfer uint64
	// WriteQueue is the number of buffered writes tolerated before
	// writes steal channel slots from reads.
	WriteQueue int
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{Latency: 200, CyclesPerTransfer: 4, WriteQueue: 64}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Latency == 0 {
		return fmt.Errorf("dram: Latency must be positive")
	}
	if c.CyclesPerTransfer == 0 {
		return fmt.Errorf("dram: CyclesPerTransfer must be positive")
	}
	if c.WriteQueue < 1 {
		return fmt.Errorf("dram: WriteQueue %d must be positive", c.WriteQueue)
	}
	return nil
}

// Stats counts channel activity.
type Stats struct {
	Reads        uint64
	Writes       uint64
	WriteStalls  uint64 // writes that had to steal a channel slot eagerly
	BusyCycles   uint64
	QueuedDrains uint64 // writes drained opportunistically into idle gaps
}

// DRAM is a single memory channel. It is not safe for concurrent use; the
// simulator drives it from one goroutine.
type DRAM struct {
	cfg      Config
	nextFree uint64 // first cycle the channel is free
	pending  int    // queued writes not yet drained
	stats    Stats
}

// New returns a channel with the given configuration.
func New(cfg Config) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DRAM{cfg: cfg}, nil
}

// Config returns the channel configuration.
func (d *DRAM) Config() Config { return d.cfg }

// Stats returns a copy of the counters.
func (d *DRAM) Stats() Stats { return d.stats }

// ResetStats zeroes the counters.
func (d *DRAM) ResetStats() { d.stats = Stats{} }

// drainInto uses idle channel time before `now` to retire queued writes.
func (d *DRAM) drainInto(now uint64) {
	for d.pending > 0 && d.nextFree+d.cfg.CyclesPerTransfer <= now {
		d.nextFree += d.cfg.CyclesPerTransfer
		d.pending--
		d.stats.QueuedDrains++
		d.stats.BusyCycles += d.cfg.CyclesPerTransfer
	}
}

// Read issues a read at cycle `now` and returns its completion cycle.
// Reads take priority over queued writes but still wait for the channel.
func (d *DRAM) Read(now uint64) uint64 {
	d.drainInto(now)
	start := now
	if d.nextFree > start {
		start = d.nextFree
	}
	d.nextFree = start + d.cfg.CyclesPerTransfer
	d.stats.Reads++
	d.stats.BusyCycles += d.cfg.CyclesPerTransfer
	return start + d.cfg.Latency
}

// Write enqueues a writeback at cycle `now`. When the queue is full the
// write drains immediately, consuming a channel slot that future reads
// will contend with — this is how heavy write traffic eventually becomes
// critical.
func (d *DRAM) Write(now uint64) {
	d.drainInto(now)
	d.stats.Writes++
	d.pending++
	if d.pending > d.cfg.WriteQueue {
		start := now
		if d.nextFree > start {
			start = d.nextFree
		}
		d.nextFree = start + d.cfg.CyclesPerTransfer
		d.pending--
		d.stats.WriteStalls++
		d.stats.BusyCycles += d.cfg.CyclesPerTransfer
	}
}

// PendingWrites returns the current write-queue depth.
func (d *DRAM) PendingWrites() int { return d.pending }
