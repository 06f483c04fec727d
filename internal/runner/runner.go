package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// Clock abstracts the wall clock so per-job timing can be observed from
// cmd/ without internal/ ever reading the host clock (a host time that
// reached a journal fails TestJournalPinned). The default engine clock
// returns the zero time:
// durations are then zero and results are unaffected either way — the
// clock feeds observability only, never control flow.
type Clock interface {
	// Now returns the current time. Implementations live in cmd/ (real
	// wall clock) or tests (fake); internal/ only calls through the
	// interface.
	Now() time.Time
}

// zeroClock is the deterministic default: observability off.
type zeroClock struct{}

func (zeroClock) Now() time.Time { return time.Time{} }

// Observer receives per-job progress events. Methods are called from
// worker goroutines concurrently and must be safe for concurrent use.
type Observer interface {
	// JobStart fires when a job begins executing (not for cache hits or
	// coalesced duplicates).
	JobStart(k Key)
	// JobDone fires when a job's value becomes available: executed
	// (fromCache=false) or loaded from the disk cache (fromCache=true).
	// elapsed is measured with the engine's injected Clock.
	JobDone(k Key, elapsed time.Duration, fromCache bool)
}

// Stats counts what the engine did. All fields except MaxQueue are
// monotone counters.
type Stats struct {
	// Submitted is the total number of Submit calls.
	Submitted uint64
	// Coalesced counts submissions that attached to an existing entry
	// (singleflight duplicates and memoized re-asks).
	Coalesced uint64
	// Executed counts jobs whose compute function actually ran.
	Executed uint64
	// Done counts jobs whose value was delivered, executed or disk-hit.
	Done uint64
	// DiskHits counts jobs satisfied by a valid disk-cache entry.
	DiskHits uint64
	// DiskPuts counts results durably written to the disk cache.
	DiskPuts uint64
	// DiskErrors counts cache and journal write failures (non-fatal: the
	// result is still delivered, it just will not survive a restart).
	DiskErrors uint64
	// ExecTime is the summed wall time of executed jobs, measured with
	// the engine's injected Clock (zero under the default zero clock).
	ExecTime time.Duration
	// MaxQueue is the high-water mark of jobs waiting for a worker slot
	// — how far submission ran ahead of execution.
	MaxQueue int
}

// Config configures an Engine.
type Config struct {
	// Workers bounds concurrent job execution; <= 0 means GOMAXPROCS.
	Workers int
	// CacheDir, when non-empty, enables the persistent result cache.
	CacheDir string
	// Clock is the observability clock; nil means the zero clock.
	Clock Clock
	// Observer receives job events; nil disables them.
	Observer Observer
	// MetricsDir, when non-empty, makes every simulation job run with an
	// attached probe.Recorder and write its run journal (canonical JSONL,
	// see internal/probe) into this directory, named <kind>-<key>.jsonl —
	// content-addressed exactly like the result cache. Journals are
	// written only when a job actually executes: a disk-cache hit skips
	// the simulation, so pair -metrics-dir with a cold cache (or none)
	// when journals for every job are wanted.
	MetricsDir string
	// ProbeWindow is the journal's interval width in measured accesses;
	// 0 selects probe.DefaultWindow.
	ProbeWindow uint64
}

// Engine runs jobs on a bounded worker pool, coalescing duplicate keys
// and optionally persisting results content-addressed on disk.
type Engine struct {
	workers     int
	clock       Clock
	obs         Observer
	cache       *Cache
	metricsDir  string
	probeWindow uint64

	// sem bounds the number of concurrently executing jobs.
	sem chan struct{}

	mu      sync.Mutex
	entries map[string]*entry
	stats   Stats
	queued  int // jobs currently waiting for a worker slot
}

// entry is one job's lifecycle: created on first Submit, closed when
// the value (or error) is available. Later Submits of the same key
// share the entry, so each key executes at most once per Engine.
type entry struct {
	key  Key
	done chan struct{}
	val  any
	err  error
}

// New builds an engine. It fails only if the cache directory cannot be
// created.
func New(cfg Config) (*Engine, error) {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		workers:     w,
		clock:       cfg.Clock,
		obs:         cfg.Observer,
		metricsDir:  cfg.MetricsDir,
		probeWindow: cfg.ProbeWindow,
		sem:         make(chan struct{}, w),
		entries:     make(map[string]*entry),
	}
	if e.clock == nil {
		e.clock = zeroClock{}
	}
	if cfg.CacheDir != "" {
		c, err := OpenCache(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		e.cache = c
	}
	if cfg.MetricsDir != "" {
		if err := os.MkdirAll(cfg.MetricsDir, 0o755); err != nil {
			return nil, fmt.Errorf("runner: metrics dir: %w", err)
		}
	}
	return e, nil
}

// NewDefault returns an engine with default workers, no disk cache, and
// the zero clock. It cannot fail.
func NewDefault() *Engine {
	e, err := New(Config{})
	if err != nil {
		panic("runner: NewDefault: " + err.Error()) // unreachable: no cache dir
	}
	return e
}

// Workers returns the concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Future is a handle to a submitted job's eventual result.
type Future[T any] struct {
	ent *entry
}

// Wait blocks until the job completes and returns its result.
func (f *Future[T]) Wait() (T, error) {
	<-f.ent.done
	var zero T
	if f.ent.err != nil {
		return zero, f.ent.err
	}
	v, ok := f.ent.val.(T)
	if !ok {
		// Two kinds hashed to one key with different result types — a
		// programming error (kinds must map 1:1 to result types).
		return zero, fmt.Errorf("runner: job %s: result is %T, caller expects %T", f.ent.key, f.ent.val, zero)
	}
	return v, nil
}

// Failed returns a future that is already resolved to err (for callers
// whose key construction fails before a job can be submitted).
func Failed[T any](err error) *Future[T] {
	ent := &entry{done: make(chan struct{}), err: err}
	close(ent.done)
	return &Future[T]{ent: ent}
}

// Submit enqueues a job. The first submission of a key schedules run on
// the worker pool (after consulting the disk cache); duplicates coalesce
// onto the same in-flight or completed entry. run must be a pure
// function of the key. Results are JSON-encoded for the disk cache, so
// T must round-trip through encoding/json exactly (plain structs of
// integers, strings, slices and finite floats do).
func Submit[T any](e *Engine, key Key, run func() (T, error)) *Future[T] {
	e.mu.Lock()
	e.stats.Submitted++
	if ent, ok := e.entries[key.id]; ok {
		e.stats.Coalesced++
		e.mu.Unlock()
		return &Future[T]{ent: ent}
	}
	ent := &entry{key: key, done: make(chan struct{})}
	e.entries[key.id] = ent
	e.mu.Unlock()

	go e.exec(ent,
		func() (any, error) { return run() },
		func(b []byte) (any, error) {
			var v T
			if err := json.Unmarshal(b, &v); err != nil {
				return nil, err
			}
			return v, nil
		})
	return &Future[T]{ent: ent}
}

// exec resolves one entry on the worker pool: disk-cache probe, then
// compute, then best-effort durable write.
func (e *Engine) exec(ent *entry, run func() (any, error), decode func([]byte) (any, error)) {
	e.count(func(s *Stats) {
		e.queued++
		if e.queued > s.MaxQueue {
			s.MaxQueue = e.queued
		}
	})
	e.sem <- struct{}{}
	e.count(func(*Stats) { e.queued-- })
	defer func() { <-e.sem }()
	defer close(ent.done)

	if e.cache != nil {
		start := e.clock.Now()
		if payload, ok := e.cache.Get(ent.key); ok {
			if v, err := decode(payload); err == nil {
				ent.val = v
				e.count(func(s *Stats) { s.DiskHits++; s.Done++ })
				if e.obs != nil {
					e.obs.JobDone(ent.key, e.clock.Now().Sub(start), true)
				}
				return
			}
			// Undecodable despite a valid checksum: stale schema that
			// slipped past the salt. Recompute; the Put below replaces it.
		}
	}

	if e.obs != nil {
		e.obs.JobStart(ent.key)
	}
	start := e.clock.Now()
	v, err := run()
	elapsed := e.clock.Now().Sub(start)
	ent.val, ent.err = v, err
	e.count(func(s *Stats) { s.Executed++; s.Done++; s.ExecTime += elapsed })
	if e.obs != nil {
		e.obs.JobDone(ent.key, elapsed, false)
	}
	if err != nil || e.cache == nil {
		return
	}
	if payload, jerr := json.Marshal(v); jerr == nil {
		if e.cache.Put(ent.key, payload) == nil {
			e.count(func(s *Stats) { s.DiskPuts++ })
			return
		}
	}
	e.count(func(s *Stats) { s.DiskErrors++ })
}

// count applies one mutation to the stats under the engine lock.
func (e *Engine) count(f func(*Stats)) {
	e.mu.Lock()
	f(&e.stats)
	e.mu.Unlock()
}
