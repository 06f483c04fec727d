package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"rwp/internal/live"
	"rwp/internal/snap"
)

// This file is rwpserve's warm-restart surface: -restore loads a
// snapshot before serving (falling back to a cold start on any
// defect), -snapshot writes one at graceful shutdown, and -snap-every
// adds periodic checkpoints clocked by data-op counts — never
// wall-clock, so checkpoint timing is as deterministic as everything
// else driven by the op stream.

// restoreCache warm-starts c from the snapshot at path. Any failure —
// missing file, corrupt bytes, geometry mismatch — is reported to the
// caller, which logs it and keeps the cold cache: a bad snapshot must
// never take the server down or leave partial state (RestoreSnapshot
// validates everything before mutating anything).
func restoreCache(c *live.Cache, path string) error {
	s, err := snap.ReadFile(path)
	if err != nil {
		return err
	}
	return c.RestoreSnapshot(s)
}

// snapCache interposes on the serve-mode data path to checkpoint the
// cache every `every` data ops. The embedded cache keeps the full
// surface (Config, StatsJSON, and the proto.RangeBackend management
// ops) promoted, so the wrapper drops into every place *live.Cache
// goes — proto.ServeConn and the stats endpoint serve it unchanged.
type snapCache struct {
	*live.Cache
	path   string
	every  uint64
	stderr io.Writer

	ops  atomic.Uint64
	busy atomic.Bool   // one checkpoint in flight at a time
	errs atomic.Uint64 // failed checkpoint writes (surfaced in tests)
	wg   sync.WaitGroup
}

func newSnapCache(c *live.Cache, path string, every uint64, stderr io.Writer) *snapCache {
	return &snapCache{Cache: c, path: path, every: every, stderr: stderr}
}

// GetAppend and PutBytes are the byte-key surface proto.ServeConn
// serves data through (proto.ByteBackend) — the whole data path, so
// overriding these two counts every op on the wire.
func (s *snapCache) GetAppend(dst, key []byte) ([]byte, bool, bool) {
	out, hit, found := s.Cache.GetAppend(dst, key)
	s.tick()
	return out, hit, found
}

func (s *snapCache) PutBytes(key, val []byte) bool {
	inserted := s.Cache.PutBytes(key, val)
	s.tick()
	return inserted
}

// tick counts one data op and launches a checkpoint at every interval
// boundary. Checkpoints are single-flight: if the previous write is
// still running when the next boundary passes, the boundary is skipped
// rather than queued — a slow disk must not pile up snapshot encodes.
func (s *snapCache) tick() {
	if s.every == 0 {
		return
	}
	if n := s.ops.Add(1); n%s.every == 0 {
		s.checkpoint()
	}
}

func (s *snapCache) checkpoint() {
	if !s.busy.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.busy.Store(false)
		// Snapshot() locks one group at a time, so serving continues
		// while the checkpoint is captured; WriteFile is atomic
		// (temp+rename), so a crash mid-write keeps the previous one.
		if err := snap.WriteFile(s.path, s.Cache.Snapshot()); err != nil {
			s.errs.Add(1)
			fmt.Fprintf(s.stderr, "rwpserve: checkpoint %s: %v\n", s.path, err)
		}
	}()
}

// drain waits for any in-flight checkpoint; the shutdown snapshot is
// written after this, so it is always the file's final content.
func (s *snapCache) drain() { s.wg.Wait() }
