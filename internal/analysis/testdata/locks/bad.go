// Package locks (a testdata fixture) deliberately violates the
// concurrency rules: lockheld (three findings, in Fill) and lockpair
// (one, in Peek).
// It lives under testdata/ so the module walker skips it; the CLI
// regression tests lint it explicitly and assert rwplint exits
// non-zero with a finding for each rule.
package locks

import (
	"sync"
)

// Loader mimics the live cache's backing-store hook; lockheld keys on
// the type name.
type Loader func(key string) []byte

// Shard mimics the live cache's shard shape.
type Shard struct {
	mu     sync.Mutex
	loader Loader
	m      map[string][]byte
	events chan string
}

// Fill trips lockheld three ways: a Loader fetch and a channel send
// under the shard lock, then a second shard's lock while the first is
// still held (the cluster-fan-out ordering hazard).
func (s *Shard) Fill(peer *Shard, key string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.loader(key) // lockheld: backing-store fetch under the shard lock
	s.events <- key    // lockheld: channel send under the shard lock
	peer.mu.Lock()     // lockheld: second shard lock while one is held
	peer.m[key] = v
	peer.mu.Unlock()
	s.m[key] = v
	return v
}

// Peek trips lockpair: the miss path returns with the lock held.
func (s *Shard) Peek(key string) ([]byte, bool) {
	s.mu.Lock()
	v, ok := s.m[key]
	if !ok {
		return nil, false
	}
	s.mu.Unlock()
	return v, true
}
