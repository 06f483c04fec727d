// Package backend provides a real backing store behind the live
// cache's read-allocate Loader hook, beside the synthetic
// loadgen.Loader: an in-memory map store.
//
// It is deterministic (no wall clock, no randomness, no map-order
// effects) and safe for concurrent use, and it follows the look-aside
// discipline the memcache architecture prescribes: the application
// writes the store first, then updates or invalidates the cache, so a
// cache miss always refills with the latest committed value. The
// cluster tests use exactly that to prove read-your-write across
// replica churn — a freshly added replica starts cold and must refill
// through the store.
package backend

import (
	"sync"

	"rwp/internal/live"
)

// Map is an in-memory key-value store. The zero value is not usable;
// call NewMap.
type Map struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMap returns an empty store.
func NewMap() *Map { return &Map{m: make(map[string][]byte)} }

// Put stores a copy of val under key.
func (s *Map) Put(key string, val []byte) {
	v := append([]byte(nil), val...)
	s.mu.Lock()
	s.m[key] = v
	s.mu.Unlock()
}

// Get returns a copy of key's value, or nil when absent.
func (s *Map) Get(key string) []byte {
	s.mu.Lock()
	v, ok := s.m[key]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	return append([]byte(nil), v...)
}

// Delete removes key.
func (s *Map) Delete(key string) {
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
}

// Len returns the number of stored keys.
func (s *Map) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Loader adapts the store to the cache's read-allocate hook: a Get
// miss refills with the store's current value (nil when the key is
// absent — the cache then reports a plain miss).
func (s *Map) Loader() live.Loader { return s.Get }
