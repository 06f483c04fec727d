package backend

import (
	"bytes"
	"testing"

	"rwp/internal/live"
)

func TestMapStoreBasics(t *testing.T) {
	s := NewMap()
	if got := s.Get("missing"); got != nil {
		t.Fatalf("Get on empty store = %q, want nil", got)
	}
	s.Put("k", []byte("v1"))
	if got := s.Get("k"); !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("Get = %q, want v1", got)
	}
	s.Put("k", []byte("v2"))
	if got := s.Get("k"); !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("Get after overwrite = %q, want v2", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	s.Delete("k")
	if got := s.Get("k"); got != nil {
		t.Fatalf("Get after Delete = %q, want nil", got)
	}
}

// TestMapStoreCopies pins the aliasing contract: the store never
// shares buffers with callers in either direction.
func TestMapStoreCopies(t *testing.T) {
	s := NewMap()
	in := []byte("value")
	s.Put("k", in)
	in[0] = 'X'
	out := s.Get("k")
	if !bytes.Equal(out, []byte("value")) {
		t.Fatalf("store aliased caller's Put buffer: %q", out)
	}
	out[0] = 'Y'
	if got := s.Get("k"); !bytes.Equal(got, []byte("value")) {
		t.Fatalf("store aliased Get result buffer: %q", got)
	}
}

// TestReadYourWriteThroughCache drives the look-aside pattern the
// cluster relies on: write the store, invalidate nothing (the cache is
// cold), and a cache Get must fill with the store's latest value —
// including after the cache's sets are reset, which is exactly what
// happens when a shard replica is re-added.
func TestReadYourWriteThroughCache(t *testing.T) {
	s := NewMap()
	c, err := live.New(live.Config{Sets: 64, Ways: 4, Policy: "lru", Loader: s.Loader()})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", []byte("v1"))
	if v, _ := c.Get("k"); !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("cold Get = %q, want fill v1", v)
	}
	// The store moves on while the cache still holds v1; resetting the
	// cache (the replica re-add path) must expose the newer value.
	s.Put("k", []byte("v2"))
	if v, _ := c.Get("k"); !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("cached Get = %q, want stale v1 (look-aside)", v)
	}
	c.ResetRange(0, 64)
	if v, _ := c.Get("k"); !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("Get after reset = %q, want refill v2", v)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after reset: %v", err)
	}
}
