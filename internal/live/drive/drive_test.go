package drive

import (
	"bytes"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/proto"
)

// TestTCPGetHitAllocs pins the wire path's end-to-end allocation
// budget: one GET hit over a real loopback socket — pipelined client,
// per-connection server loop, payload codecs — costs 0 allocations.
// AllocsPerRun counts mallocs across all goroutines, so the server
// side is included; it allocates nothing, and the client's share is an
// amortized sliver of a value chunk (the replies are its scratch), which
// AllocsPerRun's truncated average reads as 0. A gate above 0 would let
// one extra allocation per reply through; the pin is the measured
// floor. The direct get-hit (1) and frame-read (0) budgets are pinned
// where that code lives: internal/live/alloc_test.go and
// internal/live/proto/alloc_test.go.
func TestTCPGetHitAllocs(t *testing.T) {
	c, err := live.New(live.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tt, err := NewTCP(c, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer tt.Close()
	val := bytes.Repeat([]byte("v"), 64)
	if _, err := tt.cli.Put("alloc:hot", val); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		res, err := tt.cli.Get("alloc:hot")
		if err != nil || res.Status != proto.StatusHit {
			t.Fatalf("tcp get = (%v, %v), want a hit", res.Status, err)
		}
	})
	if got > 0 {
		t.Errorf("tcp get-hit allocates %.0f times per op end to end, want 0", got)
	}
}
