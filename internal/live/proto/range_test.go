package proto_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/proto"
)

// bareBackend exposes only Backend's three methods of a real cache —
// no range surface, no byte-key surface — to pin the refusal paths for
// minimal backends and ServeConn's string-key adapter.
type bareBackend struct{ c *live.Cache }

func (b bareBackend) Get(key string) ([]byte, bool)   { return b.c.Get(key) }
func (b bareBackend) Put(key string, val []byte) bool { return b.c.Put(key, val) }
func (b bareBackend) StatsJSON() ([]byte, error)      { return b.c.StatsJSON() }

// TestRangeOpsOverWire round-trips a multi-chunk snapshot between two
// real caches over the wire: SNAP on a warm node, RESTORE onto a cold
// one, then a byte-exact fixed-point check and a RESET.
func TestRangeOpsOverWire(t *testing.T) {
	warm := newLiveBackend(t, false)
	cold := newLiveBackend(t, false)
	warmCli, _, _ := startConn(t, warm)
	coldCli, _, _ := startConn(t, cold)

	// ~2 MiB of values so the snapshot spans multiple SnapChunk frames.
	big := bytes.Repeat([]byte("x"), 8<<10)
	for i := 0; i < 256; i++ {
		if _, err := warmCli.Put(fmt.Sprintf("key-%04d", i), big); err != nil {
			t.Fatal(err)
		}
	}
	sets := warm.Cache.Sets()
	data, err := warmCli.SnapRange(0, sets)
	if err != nil {
		t.Fatalf("SnapRange: %v", err)
	}
	if len(data) <= proto.SnapChunk {
		t.Fatalf("snapshot only %d bytes; test never exercises chunking", len(data))
	}

	if _, err := coldCli.Restore(data); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// The wire restore is catch-up semantics: entries and policy state
	// transfer, the target's own counters stay (here: zero). So the
	// restored node's snapshot differs from the warm node's in counters
	// only — and restoring IT onto a third node must reproduce it
	// byte-exactly (idempotence pins that no entry/policy state leaks).
	again, err := coldCli.SnapRange(0, sets)
	if err != nil {
		t.Fatal(err)
	}
	third := newLiveBackend(t, false)
	thirdCli, _, _ := startConn(t, third)
	if _, err := thirdCli.Restore(again); err != nil {
		t.Fatalf("second-hop Restore: %v", err)
	}
	again2, err := thirdCli.SnapRange(0, sets)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, again2) {
		t.Fatalf("wire catch-up is not idempotent: %d vs %d bytes", len(again), len(again2))
	}
	res, err := coldCli.Get("key-0000")
	if err != nil || res.Status != proto.StatusHit || !bytes.Equal(res.Value, big) {
		t.Fatalf("restored key: status %v err %v", res.Status, err)
	}

	// Hashing spreads 256 keys unevenly over 64×4 slots, so occupancy —
	// not the key count — is the exact purge expectation.
	occupancy := cold.Cache.Stats().Entries
	purged, err := coldCli.ResetRange(0, sets)
	if err != nil {
		t.Fatalf("ResetRange: %v", err)
	}
	if purged != occupancy || purged == 0 {
		t.Fatalf("reset purged %d entries, want occupancy %d", purged, occupancy)
	}
	if res, err := coldCli.Get("key-0000"); err != nil || res.Status != proto.StatusMiss {
		t.Fatalf("key survived reset: %v %v", res.Status, err)
	}
}

// TestSnapRefusalKeepsConnection: a refused SNAP (bad range, or a
// backend without the range surface) errors without poisoning the
// connection — the cluster's catch-up fallback depends on that.
func TestSnapRefusalKeepsConnection(t *testing.T) {
	b := newLiveBackend(t, false)
	cli, _, _ := startConn(t, b)
	if _, err := cli.SnapRange(0, b.Cache.Sets()+1); err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("oversized range: err = %v", err)
	}
	// A range that splits one of the cache's 8-set policy groups is the
	// backend's to refuse, the same way.
	if _, err := cli.SnapRange(4, 12); err == nil || !strings.Contains(err.Error(), "splits a 8-set policy group") {
		t.Fatalf("group-splitting range: err = %v", err)
	}
	if _, err := cli.Ping([]byte("still-alive")); err != nil {
		t.Fatalf("connection poisoned after snap refusal: %v", err)
	}

	bare, _, _ := startConn(t, bareBackend{b.Cache})
	if _, err := bare.SnapRange(0, 1); err == nil || !strings.Contains(err.Error(), "does not support") {
		t.Fatalf("bare backend: err = %v", err)
	}
	if _, err := bare.Ping([]byte("still-alive")); err != nil {
		t.Fatalf("connection poisoned after bare refusal: %v", err)
	}
}

// TestRestoreRefusalKeepsState: corrupt snapshot bytes are refused with
// the cache untouched and the connection usable.
func TestRestoreRefusalKeepsState(t *testing.T) {
	b := newLiveBackend(t, false)
	cli, _, _ := startConn(t, b)
	if _, err := cli.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	good, err := cli.SnapRange(0, b.Cache.Sets())
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x20
	if _, err := cli.Restore(bad); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("corrupt restore: err = %v", err)
	}
	if res, err := cli.Get("k"); err != nil || res.Status != proto.StatusHit {
		t.Fatalf("refused restore disturbed the cache: %v %v", res.Status, err)
	}
	// The connection survives and a good restore still applies.
	if _, err := cli.Restore(good); err != nil {
		t.Fatalf("good restore after refusal: %v", err)
	}
}

// TestResetRefusals: RESET protocol violations are fatal (they come
// from a manager, not a peer worth keeping), and a queued RESET rides
// the ordinary pipeline.
func TestResetRefusals(t *testing.T) {
	b := newLiveBackend(t, false)
	cli, _, done := startConn(t, b)
	if _, err := cli.ResetRange(0, b.Cache.Sets()+1); err == nil {
		t.Fatal("out-of-bounds reset accepted")
	}
	if err := <-done; err == nil {
		t.Fatal("server kept serving after reset violation")
	}

	bare, _, bdone := startConn(t, bareBackend{b.Cache})
	if _, err := bare.ResetRange(0, 1); err == nil {
		t.Fatal("bare backend accepted RESET")
	}
	<-bdone

	// Half a policy group: an error on the wire, not a panic in the
	// server, and nothing purged.
	b.Cache.Put("k", []byte("v"))
	split, _, sdone := startConn(t, b)
	if _, err := split.ResetRange(0, 4); err == nil || !strings.Contains(err.Error(), "splits a 8-set policy group") {
		t.Fatalf("group-splitting reset: err = %v", err)
	}
	if err := <-sdone; err == nil {
		t.Fatal("server kept serving after reset violation")
	}
	if s := b.Cache.Stats(); s.Entries != 1 {
		t.Fatalf("refused reset left %d entries, want 1", s.Entries)
	}
}

// TestPipelinedReset: RESET interleaves with data ops in one flush.
func TestPipelinedReset(t *testing.T) {
	b := newLiveBackend(t, false)
	cli, _, _ := startConn(t, b)
	if err := cli.QueuePut("a", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := cli.QueueReset(0, b.Cache.Sets()); err != nil {
		t.Fatal(err)
	}
	if err := cli.QueueGet("a"); err != nil {
		t.Fatal(err)
	}
	replies, err := cli.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 3 || !replies[0].Inserted || replies[1].Purged != 1 || replies[2].Get.Status != proto.StatusMiss {
		t.Fatalf("pipelined reset replies: %+v", replies)
	}
}

// TestChunkedOpsNeedEmptyPipeline: the multi-frame exchanges refuse to
// start while replies are owed.
func TestChunkedOpsNeedEmptyPipeline(t *testing.T) {
	b := newLiveBackend(t, false)
	cli, _, _ := startConn(t, b)
	if err := cli.QueueGet("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.SnapRange(0, 1); err == nil || !strings.Contains(err.Error(), "empty pipeline") {
		t.Fatalf("SnapRange mid-pipeline: err = %v", err)
	}
	if _, err := cli.Restore(nil); err == nil || !strings.Contains(err.Error(), "empty pipeline") {
		t.Fatalf("Restore mid-pipeline: err = %v", err)
	}
	if _, err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
}
