package cluster

import (
	"strings"
	"testing"

	"rwp/internal/live"
)

// ringNodes returns the canonical test node ids n0..n{k-1}.
func ringNodes(k int) []string {
	ids := make([]string, k)
	for i := range ids {
		ids[i] = "n" + string(rune('0'+i))
	}
	return ids
}

// TestRingGoldenVectors pins the shard→primary mapping at three
// cluster sizes. These are generated-then-frozen: any change to the
// hash, the virtual-node streams, or the ownership rule shows up here
// before it silently re-shuffles a deployed cluster.
func TestRingGoldenVectors(t *testing.T) {
	golden := map[int][]int{
		1: {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		3: {0, 2, 1, 0, 1, 1, 2, 2, 0, 0, 1, 0, 1, 1, 1, 1},
		5: {0, 3, 1, 0, 1, 1, 3, 2, 0, 4, 4, 0, 4, 4, 1, 1},
	}
	for _, k := range []int{1, 3, 5} {
		r, err := New(256, 16, ringNodes(k), 64)
		if err != nil {
			t.Fatal(err)
		}
		got := r.PrimaryMap()
		want := golden[k]
		for s := range want {
			if got[s] != want[s] {
				t.Fatalf("nodes=%d: primary map %v, want golden %v", k, got, want)
			}
		}
	}
}

// TestRingRemapMinimality pins the consistent-hashing contract: a join
// moves at most 2/N of the shards, a leave likewise, and every move
// involves the changed node — no shard migrates between two untouched
// nodes.
func TestRingRemapMinimality(t *testing.T) {
	const sets, shards = 256, 16
	t.Run("join", func(t *testing.T) {
		before, err := New(sets, shards, ringNodes(3), 64)
		if err != nil {
			t.Fatal(err)
		}
		after, err := New(sets, shards, ringNodes(4), 64)
		if err != nil {
			t.Fatal(err)
		}
		bm, am := before.PrimaryMap(), after.PrimaryMap()
		moved := 0
		for s := range bm {
			if am[s] != bm[s] {
				moved++
				if am[s] != 3 {
					t.Errorf("shard %d moved %d→%d, not to the joining node", s, bm[s], am[s])
				}
			}
		}
		if moved == 0 {
			t.Error("join moved no shards — the new node serves nothing")
		}
		if max := 2 * shards / 4; moved > max {
			t.Errorf("join moved %d shards, want <= %d", moved, max)
		}
	})
	t.Run("leave", func(t *testing.T) {
		before, err := New(sets, shards, ringNodes(5), 64)
		if err != nil {
			t.Fatal(err)
		}
		after, err := New(sets, shards, ringNodes(4), 64)
		if err != nil {
			t.Fatal(err)
		}
		bm, am := before.PrimaryMap(), after.PrimaryMap()
		moved := 0
		for s := range bm {
			if am[s] != bm[s] {
				moved++
				if bm[s] != 4 {
					t.Errorf("shard %d moved %d→%d but node 4 left", s, bm[s], am[s])
				}
			}
		}
		if max := 2 * shards / 5; moved > max {
			t.Errorf("leave moved %d shards, want <= %d", moved, max)
		}
	})
}

// TestRingShardPartition checks key→shard mapping: the shard is the
// key's cache-set range, every set belongs to exactly one shard, and
// the mapping agrees with live.HashKey masking.
func TestRingShardPartition(t *testing.T) {
	r, err := New(256, 16, ringNodes(3), 64)
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]int, 256)
	for s := 0; s < r.Shards(); s++ {
		lo, hi := r.SetRange(s)
		for g := lo; g < hi; g++ {
			covered[g]++
		}
	}
	for g, n := range covered {
		if n != 1 {
			t.Fatalf("set %d covered by %d shards", g, n)
		}
	}
	for i := 0; i < 1000; i++ {
		key := "key-" + string(rune('a'+i%26)) + string(rune('0'+i%10))
		h := live.HashKey(key)
		s := r.KeyShard(key)
		lo, hi := r.SetRange(s)
		if g := int(h & 255); g < lo || g >= hi {
			t.Fatalf("key %q: set %d outside shard %d range [%d,%d)", key, g, s, lo, hi)
		}
	}
}

// TestRingReplicaLifecycle covers add/drop determinism: adds pick a
// stable node order, reads stay on the primary at one replica and
// spread at two, and add-then-drop restores the original set.
func TestRingReplicaLifecycle(t *testing.T) {
	r, err := New(256, 16, ringNodes(3), 64)
	if err != nil {
		t.Fatal(err)
	}
	const s = 0
	orig := r.Replicas(s)
	if len(orig) != 1 || orig[0] != r.Primary(s) {
		t.Fatalf("initial replicas %v, want just the primary", orig)
	}
	if got := r.ReadNode(s, 12345); got != r.Primary(s) {
		t.Fatalf("single-replica read on node %d, want primary %d", got, r.Primary(s))
	}

	n1, ok := r.AddReplica(s)
	if !ok || n1 == r.Primary(s) {
		t.Fatalf("AddReplica = (%d, %v)", n1, ok)
	}
	// Reads now spread: across many key hashes both replicas serve some.
	seen := map[int]int{}
	for h := uint64(0); h < 512; h++ {
		seen[r.ReadNode(s, h*0x9e3779b97f4a7c15)]++
	}
	if len(seen) != 2 || seen[r.Primary(s)] == 0 || seen[n1] == 0 {
		t.Fatalf("two-replica read spread %v over primary %d and replica %d", seen, r.Primary(s), n1)
	}
	// Writes-to-all invariant is the router's job; the ring only promises
	// ReadNode stays inside the replica set.
	for h := uint64(0); h < 64; h++ {
		if n := r.ReadNode(s, h); !containsInt(r.Replicas(s), n) {
			t.Fatalf("ReadNode %d outside replica set %v", n, r.Replicas(s))
		}
	}

	n2, ok := r.AddReplica(s)
	if !ok || n2 == n1 || n2 == r.Primary(s) {
		t.Fatalf("second AddReplica = (%d, %v)", n2, ok)
	}
	if _, ok := r.AddReplica(s); ok {
		t.Fatal("AddReplica succeeded with every node already serving")
	}

	if n, ok := r.DropReplica(s); !ok || n == r.Primary(s) {
		t.Fatalf("DropReplica = (%d, %v)", n, ok)
	}
	if n, ok := r.DropReplica(s); !ok || n == r.Primary(s) {
		t.Fatalf("second DropReplica = (%d, %v)", n, ok)
	}
	if got := r.Replicas(s); len(got) != 1 || got[0] != orig[0] {
		t.Fatalf("replicas after drops %v, want original %v", got, orig)
	}
	if _, ok := r.DropReplica(s); ok {
		t.Fatal("DropReplica removed the primary")
	}
}

// TestRingDeterministicAcrossBuilds pins that two rings built from the
// same inputs agree on everything the router consults.
func TestRingDeterministicAcrossBuilds(t *testing.T) {
	a, err := New(1024, 64, ringNodes(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(1024, 64, ringNodes(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	am, bm := a.PrimaryMap(), b.PrimaryMap()
	for s := range am {
		if am[s] != bm[s] {
			t.Fatalf("shard %d primaries differ: %d vs %d", s, am[s], bm[s])
		}
		a.AddReplica(s)
		b.AddReplica(s)
		for h := uint64(0); h < 16; h++ {
			if a.ReadNode(s, h) != b.ReadNode(s, h) {
				t.Fatalf("shard %d hash %d: read nodes differ", s, h)
			}
		}
	}
}

func TestRingValidation(t *testing.T) {
	cases := []struct {
		name   string
		sets   int
		shards int
		nodes  []string
	}{
		{"sets not power of two", 100, 10, ringNodes(1)},
		{"shards not dividing sets", 256, 7, ringNodes(1)},
		{"zero shards", 256, 0, ringNodes(1)},
		{"no nodes", 256, 16, nil},
		{"duplicate nodes", 256, 16, []string{"a", "a"}},
		{"ring ranges splitting a policy group", 256, 64, ringNodes(1)},
	}
	for _, tc := range cases {
		if _, err := New(tc.sets, tc.shards, tc.nodes, 8); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The group-split refusal names both numbers: the range it got and
	// the group it must hold.
	_, err := New(256, 64, ringNodes(1), 8)
	if err == nil || !strings.Contains(err.Error(), "4-set ring ranges") || !strings.Contains(err.Error(), "8-set policy group") {
		t.Errorf("New(256, 64) = %v, want an error naming the 4-set range and the 8-set group", err)
	}
	// Below eight sets the cache is one group, and so is the only ring.
	if _, err := New(4, 1, ringNodes(1), 8); err != nil {
		t.Errorf("New(4, 1): %v", err)
	}
}
