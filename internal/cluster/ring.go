// Package cluster turns the single-node live cache into a multi-node
// service: a consistent-hash ring maps keys to shards and shards to
// node sets, a routing client fans pipelined batches across per-node
// binary-protocol connections, and a deterministic shard manager grows
// and shrinks each shard's replica set from op-count-windowed load
// samples.
//
// Everything here is clocked by operation counts — never wall time —
// and every random-looking choice (virtual-node placement, rendezvous
// replica picks) is a seeded xrand stream, so a cluster run is a pure
// function of (topology, op stream): the differential tests demand
// that a merged cluster stats document is byte-identical to a
// single-node run over the same stream.
package cluster

import (
	"fmt"
	"sort"

	"rwp/internal/live"
	"rwp/internal/xrand"
)

// Ring is the cluster's consistent-hash ring. Keys map to shards by
// cache-set index — a ring shard is a contiguous range of the cache's
// global sets, so one shard's entire op stream lands on one node (at
// replication one) and per-shard stats can be summed back into the
// exact single-node document. Shards map to nodes by classic
// virtual-node consistent hashing, so joins and leaves move only the
// shards adjacent to the changed node's points.
//
// Ring is not safe for concurrent use; the routing client owns it.
type Ring struct {
	sets         int
	shards       int
	setsPerShard int
	mask         uint64

	nodes    []string
	nodeHash []uint64 // live.HashKey(nodes[i])

	points     []vpoint // sorted virtual-node points
	shardPoint []uint64 // one ring point per shard

	replicas [][]int // per shard, node indices, primary first
}

// vpoint is one virtual node: a point on the 64-bit ring owned by a
// node.
type vpoint struct {
	point uint64
	node  int
}

// DefaultVnodes is the virtual-node count per node. 64 points keeps
// the largest node's shard share within a few percent of fair at the
// cluster sizes the tests pin (1–5 nodes).
const DefaultVnodes = 64

// New builds a ring over the given cache geometry and nodes. sets is
// the cache's total set count (a power of two, identical on every
// node); shards is the ring shard count and must divide sets into
// ranges of whole policy groups (live.GroupSets) — a group split across
// two nodes would see half its clock on each and its sampled set's
// evidence on one, and the merged document would no longer equal the
// single-node one; nodeIDs must be non-empty and unique; vnodes <= 0
// selects DefaultVnodes. Every shard starts at one replica (its
// primary).
func New(sets, shards int, nodeIDs []string, vnodes int) (*Ring, error) {
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cluster: sets %d is not a positive power of two", sets)
	}
	if shards <= 0 || sets%shards != 0 {
		return nil, fmt.Errorf("cluster: shards %d does not divide sets %d", shards, sets)
	}
	if g := live.GroupSets(sets); sets/shards%g != 0 {
		return nil, fmt.Errorf("cluster: shards %d over sets %d gives %d-set ring ranges, not a multiple of the %d-set policy group", shards, sets, sets/shards, g)
	}
	if len(nodeIDs) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{
		sets:         sets,
		shards:       shards,
		setsPerShard: sets / shards,
		mask:         uint64(sets - 1),
		nodes:        append([]string(nil), nodeIDs...),
		nodeHash:     make([]uint64, len(nodeIDs)),
		shardPoint:   make([]uint64, shards),
		replicas:     make([][]int, shards),
	}
	for i, id := range r.nodes {
		for j := 0; j < i; j++ {
			if r.nodes[j] == id {
				return nil, fmt.Errorf("cluster: duplicate node id %q", id)
			}
		}
		r.nodeHash[i] = live.HashKey(id)
		// Each node's virtual points are a seeded stream of its own id
		// hash: a node contributes the same points in every topology, which
		// is what makes joins and leaves move only adjacent shards.
		rng := xrand.New(r.nodeHash[i])
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, vpoint{point: rng.Uint64(), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].point != r.points[b].point {
			return r.points[a].point < r.points[b].point
		}
		return r.points[a].node < r.points[b].node
	})
	for s := 0; s < shards; s++ {
		// The shard's ring position is independent of the node set — only
		// a function of its index — so it is stable across joins/leaves.
		r.shardPoint[s] = xrand.New(uint64(s)).Uint64()
		r.replicas[s] = []int{r.owner(r.shardPoint[s])}
	}
	return r, nil
}

// owner returns the node owning point p: the node of the first virtual
// point at or clockwise-after p, wrapping at the top of the ring.
func (r *Ring) owner(p uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].point >= p })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Shards returns the ring shard count.
func (r *Ring) Shards() int { return r.shards }

// Nodes returns the node ids (do not mutate).
func (r *Ring) Nodes() []string { return r.nodes }

// Shard maps a key hash (live.HashKey) to its ring shard. The shard is
// derived from the cache-set index the key lands in, so all keys of
// one cache set share a shard.
func (r *Ring) Shard(h uint64) int {
	return int(h&r.mask) / r.setsPerShard
}

// KeyShard maps a key to its ring shard.
func (r *Ring) KeyShard(key string) int { return r.Shard(live.HashKey(key)) }

// SetRange returns the half-open global cache-set range [lo, hi)
// backing shard s.
func (r *Ring) SetRange(s int) (lo, hi int) {
	lo = s * r.setsPerShard
	return lo, lo + r.setsPerShard
}

// Primary returns shard s's primary node index.
func (r *Ring) Primary(s int) int { return r.replicas[s][0] }

// Replicas returns a copy of shard s's replica set, primary first.
func (r *Ring) Replicas(s int) []int {
	return append([]int(nil), r.replicas[s]...)
}

// ReplicaCount returns shard s's replica count.
func (r *Ring) ReplicaCount(s int) int { return len(r.replicas[s]) }

// rendezvous weighs node n for placement key h: a
// highest-random-weight draw whose seed mixes the two identities, so
// every (key, node) pair gets an independent, reproducible weight.
func (r *Ring) rendezvous(h uint64, n int) uint64 {
	return xrand.New(h ^ r.nodeHash[n]).Uint64()
}

// ReadNode picks the replica serving a read of key hash h on shard s:
// the rendezvous-highest replica, ties to the lower node index. With
// one replica this is the primary; with more, distinct keys spread
// deterministically across the replica set.
func (r *Ring) ReadNode(s int, h uint64) int {
	best, bestW := r.replicas[s][0], uint64(0)
	for i, n := range r.replicas[s] {
		w := r.rendezvous(h, n)
		if i == 0 || w > bestW || (w == bestW && n < best) {
			best, bestW = n, w
		}
	}
	return best
}

// AddReplica grows shard s's replica set by the rendezvous-best node
// not yet serving it (ties to the lower index). It reports the chosen
// node and false when every node already serves the shard.
func (r *Ring) AddReplica(s int) (node int, ok bool) {
	cur := r.replicas[s]
	best, bestW, found := -1, uint64(0), false
	for n := range r.nodes {
		if containsInt(cur, n) {
			continue
		}
		w := r.rendezvous(r.shardPoint[s], n)
		if !found || w > bestW || (w == bestW && n < best) {
			best, bestW, found = n, w, true
		}
	}
	if !found {
		return -1, false
	}
	r.replicas[s] = append(cur, best)
	return best, true
}

// DropReplica shrinks shard s's replica set by its rendezvous-worst
// non-primary replica — the reverse of AddReplica's order, so
// add-then-drop restores the previous set. It reports the removed node
// and false when only the primary remains.
func (r *Ring) DropReplica(s int) (node int, ok bool) {
	cur := r.replicas[s]
	if len(cur) <= 1 {
		return -1, false
	}
	worstI := 1
	for i := 2; i < len(cur); i++ {
		wi, ww := r.rendezvous(r.shardPoint[s], cur[i]), r.rendezvous(r.shardPoint[s], cur[worstI])
		if wi < ww || (wi == ww && cur[i] > cur[worstI]) {
			worstI = i
		}
	}
	node = cur[worstI]
	r.replicas[s] = append(cur[:worstI], cur[worstI+1:]...)
	return node, true
}

// PrimaryMap returns every shard's primary node index — the golden
// vectors pin this mapping and the remap tests diff it across
// topologies.
func (r *Ring) PrimaryMap() []int {
	m := make([]int, r.shards)
	for s := range m {
		m[s] = r.replicas[s][0]
	}
	return m
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
