package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"rwp/internal/live"
	"rwp/internal/live/proto"
)

// Mode selects the harness transport.
type Mode string

const (
	// Direct executes ops synchronously against the in-process caches —
	// single-goroutine, the reference semantics.
	Direct Mode = "direct"
	// Pipe runs each node behind proto.ServeConn over a net.Pipe and
	// routes through real pipelined proto.Clients — the wire semantics.
	// The differential tests demand both modes produce identical merged
	// stats documents.
	Pipe Mode = "pipe"
)

// HarnessConfig assembles an in-process cluster.
type HarnessConfig struct {
	// Nodes is the node count; node i is named "node<i>" (its ring
	// identity).
	Nodes int
	// RingShards shapes the ring (see New).
	RingShards int
	// Cache is the per-node cache geometry; every node gets an
	// identical, independent instance.
	Cache live.Config
	// Mode selects direct or pipe transport (empty = Direct).
	Mode Mode
	// Manager optionally wires the replication control loop.
	Manager *Manager
	// Window is the manager-less load-sampling window (<= 0 selects
	// DefaultWindow; see ClientConfig).
	Window int
	// Log receives the router's run log as it happens (nil discards it;
	// see RunLog).
	Log RunLog
	// Pipeline is the router's flush depth (see ClientConfig).
	Pipeline int
	// NoCatchup makes every node refuse SnapRange, so newly added
	// replicas reset cold and refill through their Loaders — the
	// reference leg TestCatchupCutsBackendLoads compares against.
	NoCatchup bool
}

// Cluster is an in-process multi-node cache: N independent live
// caches, a ring, and a routing client over direct or piped
// connections: ops go through Client, and StatsJSON renders the merged
// document. It exists for selftests and differential tests; the
// real-socket deployment is cmd/rwpcluster against rwpserve -tcp
// processes.
type Cluster struct {
	ring   *Ring
	caches []*live.Cache
	client *Client
	conns  []NodeConn

	wg      sync.WaitGroup
	srvErrs []error // per node, written by the server goroutine (pipe mode)
}

// NewHarness builds and wires the cluster.
func NewHarness(cfg HarnessConfig) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	if cfg.Mode == "" {
		cfg.Mode = Direct
	}
	if cfg.Mode != Direct && cfg.Mode != Pipe {
		return nil, fmt.Errorf("cluster: unknown mode %q", cfg.Mode)
	}
	ids := make([]string, cfg.Nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("node%d", i)
	}
	ring, err := New(cfg.Cache.Sets, cfg.RingShards, ids, 0)
	if err != nil {
		return nil, err
	}
	h := &Cluster{
		ring:    ring,
		caches:  make([]*live.Cache, cfg.Nodes),
		conns:   make([]NodeConn, cfg.Nodes),
		srvErrs: make([]error, cfg.Nodes),
	}
	for i := range h.caches {
		c, err := live.New(cfg.Cache)
		if err != nil {
			return nil, err
		}
		h.caches[i] = c
		var conn NodeConn = &directConn{cache: c}
		if cfg.Mode == Pipe {
			// Catch-up rides the same connection as the data path; the
			// router only transfers at window boundaries, after
			// flushAll, so the chunked exchange never meets a pipeline.
			cliEnd, srvEnd := net.Pipe()
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				h.srvErrs[i] = proto.ServeConn(srvEnd, c)
			}()
			conn = proto.NewClient(cliEnd)
		}
		if cfg.NoCatchup {
			conn = coldConn{conn}
		}
		h.conns[i] = conn
	}
	h.client, err = NewClient(ClientConfig{
		Ring:     ring,
		Conns:    h.conns,
		Manager:  cfg.Manager,
		Window:   cfg.Window,
		Log:      cfg.Log,
		Pipeline: cfg.Pipeline,
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// coldConn is a node that refuses to be snapshotted, which leaves the
// router's replica sync its cold-reset arm (HarnessConfig.NoCatchup).
type coldConn struct{ NodeConn }

func (coldConn) SnapRange(lo, hi int) ([]byte, error) {
	return nil, errors.New("cluster: catch-up disabled")
}

// Client returns the routing client.
func (h *Cluster) Client() *Client { return h.client }

// Ring returns the cluster's ring.
func (h *Cluster) Ring() *Ring { return h.ring }

// Caches exposes the per-node caches (tests only; going around the
// router on a live cluster breaks the write-to-all invariant).
func (h *Cluster) Caches() []*live.Cache { return h.caches }

// Close drains the router and tears the transports down. In pipe mode
// it waits for every server loop to exit and reports the first server
// error (a peer-close is clean and reports nil).
func (h *Cluster) Close() error {
	err := h.client.Finish()
	for _, conn := range h.conns {
		if cerr := conn.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	h.wg.Wait()
	for _, serr := range h.srvErrs {
		if serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// StatsJSON drains the router, closing a trailing partial window, and
// renders the cluster's merged stats document: each ring shard's set
// range summed from the shard's primary node, so every set is counted
// exactly once. At replication factor one this equals a single-node
// document over the same op stream byte for byte. With replication it
// is the deterministic primary view: replica reads and replicated
// writes are counted in each node's own document and in the
// -windows-out journal (reads, and replicas × writes), not here.
func (h *Cluster) StatsJSON() ([]byte, error) {
	if err := h.client.Finish(); err != nil {
		return nil, err
	}
	var merged live.Stats
	for s := 0; s < h.ring.Shards(); s++ {
		lo, hi := h.ring.SetRange(s)
		merged.Add(h.caches[h.ring.Primary(s)].StatsRange(lo, hi))
	}
	cfg := h.caches[0].Config() // geometry is identical across nodes
	return live.StatsPayload{
		Policy:   cfg.Policy,
		Sets:     cfg.Sets,
		Ways:     cfg.Ways,
		Capacity: h.caches[0].Capacity(),
		Stats:    merged,
	}.JSON()
}

// directConn is the synchronous NodeConn: ops execute against the
// in-process cache at queue time, replies accumulate until Flush.
// Because node caches share no state, applying ops at queue time and
// at flush time are indistinguishable — which is exactly why direct
// and pipe runs produce identical merged stats.
//
// Its replies, the Gets and Inserts in them and their values are built
// in scratch that the next batch overwrites — the NodeConn.Flush
// lifetime rule.
type directConn struct {
	cache   *live.Cache
	replies []proto.Reply
	gets    []proto.GetResult // backing of the queued MGET replies
	ins     []bool            // backing of the queued MPUT replies
	vals    []byte            // backing of the queued GET and MGET values
	key     []byte            // the key GetAppend borrows
}

func (d *directConn) QueueGet(key string) error {
	d.replies = append(d.replies, proto.Reply{Op: proto.OpGet, Get: d.get(key)})
	return nil
}

func (d *directConn) QueuePut(key string, val []byte) error {
	ins := d.cache.Put(key, val)
	d.replies = append(d.replies, proto.Reply{Op: proto.OpPut, Inserted: ins})
	return nil
}

func (d *directConn) QueueMGet(keys []string) error {
	from := len(d.gets)
	for _, k := range keys {
		d.gets = append(d.gets, d.get(k))
	}
	d.replies = append(d.replies, proto.Reply{Op: proto.OpMGet, Gets: d.gets[from:len(d.gets):len(d.gets)]})
	return nil
}

func (d *directConn) QueueMPut(kvs []proto.KV) error {
	from := len(d.ins)
	for _, kv := range kvs {
		d.ins = append(d.ins, d.cache.Put(kv.Key, kv.Value))
	}
	d.replies = append(d.replies, proto.Reply{Op: proto.OpMPut, Inserts: d.ins[from:len(d.ins):len(d.ins)]})
	return nil
}

// get serves one key as the server does (proto.ServeConn): through
// GetAppend, with the same status mapping. The value is appended to the
// conn's value scratch, its capacity ending where its bytes do.
func (d *directConn) get(key string) proto.GetResult {
	d.key = append(d.key[:0], key...)
	n := len(d.vals)
	var hit, found bool
	d.vals, hit, found = d.cache.GetAppend(d.vals, d.key)
	val := d.vals[n:len(d.vals):len(d.vals)]
	switch {
	case hit:
		return proto.GetResult{Status: proto.StatusHit, Value: val}
	case found:
		return proto.GetResult{Status: proto.StatusFill, Value: val}
	default:
		return proto.GetResult{Status: proto.StatusMiss}
	}
}

func (d *directConn) Depth() int { return len(d.replies) }

func (d *directConn) Flush() ([]proto.Reply, error) {
	r := d.replies
	// The next batch overwrites this one from the start; clear what an
	// earlier, longer batch left past its end, so no value buffer the
	// scratch has outgrown stays reachable through it.
	clear(d.replies[len(d.replies):cap(d.replies)])
	clear(d.gets[len(d.gets):cap(d.gets)])
	d.replies, d.gets, d.ins, d.vals = d.replies[:0], d.gets[:0], d.ins[:0], d.vals[:0]
	return r, nil
}

func (d *directConn) Stats() ([]byte, error) { return d.cache.StatsJSON() }

func (d *directConn) Close() error { return nil }

func (d *directConn) ResetRange(lo, hi int) (int, error) { return d.cache.ResetRange(lo, hi), nil }

func (d *directConn) SnapRange(lo, hi int) ([]byte, error) { return d.cache.SnapBytes(lo, hi) }

func (d *directConn) Restore(data []byte) (int, error) { return d.cache.RestoreBytes(data) }
