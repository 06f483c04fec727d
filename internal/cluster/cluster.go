package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"rwp/internal/live"
	"rwp/internal/live/proto"
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
// caches, each served by proto.ServeConn over a net.Pipe — the code an
// rwpserve -tcp node runs — a ring, and a routing client over
// pipelined proto.Clients: ops go through Client, and StatsJSON renders
// the merged document. It exists for selftests and differential tests;
// the real-socket deployment is cmd/rwpcluster against rwpserve -tcp
// processes.
type Cluster struct {
	ring   *Ring
	caches []*live.Cache
	client *Client
	conns  []NodeConn

	wg      sync.WaitGroup
	srvErrs []error // per node, written by its server goroutine
}

// NewHarness builds and wires the cluster.
func NewHarness(cfg HarnessConfig) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: no nodes")
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
		// Catch-up rides the same connection as the data path; the
		// router only transfers at window boundaries, after flushAll, so
		// the chunked exchange never meets a pipeline.
		cliEnd, srvEnd := net.Pipe()
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.srvErrs[i] = proto.ServeConn(srvEnd, c)
		}()
		var conn NodeConn = proto.NewClient(cliEnd)
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

// Close drains the router and tears the connections down, waits for
// every server loop to exit and reports the first error (a peer-close
// is clean and reports nil).
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
