package cluster

import (
	"fmt"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
	"rwp/internal/live/proto"
	"rwp/internal/probe"
)

// NodeConn is everything the router asks of one node: the pipelined
// data path plus the three range operations replica adds need. It is a
// subset of proto.Client, which satisfies it directly; every node the
// router talks to, in-process (NewHarness) or over TCP, is one. The
// merged document of an in-process cluster equals a single rwpserve
// node's over the same stream, which is the transport-equivalence
// contract extended to the cluster layer.
//
// A Queue* call must be done with its arguments when it returns (encode
// them, never keep the slice): the router reuses its batch slices from
// call to call. The range operations are only called with
// the pipeline empty (Depth() == 0).
type NodeConn interface {
	QueueGet(key string) error
	QueuePut(key string, val []byte) error
	QueueMGet(keys []string) error
	QueueMPut(kvs []proto.KV) error
	Depth() int
	// Flush returns the replies to the queued requests in order, as
	// proto.Client.Flush does: the slice, the Gets and Inserts in it and
	// every Value are the conn's scratch, valid until its next Queue* or
	// Flush call. The range operations leave them intact, which lets
	// the router apply replica commands between gathering an MGet's
	// values and returning them. An MGET reply holds one GetResult per
	// key and an MPUT reply one flag per pair — a Flush that cannot
	// deliver that fails instead — so the router indexes them without
	// counting again.
	Flush() ([]proto.Reply, error)
	Stats() ([]byte, error)
	Close() error

	// ResetRange purges the node's global cache-set range [lo, hi),
	// returning the number of entries purged. It is what makes replica
	// adds safe — a node re-entering a shard's replica set may hold
	// values that missed interim writes, so its range starts cold and
	// refills through the node's Loader.
	ResetRange(lo, hi int) (int, error)
	// SnapRange captures the range as snapshot bytes (internal/snap
	// format) and Restore applies such bytes with catch-up semantics —
	// entries and policy state installed for the snapshot's range, the
	// node's own counters kept — returning entries purged. Together they
	// upgrade a replica add from a cold reset to a warm transfer; a
	// node may refuse either and the router falls back to ResetRange.
	SnapRange(lo, hi int) ([]byte, error)
	Restore(data []byte) (int, error)
}

var _ NodeConn = (*proto.Client)(nil)

// ClientConfig wires a router.
type ClientConfig struct {
	// Ring maps keys to shards and shards to nodes. The router owns it
	// (replica sets mutate at window boundaries).
	Ring *Ring
	// Conns holds one transport per ring node, index-aligned.
	Conns []NodeConn
	// Manager, when non-nil, runs the replication control loop at
	// window boundaries.
	Manager *Manager
	// Window is the op-count window width for load sampling when no
	// Manager is wired (<= 0 selects DefaultWindow). With a Manager, the
	// manager's own window wins — sampling and deciding share a clock.
	// There is no unwindowed router: the per-shard cost histograms and
	// the per-node load they observe are reset on this clock in every
	// configuration, which is what bounds the router's memory.
	Window int
	// Log, when non-nil, receives the run log as it happens (see RunLog).
	// nil discards it.
	Log RunLog
	// Pipeline bounds queued ops between flushes during Replay (<= 0
	// selects DefaultPipeline). Keep the implied burst bytes in the tens
	// of KiB — see proto.Client.Flush.
	Pipeline int
}

// DefaultPipeline is the Replay flush depth in routed operations.
const DefaultPipeline = 32

// DefaultWindow is the window width of a router that was not given one:
// rwpcluster -window's default.
const DefaultWindow = 4096

// RunLog receives a router's run log — every closed window's shard
// samples and every replica command applied — as a stream: the router
// keeps none of it. An error from either method aborts the run at the
// op that crossed the window boundary, like a flush error; the window
// is closed all the same and is never emitted again.
type RunLog interface {
	// Window is called once per closed window, in window order, with one
	// record per ring shard in ascending shard order. ws is the router's
	// scratch, overwritten at the next close: it is valid only for the
	// call, and a log that wants to keep records copies them.
	Window(ws []probe.ShardWindow) error
	// Command is called for each command the router applied, after the
	// Window call of the window that decided it.
	Command(cmd Command) error
}

// Client routes key-value operations across the cluster. Reads go to
// one rendezvous-picked replica of the key's shard; writes go to every
// replica, so replication changes only where reads land, never what
// they observe. It is not safe for concurrent use.
//
// The client is also the cluster's load sensor: every routed op lands
// in an op-count window (per-shard read/write counters plus a digest
// of deterministic service costs), and at each window boundary the
// window's samples are handed to the RunLog and — when a Manager is
// wired — turned into replica commands; then the window is forgotten.
// The router's state is O(shards + one window), never O(ops). The
// service cost of an op is the serving node's in-window op count at
// routing time: a pure congestion proxy that is a function of the
// stream alone, so p99s, decisions, and therefore entire cluster runs
// are bit-reproducible.
type Client struct {
	ring      *Ring
	conns     []NodeConn
	mgr       *Manager
	log       RunLog
	windowOps int
	pipeline  int

	// catchupSnaps and catchupResets count how replica adds were
	// satisfied: a warm snapshot transfer from the shard primary, or
	// the cold-reset fallback.
	catchupSnaps  int
	catchupResets int

	// Current-window state, all op-count clocked.
	window    int
	opsInWin  int
	reads     []uint64         // per shard
	writes    []uint64         // per shard
	costs     []probe.CostHist // per shard: exact service-cost histograms
	nodeLoad  []uint64         // per node: ops routed this window (cost proxy)
	sinceFlsh int              // ops queued since the last flushAll

	// Per-node batch scratch for MGet/MPut, truncated and refilled by
	// every call: the keys or pairs bound for each node, and each one's
	// index in the caller's request.
	nodeKeys [][]string
	nodeKVs  [][]proto.KV
	nodeIdx  [][]int
	// gets and ins are the merged results MGet and MPut return, refilled
	// by every call.
	gets []proto.GetResult
	ins  []bool

	// closed is closeWindow's scratch: the closing window's samples, one
	// per shard, overwritten at every close.
	closed []probe.ShardWindow

	// Run totals.
	applied    int // replica commands applied
	totalReads uint64
	makespan   uint64 // sum over closed windows of max per-node load
}

// NewClient validates cfg and builds a router.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Ring == nil {
		return nil, fmt.Errorf("cluster: nil ring")
	}
	if len(cfg.Conns) != len(cfg.Ring.Nodes()) {
		return nil, fmt.Errorf("cluster: %d conns for %d ring nodes", len(cfg.Conns), len(cfg.Ring.Nodes()))
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = DefaultPipeline
	}
	windowOps := cfg.Window
	if cfg.Manager != nil {
		windowOps = cfg.Manager.Config().Window
	} else if windowOps <= 0 {
		windowOps = DefaultWindow
	}
	c := &Client{
		ring:      cfg.Ring,
		conns:     cfg.Conns,
		mgr:       cfg.Manager,
		log:       cfg.Log,
		windowOps: windowOps,
		pipeline:  cfg.Pipeline,
		reads:     make([]uint64, cfg.Ring.Shards()),
		writes:    make([]uint64, cfg.Ring.Shards()),
		costs:     make([]probe.CostHist, cfg.Ring.Shards()),
		nodeLoad:  make([]uint64, len(cfg.Conns)),
		closed:    make([]probe.ShardWindow, cfg.Ring.Shards()),
		nodeKeys:  make([][]string, len(cfg.Conns)),
		nodeKVs:   make([][]proto.KV, len(cfg.Conns)),
		nodeIdx:   make([][]int, len(cfg.Conns)),
	}
	return c, nil
}

// Ring returns the router's ring (replica sets reflect applied
// commands).
func (c *Client) Ring() *Ring { return c.ring }

// accountRead records a read of shard s served by node n and returns
// nothing; the service cost is the node's pre-increment in-window load.
func (c *Client) accountRead(s, n int) {
	c.costs[s].Observe(int(c.nodeLoad[n]))
	c.nodeLoad[n]++
	c.reads[s]++
	c.totalReads++
	c.tick()
}

// accountWrite records a write to shard s fanned to nodes ns: one
// stream op, one unit of load on every replica.
func (c *Client) accountWrite(s int, ns []int) {
	for _, n := range ns {
		c.nodeLoad[n]++
	}
	c.writes[s]++
	c.tick()
}

// tick advances the op clock; the boundary is processed by the public
// entry points (see boundary), after the op is safely queued.
func (c *Client) tick() {
	c.opsInWin++
}

// boundary closes the window once the op clock crosses it. The
// boundary must not tear a pipelined burst: every queued op belongs to
// the closing window, so the wire is drained before the replica sets
// move. This is what makes a run independent of the pipeline depth —
// every node applies all window-W ops before any window-W replica
// command. A batch op that overshoots the boundary lands whole in the
// closing window (batches are atomic with respect to windows).
func (c *Client) boundary() error {
	if c.opsInWin < c.windowOps {
		return nil
	}
	if err := c.flushAll(); err != nil {
		return err
	}
	return c.closeWindow(true)
}

// closeWindow samples every shard into the scratch, consults the
// manager (optionally), resets the window state, and only then lets
// the outside world in: the samples go to the run log and the commands
// are applied. Whatever fails from there on, the window is closed and
// will not be emitted twice. Samples cover every shard — idle
// replicated shards must be visible or the manager could never collapse
// them. The errors are the run log's and a replica add no range
// operation could make safe (see syncReplica).
func (c *Client) closeWindow(decide bool) error {
	var maxLoad uint64
	for _, l := range c.nodeLoad {
		if l > maxLoad {
			maxLoad = l
		}
	}
	c.makespan += maxLoad
	for s := range c.closed {
		c.closed[s] = probe.ShardWindow{
			Window: c.window, Shard: s,
			Reads: c.reads[s], Writes: c.writes[s],
			P99Cost:  c.costs[s].Percentile(99),
			Replicas: c.ring.ReplicaCount(s),
		}
		c.reads[s], c.writes[s] = 0, 0
		c.costs[s].Reset()
	}
	for n := range c.nodeLoad {
		c.nodeLoad[n] = 0
	}
	c.window++
	c.opsInWin = 0

	var cmds []Command
	if decide && c.mgr != nil {
		cmds = c.mgr.Decide(c.closed, len(c.conns))
	}
	if c.log != nil {
		if err := c.log.Window(c.closed); err != nil {
			return err
		}
	}
	for _, cmd := range cmds {
		if err := c.apply(cmd); err != nil {
			return err
		}
	}
	return nil
}

// apply executes one manager command against the ring, bringing a
// newly added replica's set range up to date (see syncReplica). A
// replica that could not be synced is taken back out of the ring —
// add-then-drop restores the previous set — so it never serves.
func (c *Client) apply(cmd Command) error {
	switch cmd.Kind {
	case AddReplica:
		n, ok := c.ring.AddReplica(cmd.Shard)
		if !ok {
			return nil
		}
		if err := c.syncReplica(cmd.Shard, n); err != nil {
			c.ring.DropReplica(cmd.Shard)
			return err
		}
	case DropReplica:
		if _, ok := c.ring.DropReplica(cmd.Shard); !ok {
			return nil
		}
	}
	c.applied++
	if c.log != nil {
		return c.log.Command(cmd)
	}
	return nil
}

// syncReplica brings the just-added replica n of shard up to date, the
// one path every node kind takes: warm catch-up — the shard primary's
// state snapshot transferred and installed — else a cold reset. Both
// drop whatever stale entries n held, so read-your-write holds either
// way; catch-up just replaces the Loader-refill cost of every future
// read with one bulk transfer. If the reset fails too, n may still
// hold stale values and the error is returned from the window boundary.
// AddReplica appends to the replica set, so the primary is a
// previously-serving node, never n itself. Called only from apply —
// after boundary's flushAll, so the transports' pipelines are empty
// and the chunked transfer cannot tear a burst.
func (c *Client) syncReplica(shard, n int) error {
	lo, hi := c.ring.SetRange(shard)
	if data, err := c.conns[c.ring.Primary(shard)].SnapRange(lo, hi); err == nil {
		if _, err := c.conns[n].Restore(data); err == nil {
			c.catchupSnaps++
			return nil
		}
	}
	if _, err := c.conns[n].ResetRange(lo, hi); err != nil {
		return fmt.Errorf("cluster: node %d: reset of sets [%d,%d) for shard %d: %w", n, lo, hi, shard, err)
	}
	c.catchupResets++
	return nil
}

// CatchupCounts reports how replica adds were satisfied so far:
// warm snapshot transfers and cold-reset fallbacks.
func (c *Client) CatchupCounts() (snaps, resets int) {
	return c.catchupSnaps, c.catchupResets
}

// flushAll drains every node connection in node order.
func (c *Client) flushAll() error {
	for i, conn := range c.conns {
		if conn.Depth() == 0 {
			continue
		}
		if _, err := conn.Flush(); err != nil {
			return fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	c.sinceFlsh = 0
	return nil
}

// queueRead routes one read and queues it (no flush).
func (c *Client) queueRead(key string) (node int, err error) {
	h := live.HashKey(key)
	s := c.ring.Shard(h)
	n := c.ring.ReadNode(s, h)
	if err := c.conns[n].QueueGet(key); err != nil {
		return n, err
	}
	c.sinceFlsh++
	c.accountRead(s, n)
	return n, nil
}

// queueWrite routes one write to every replica and queues it.
func (c *Client) queueWrite(key string, val []byte) (primary int, err error) {
	s := c.ring.KeyShard(key)
	ns := c.ring.replicas[s] // read in place: the set only changes at a window boundary
	for _, n := range ns {
		if err := c.conns[n].QueuePut(key, val); err != nil {
			return ns[0], err
		}
		c.sinceFlsh++
	}
	c.accountWrite(s, ns)
	return ns[0], nil
}

// Replay streams ops through the cluster pipelined: route, queue,
// flush every Pipeline queued requests (and at every window boundary),
// discarding replies. It is the bulk driver behind selftests and
// benches.
func (c *Client) Replay(ops []loadgen.Op) error {
	for _, op := range ops {
		var err error
		if op.Put {
			_, err = c.queueWrite(op.Key, op.Value)
		} else {
			_, err = c.queueRead(op.Key)
		}
		if err != nil {
			return err
		}
		if err := c.boundary(); err != nil {
			return err
		}
		if c.sinceFlsh >= c.pipeline {
			if err := c.flushAll(); err != nil {
				return err
			}
		}
	}
	return c.flushAll()
}

// Get routes one read synchronously. The value is the router's
// scratch, valid until the next call on the router (see MGet).
func (c *Client) Get(key string) (proto.GetResult, error) {
	if err := c.flushAll(); err != nil {
		return proto.GetResult{}, err
	}
	n, err := c.queueRead(key)
	if err != nil {
		return proto.GetResult{}, err
	}
	replies, err := c.conns[n].Flush()
	if err != nil {
		return proto.GetResult{}, err
	}
	c.sinceFlsh = 0
	return replies[len(replies)-1].Get, c.boundary()
}

// Put routes one write synchronously, reporting the primary replica's
// inserted flag.
func (c *Client) Put(key string, val []byte) (bool, error) {
	if err := c.flushAll(); err != nil {
		return false, err
	}
	primary, err := c.queueWrite(key, val)
	if err != nil {
		return false, err
	}
	var inserted bool
	for _, n := range c.ring.replicas[c.ring.KeyShard(key)] {
		replies, err := c.conns[n].Flush()
		if err != nil {
			return false, err
		}
		if n == primary {
			inserted = replies[len(replies)-1].Inserted
		}
	}
	c.sinceFlsh = 0
	return inserted, c.boundary()
}

// MGet fans a batch read across the cluster in one frame per involved
// node and merges the per-node replies back into request order. The
// result slice and the values in it are the router's scratch, valid
// until the next call on the router: the values live in the nodes'
// reply scratch (NodeConn.Flush), which the window boundary's range
// operations leave intact. In the steady state a call allocates
// nothing (pinned by TestRouterMGetAllocs).
func (c *Client) MGet(keys []string) ([]proto.GetResult, error) {
	if err := c.flushAll(); err != nil {
		return nil, err
	}
	for n := range c.conns {
		c.nodeKeys[n], c.nodeIdx[n] = c.nodeKeys[n][:0], c.nodeIdx[n][:0]
	}
	for i, key := range keys {
		h := live.HashKey(key)
		s := c.ring.Shard(h)
		n := c.ring.ReadNode(s, h)
		c.nodeKeys[n] = append(c.nodeKeys[n], key)
		c.nodeIdx[n] = append(c.nodeIdx[n], i)
		c.accountRead(s, n)
	}
	// Every slot is written below; the clear is for the slots past this
	// batch, whose stale results would keep a value buffer that a node
	// has given back reachable.
	clear(c.gets)
	if cap(c.gets) < len(keys) {
		c.gets = make([]proto.GetResult, len(keys))
	}
	c.gets = c.gets[:len(keys)]
	for n, ks := range c.nodeKeys {
		if len(ks) == 0 {
			continue
		}
		if err := c.conns[n].QueueMGet(ks); err != nil {
			return nil, err
		}
		replies, err := c.conns[n].Flush()
		if err != nil {
			return nil, err
		}
		for j, g := range replies[len(replies)-1].Gets {
			c.gets[c.nodeIdx[n][j]] = g
		}
	}
	return c.gets, c.boundary()
}

// MPut fans a batch write to every involved replica in one frame per
// node, merging inserted flags (from each key's primary) into request
// order. The flags are the router's scratch, like MGet's results.
func (c *Client) MPut(kvs []proto.KV) ([]bool, error) {
	if err := c.flushAll(); err != nil {
		return nil, err
	}
	for n := range c.conns {
		c.nodeKVs[n], c.nodeIdx[n] = c.nodeKVs[n][:0], c.nodeIdx[n][:0]
	}
	for i, kv := range kvs {
		s := c.ring.KeyShard(kv.Key)
		ns := c.ring.replicas[s]
		for _, n := range ns {
			c.nodeKVs[n] = append(c.nodeKVs[n], kv)
			orig := -1 // the request index when this node is the key's primary
			if n == ns[0] {
				orig = i
			}
			c.nodeIdx[n] = append(c.nodeIdx[n], orig)
		}
		c.accountWrite(s, ns)
	}
	// Every slot is written below: each key has one primary.
	if cap(c.ins) < len(kvs) {
		c.ins = make([]bool, len(kvs))
	}
	c.ins = c.ins[:len(kvs)]
	for n, b := range c.nodeKVs {
		if len(b) == 0 {
			continue
		}
		if err := c.conns[n].QueueMPut(b); err != nil {
			return nil, err
		}
		replies, err := c.conns[n].Flush()
		if err != nil {
			return nil, err
		}
		for j, flag := range replies[len(replies)-1].Inserts {
			if orig := c.nodeIdx[n][j]; orig >= 0 {
				c.ins[orig] = flag
			}
		}
	}
	return c.ins, c.boundary()
}

// Finish drains the wire and closes a trailing partial window (handed
// to the run log, but never fed to the manager — decisions happen only
// on full windows). Call it after the last op; a second call finds no
// open window and emits nothing.
func (c *Client) Finish() error {
	if err := c.flushAll(); err != nil {
		return err
	}
	if c.opsInWin > 0 {
		return c.closeWindow(false)
	}
	return nil
}

// Applied returns how many replica commands the router has applied.
func (c *Client) Applied() int { return c.applied }

// TotalReads returns the routed read count.
func (c *Client) TotalReads() uint64 { return c.totalReads }

// Makespan returns the modeled parallel completion time in load units:
// the sum over closed windows of the busiest node's in-window load.
// totalReads/Makespan is the bench's deterministic read-throughput
// model — replicating a hot shard lowers the busiest node's share, so
// the model rewards exactly what the manager is supposed to achieve.
func (c *Client) Makespan() uint64 { return c.makespan }
