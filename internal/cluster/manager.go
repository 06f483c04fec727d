package cluster

import (
	"fmt"

	"rwp/internal/probe"
)

// ManagerConfig tunes the shard manager's replication policy.
type ManagerConfig struct {
	// Window is the decision cadence in routed operations: the router
	// closes a window and consults the manager every Window ops.
	Window int
	// HotReads marks a shard hot: at least this many reads in a window.
	HotReads uint64
	// ColdReads marks a shard cold: at most this many reads in a window.
	ColdReads uint64
}

// Validate reports the first nonsensical field.
func (c ManagerConfig) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("cluster: manager window %d must be positive", c.Window)
	}
	if c.ColdReads >= c.HotReads {
		return fmt.Errorf("cluster: cold threshold %d must be below hot threshold %d", c.ColdReads, c.HotReads)
	}
	return nil
}

// CommandKind is a manager decision type.
type CommandKind int

const (
	// AddReplica grows the shard's replica set by one node.
	AddReplica CommandKind = iota
	// DropReplica shrinks it by one non-primary node.
	DropReplica
)

func (k CommandKind) String() string {
	if k == AddReplica {
		return "add-replica"
	}
	return "drop-replica"
}

// Command is one replica-set change the manager wants applied at a
// window boundary.
type Command struct {
	Kind  CommandKind
	Shard int
}

// Manager is the DynamicCache-style control loop, reduced to its
// deterministic core: a stateless policy over per-shard windowed load
// samples. Hot read-heavy shards gain replicas (reads rendezvous-pick
// one replica, so R replicas serve ~R× the read throughput); shards
// that cool off drop back to fewer nodes. A drop only edits the ring:
// the dropped node stops receiving the shard's reads and writes but
// keeps the range resident until a later re-add restores or resets it.
// Writes always go to every replica, so replication never changes
// observable contents — only where reads land.
//
// Decide is a pure function of the window samples, which is the whole
// point: the samples can be journaled (a probe.WindowWriter behind the
// router's RunLog), and replaying a journal through the same config
// reproduces the decision stream bit-for-bit.
type Manager struct {
	cfg ManagerConfig
}

// NewManager validates cfg and builds a manager.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Manager{cfg: cfg}, nil
}

// Config returns the manager's policy.
func (m *Manager) Config() ManagerConfig { return m.cfg }

// Decide maps one window's shard samples to replica commands. ws must
// be in ascending shard order (the router emits it that way); the
// output command order follows the input order, so the decision stream
// is deterministic. nodes is the cluster size — the replica cap.
func (m *Manager) Decide(ws []probe.ShardWindow, nodes int) []Command {
	var cmds []Command
	for _, w := range ws {
		switch {
		case w.Reads >= m.cfg.HotReads && w.Replicas < nodes:
			cmds = append(cmds, Command{Kind: AddReplica, Shard: w.Shard})
		case w.Reads <= m.cfg.ColdReads && w.Replicas > 1:
			cmds = append(cmds, Command{Kind: DropReplica, Shard: w.Shard})
		}
	}
	return cmds
}
