package cluster

import (
	"bytes"
	"testing"

	"rwp/internal/probe"
)

func testManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(ManagerConfig{Window: 1024, HotReads: 500, ColdReads: 50})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManagerDecide(t *testing.T) {
	m := testManager(t)
	ws := []probe.ShardWindow{
		{Window: 0, Shard: 0, Reads: 900, Replicas: 1}, // hot → add
		{Window: 0, Shard: 1, Reads: 10, Replicas: 1},  // cold, already minimal → nothing
		{Window: 0, Shard: 2, Reads: 10, Replicas: 2},  // cold, replicated → drop
		{Window: 0, Shard: 3, Reads: 200, Replicas: 1}, // warm → nothing
		{Window: 0, Shard: 4, Reads: 900, Replicas: 3}, // hot, at node cap → nothing
		{Window: 0, Shard: 5, Reads: 600, Replicas: 2}, // hot, room to grow → add
	}
	got := m.Decide(ws, 3)
	want := []Command{
		{AddReplica, 0},
		{DropReplica, 2},
		{AddReplica, 5},
	}
	if len(got) != len(want) {
		t.Fatalf("Decide = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("command %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestManagerConfigValidation(t *testing.T) {
	bad := []ManagerConfig{
		{Window: 0, HotReads: 10, ColdReads: 1},
		{Window: 64, HotReads: 10, ColdReads: 10},
		{Window: 64, HotReads: 10, ColdReads: 20},
	}
	for i, cfg := range bad {
		if _, err := NewManager(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestManagerReplayFromJournal pins the determinism contract end to
// end: stream a window log through the probe codec window by window,
// as the router's run log receives it, read it back, and the manager's
// decision stream over the decoded windows matches the decisions over
// the originals exactly. (TestWindowJournalRoundTrip does the same from
// a real run's log.)
func TestManagerReplayFromJournal(t *testing.T) {
	m := testManager(t)
	ws := []probe.ShardWindow{
		{Window: 0, Shard: 0, Reads: 800, Writes: 100, P99Cost: 5, Replicas: 1},
		{Window: 0, Shard: 1, Reads: 20, Writes: 2, P99Cost: 1, Replicas: 1},
		{Window: 1, Shard: 0, Reads: 700, Writes: 90, P99Cost: 4, Replicas: 2},
		{Window: 1, Shard: 1, Reads: 30, Writes: 1, P99Cost: 1, Replicas: 2},
	}
	var buf bytes.Buffer
	journal := probe.NewWindowWriter(&buf, "replay")
	for _, win := range [][]probe.ShardWindow{ws[:2], ws[2:]} {
		if err := journal.Window(win); err != nil {
			t.Fatal(err)
		}
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, decoded, err := probe.ReadShardWindows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Decide window by window, as the live router does.
	decideBy := func(all []probe.ShardWindow) []Command {
		var out []Command
		for _, win := range []int{0, 1} {
			var batch []probe.ShardWindow
			for _, w := range all {
				if w.Window == win {
					batch = append(batch, w)
				}
			}
			out = append(out, m.Decide(batch, 3)...)
		}
		return out
	}
	live, replayed := decideBy(ws), decideBy(decoded)
	if len(live) != len(replayed) {
		t.Fatalf("replayed %d commands, live %d", len(replayed), len(live))
	}
	for i := range live {
		if live[i] != replayed[i] {
			t.Fatalf("command %d: live %v, replayed %v", i, live[i], replayed[i])
		}
	}
	if len(live) == 0 {
		t.Fatal("scenario produced no commands — test is vacuous")
	}
}
