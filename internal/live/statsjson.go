package live

import "encoding/json"

// StatsPayload is the stats JSON document every surface serves: the
// binary protocol's STATS frame, rwpserve's operator /stats endpoint
// and its -selftest output all render exactly this struct through its
// JSON method, which is what makes them byte-comparable. The cluster
// layer (internal/cluster) renders its merged view through the same
// struct, so a replication-factor-1 cluster run over a stream produces
// the same bytes as a single-node run.
//
// Every field is an order-independent aggregate, so the payload is
// shard-count invariant for a deterministic operation stream. Note:
// the lock-shard count is deliberately absent — it is a lock layout
// detail, and keeping it out lets the determinism smokes compare
// payloads across shard counts byte for byte.
type StatsPayload struct {
	Policy   string `json:"policy"`
	Sets     int    `json:"sets"`
	Ways     int    `json:"ways"`
	Capacity int    `json:"capacity"`
	Stats    Stats  `json:"stats"`
}

// StatsSnapshot assembles the cache's stats document from one Stats
// sweep. (The state snapshot for warm restarts is Cache.Snapshot, in
// snapshot.go.)
func (c *Cache) StatsSnapshot() StatsPayload {
	return StatsPayload{
		Policy:   c.cfg.Policy,
		Sets:     c.cfg.Sets,
		Ways:     c.cfg.Ways,
		Capacity: c.Capacity(),
		Stats:    c.Stats(),
	}
}

// JSON renders p as the canonical indented JSON document, newline
// terminated: the one payload-to-bytes path.
func (p StatsPayload) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// StatsJSON renders the cache's stats document — the exact bytes of
// rwpserve's /stats body (it satisfies proto.Backend's StatsJSON).
func (c *Cache) StatsJSON() ([]byte, error) { return c.StatsSnapshot().JSON() }
