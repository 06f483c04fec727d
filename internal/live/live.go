// Package live is a sharded, thread-safe, set-associative in-memory
// key-value cache whose per-set replacement policy is the repo's RWP
// mechanism (internal/core) — the paper's clean/dirty partitioning,
// lifted out of the trace-driven simulator and put in front of real
// concurrent get/put traffic.
//
// The mapping from KV operations onto the paper's access classes:
//
//   - Get is a demand load. A hit touches the line; a miss optionally
//     fetches the value from a backing-store Loader and installs it as
//     a *clean* fill (read-allocate), exactly like a demand-load fill
//     in the simulator.
//   - Put is a demand store. A hit overwrites the value and dirties
//     the line; a miss installs the line dirty (write-allocate).
//
// Sharding vs determinism. The cache is split into Shards independent
// lock domains, but the unit of replacement is the *set* and the unit
// of RWP's predictor is the *group*: GroupSets consecutive sets share
// one policy instance (one sampled set's shadow stacks, the histograms,
// the dirty-partition target) whose interval clock is the group's own
// operation count — never the wall clock, never a global counter. A key
// maps to a global set index by hash, a shard is just a contiguous run
// of whole groups sharing one mutex, and the group size is a function
// of Sets alone. Consequently a single-goroutine run is bit-identical
// across repeated runs AND across shard counts: resharding moves lock
// boundaries, not behavior.
// Under concurrent load the per-shard locks serialize each set's
// stream, so all structural invariants hold (stress-tested with
// -race); only the interleaving — and therefore the exact counter
// values — is scheduling-dependent, as for any concurrent cache.
//
// Accounting is one ledger per group: an operation writes its group's
// Counters block and charges one cell of the group's cost table, under
// the shard lock, and nothing else. Every reported view — Stats, the
// stats document, merged cluster documents, snapshots — is derived from
// those per-group sums when somebody reads, so all of them are
// order-independent and the /stats payload served by cmd/rwpserve is
// shard-count invariant.
package live

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"unsafe"

	"rwp/internal/cache"
	"rwp/internal/core"
	"rwp/internal/mem"
	"rwp/internal/policy"
	"rwp/internal/probe"
	"rwp/internal/recency"
)

// Loader fetches the backing-store value for a key (read-allocate on
// Get misses). It must be deterministic and safe for concurrent use.
// It is called with no shard lock held — a slow backing store stalls
// only the Gets that actually miss, never the whole shard — so a
// Loader may itself call back into the cache (e.g. warm a sibling
// key). If another writer installs the key while the Loader runs, the
// fetched value is still returned but not installed (see Get and the
// LoadRaces counter).
type Loader func(key string) []byte

// Config parameterizes a live cache.
type Config struct {
	// Sets is the total number of sets across all shards (a power of
	// two; capacity = Sets*Ways entries).
	Sets int
	// Ways is the associativity of every set.
	Ways int
	// Shards is the number of independent lock domains; it must divide
	// Sets into runs of whole groups (see GroupSets). More shards means
	// less lock contention, identical behavior.
	Shards int
	// Policy selects the replacement mechanism: "lru" or "rwp".
	Policy string
	// RWP configures the per-group predictor when Policy is "rwp".
	// Interval is the average number of operations on one set between
	// repartitionings (a group of G sets retargets every Interval×G of
	// its own ops); SamplerSets must be 1 — each group shadows exactly
	// its first set.
	RWP core.Config
	// Loader, when non-nil, backfills Get misses with a clean fill.
	Loader Loader
	// ReqLog, when non-nil, receives one probe.ReqEvent per completed
	// Get/Put — the request-stream recorder behind rwpserve -record.
	// Events are emitted with no shard lock held, after the operation's
	// outcome is decided; batch ops (MGET/MPUT) arrive decomposed into
	// per-key events, which is what makes recorded journals
	// transport-invariant. The sink must not retain event values.
	ReqLog probe.ReqProbe
	// Coalesce enables singleflight fill coalescing (fill.go): when
	// several Gets miss on one key concurrently, exactly one calls the
	// Loader and the rest wait for its result (counted CoalescedLoads).
	// Coalescing only collapses genuinely concurrent fills, so
	// single-goroutine behavior — and its bit-identity across runs and
	// shard counts — is unchanged. Requires a Loader to matter.
	Coalesce bool
	// NegOps enables negative caching of Loader misses: a key the
	// Loader reported absent (nil) is remembered for NegOps operations
	// on its set (the set's own op-count clock, never wall clock), and
	// Gets inside that window are answered without consulting the
	// backend (counted NegHits). A Put of the key invalidates the entry
	// immediately. 0 disables; the clock choice keeps expiry
	// deterministic and shard-count invariant.
	NegOps uint64
	// LeaseOps bounds a coalesced fill's lease: once a leader's Loader
	// call has been in flight for LeaseOps operations on its set, the
	// next missing Get deposes it (counted LeaseExpires) and fetches
	// itself, so a stuck or dead lease holder cannot park a key forever.
	// 0 means leases never expire. Requires Coalesce.
	LeaseOps uint64
}

// Modeled per-operation service costs, in abstract backend-work units.
// They are a pure function of the op's outcome and the victim's dirty
// bit — set-level state — so cost streams are deterministic and
// shard-count invariant, and they encode the paper's asymmetry: a read
// miss pays a backing-store round trip, a write allocates locally, and
// evicting a dirty line adds a writeback. RWP's larger read-hit rate
// therefore shows up directly in the cost percentiles /stats reports.
const (
	// CostHit: served from a resident entry (Get hit or Put overwrite).
	CostHit = 1
	// CostMiss: a Get miss — the backing-store round trip, whether it
	// returns a value (Loader fill) or not (404).
	CostMiss = 16
	// CostInsert: a Put installing a new entry (write-allocate; no
	// backing-store read).
	CostInsert = 2
	// CostDirtyEvict: surcharge when the op's fill evicts a dirty
	// entry, modeling the victim's writeback.
	CostDirtyEvict = 4
	// CostCoalesced: a Get miss served by another Get's in-flight (or
	// just-landed) fill of the same key — no backend trip of its own.
	CostCoalesced = 1
	// CostNegHit: a Get miss answered by the negative cache — also no
	// backend trip. Both equal CostHit on purpose: the stampede defenses
	// turn backend round trips into local answers, and the cost stream
	// is where that shows up.
	CostNegHit = 1
)

// costClass indexes the closed set of costs an operation can be
// charged, in ascending cost order (which makes a table row already a
// sorted sparse histogram). Coalesced and negative-cache answers cost
// CostHit and share its class. TestCostClasses pins both properties.
type costClass uint8

const (
	classHit costClass = iota
	classInsert
	classInsertEvict
	classMiss
	classMissEvict
	numCostClasses
)

// classCost is the modeled cost of each class.
var classCost = [numCostClasses]int{
	classHit:         CostHit,
	classInsert:      CostInsert,
	classInsertEvict: CostInsert + CostDirtyEvict,
	classMiss:        CostMiss,
	classMissEvict:   CostMiss + CostDirtyEvict,
}

// The partition that served or received an op's line: a Get hit goes by
// the entry's dirty bit, every other Get (miss, loader fill, race) is
// clean service — a read miss is or would be a clean fill — and every
// Put is dirty service, since a write dirties the line.
const (
	partClean = iota
	partDirty
)

// costTable is a group's service-cost ledger: completed operations by
// partition and cost class. The sparse sorted probe.CostHist form
// exists only where it is read (Stats, snapshots).
type costTable [2][numCostClasses]uint64

func (t *costTable) add(o *costTable) {
	for part := range t {
		for class := range t[part] {
			t[part][class] += o[part][class]
		}
	}
}

// hist renders one partition's row as a sparse histogram.
func (t *costTable) hist(part int) probe.CostHist {
	var h probe.CostHist
	for class, n := range t[part] {
		if n > 0 {
			h.Buckets = append(h.Buckets, probe.CostBucket{Cost: classCost[class], Count: n})
		}
	}
	return h
}

// maxGroupSets is how many consecutive sets share one policy instance —
// for RWP one predictor, fed by the group's first set alone, which is
// the paper's sampled-set design at the live cache's scale. A constant,
// not a knob: the largest of {4, 8, 32, 128} that every gate geometry
// admits, at a read-hit geomean no worse than a predictor per set
// (DESIGN.md §10).
const maxGroupSets = 8

// GroupSets returns the policy group size of a cache with the given set
// count: a function of Sets alone, so behavior stays shard-count
// invariant. Lock shards and cluster ring ranges must hold whole groups.
func GroupSets(sets int) int { return min(maxGroupSets, sets) }

// DefaultRWPConfig returns the per-group predictor configuration: the
// group's first set is the (only) sampler set, and the repartition
// interval is short because it is measured in per-set operations, not
// global accesses (1024 sets at the default geometry each see 1/1024th
// of the traffic).
func DefaultRWPConfig() core.Config {
	return core.Config{
		SamplerSets:        1,
		Interval:           256,
		DecayShift:         1,
		InitialDirtyTarget: -1,
	}
}

// DefaultConfig returns a 16k-entry RWP cache split into 8 shards.
func DefaultConfig() Config {
	return Config{
		Sets:   1024,
		Ways:   16,
		Shards: 8,
		Policy: "rwp",
		RWP:    DefaultRWPConfig(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("live: Sets %d must be a positive power of two", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("live: Ways %d must be positive", c.Ways)
	}
	if c.Ways > recency.MaxWays {
		return fmt.Errorf("live: Ways %d exceeds the supported maximum %d", c.Ways, recency.MaxWays)
	}
	if c.Shards <= 0 || c.Sets%c.Shards != 0 {
		return fmt.Errorf("live: Shards %d must be positive and divide Sets %d", c.Shards, c.Sets)
	}
	if g := GroupSets(c.Sets); c.Sets/c.Shards%g != 0 {
		return fmt.Errorf("live: Shards %d leaves %d sets per shard, not a multiple of the %d-set policy group", c.Shards, c.Sets/c.Shards, g)
	}
	switch c.Policy {
	case "lru":
	case "rwp":
		if err := c.RWP.Validate(); err != nil {
			return err
		}
		if c.RWP.SamplerSets != 1 {
			return fmt.Errorf("live: RWP.SamplerSets %d must be 1 (each policy group shadows its first set)", c.RWP.SamplerSets)
		}
		if c.RWP.Interval > math.MaxUint64/maxGroupSets {
			return fmt.Errorf("live: RWP.Interval %d overflows the group clock", c.RWP.Interval)
		}
	default:
		return fmt.Errorf("live: unknown policy %q (want lru or rwp)", c.Policy)
	}
	if c.LeaseOps > 0 && !c.Coalesce {
		return fmt.Errorf("live: LeaseOps %d without Coalesce (leases bound coalesced fills)", c.LeaseOps)
	}
	return nil
}

// entry is one way's payload: the resident key and value in one
// buffer, kv[:klen] the key and kv[klen:] the value, and the way's
// state bits. The way's tag — the key hash find probes first, and the
// policy's line identity — lives apart from it, packed in lset.tags.
type entry struct {
	kv    []byte
	klen  uint32
	valid bool
	dirty bool // written at fill or since (RWP's partition criterion)
}

// key views the entry's key bytes as a string: valid only while the
// shard lock is held and the way is not rewritten.
func (e *entry) key() string { return borrowString(e.kv[:e.klen]) }

// val is the entry's value bytes, under the same rule as key: a reader
// copies them out before releasing the shard lock.
func (e *entry) val() []byte { return e.kv[e.klen:] }

// lset is one cache set; its replacement policy and its ledger belong
// to its group.
//
// The layout is the simulator's (cache.Cache): tags packed by way, the
// payload beside them. A probe scans the tags — two host cache lines at
// 16 ways — and reads an entry only on a tag match. install is the one
// place that writes a way, so a valid way's tag is always its key's
// HashKey (CheckInvariants holds it to that).
//
// A set owns no way storage until its first fill (grow): a set no key
// ever reaches costs its lset and nothing more, so a cluster node's
// memory follows the ring ranges it serves. find over the nil slices
// matches nothing, which keeps the hit path free of a storage check.
type lset struct {
	// tags[w] is HashKey of entries[w].key(). Meaningful only while
	// entries[w].valid. Both are nil until the set's first fill and again
	// after a reset, and Ways long otherwise.
	tags    []mem.LineAddr
	entries []entry
	// grp owns the set's replacement policy, which knows the set as idx.
	grp        *group
	idx        int
	validCount int
	dirtyCount int
	// clock is the set's operation count — every Get and Put that
	// probes it — on which NegOps verdicts and LeaseOps leases are
	// measured. It is not history: ResetStats and ResetRange leave it
	// running, so no reset can stretch or cut short a window in flight.
	clock uint64
	// negs is the set's negative cache (fill.go): keys the Loader
	// recently reported absent, with op-count expiry deadlines. A
	// bounded slice, not a map — lookups are linear like find, and
	// nothing ever iterates it in map order. Nil unless Config.NegOps.
	negs []negEntry
}

// group is GroupSets consecutive sets and the one policy instance they
// share. It implements cache.StateReader over them, so the simulator's
// policies attach to it exactly as they attach to a cache: core.RWP
// with SamplerSets 1 shadows set 0 of the view, and every callback
// names a set by its index in the group.
type group struct {
	sets []lset  // a window of the shard's sets
	cfg  *Config // the cache's; the group's geometry and policy choice
	// pol is nil until the first fill into any of the group's sets: a
	// Get that misses without filling calls no policy method, so a policy
	// attached at the first fill is the one New would have built.
	pol cache.Policy
	rwp *core.RWP // non-nil iff pol is RWP
	// ops and costs are the group's ledger — all an operation writes
	// besides the entries themselves: ops once per event, costs one cell
	// per completed Get/Put. A group never spans a lock shard or a
	// cluster ring range, so StatsRange still attributes them to
	// ring-shard set ranges exactly. Both are cumulative history:
	// ResetRange preserves them, ResetStats clears them.
	ops   Counters
	costs costTable
}

// NumSets implements cache.StateReader.
func (g *group) NumSets() int { return len(g.sets) }

// Ways implements cache.StateReader. It is the configured associativity,
// not len(entries): a set without storage still has its ways.
func (g *group) Ways() int { return g.cfg.Ways }

// State implements cache.StateReader.
func (g *group) State(set, way int) cache.LineState {
	s := &g.sets[set]
	e := &s.entries[way]
	return cache.LineState{Tag: s.tags[way], Valid: e.valid, Dirty: e.dirty}
}

// ValidWays implements cache.StateReader.
func (g *group) ValidWays(set int) int { return g.sets[set].validCount }

// DirtyWays implements cache.StateReader.
func (g *group) DirtyWays(set int) int { return g.sets[set].dirtyCount }

// InvalidWay implements cache.StateReader.
func (g *group) InvalidWay(set int) int {
	s := &g.sets[set]
	if s.validCount >= len(s.entries) {
		return -1
	}
	for w := range s.entries {
		if !s.entries[w].valid {
			return w
		}
	}
	return -1
}

// find returns the way holding key, or -1. tag is HashKey(key), which
// the caller already computed to pick the set. The packed tags are
// scanned first; an entry is read only where the tag matches, and there
// the valid bit and the key itself still decide: an invalid way never
// matches whatever its tag holds, and two keys sharing all 64 hash bits
// stay two keys.
//
//rwplint:hotpath — linear probe on every Get/Put; must stay allocation-free
func (s *lset) find(key string, tag mem.LineAddr) int {
	for w, t := range s.tags {
		if t != tag {
			continue
		}
		if e := &s.entries[w]; e.valid && e.key() == key {
			return w
		}
	}
	return -1
}

// A way keeps its buffer across overwrites and refills, so the steady
// state stores without allocating. Left unbounded that would pin the
// largest key and value a way ever held: a buffer is reused only while
// its capacity is at most retainFactor times what the new key and value
// need, or retainMin bytes, below which shrinking saves nothing.
const (
	retainFactor = 4
	retainMin    = 256
)

// reserve returns the way's buffer cut to its first keep bytes, with
// room for need bytes in all: kv itself when it fits without hoarding,
// otherwise a fresh allocation holding a copy of those keep bytes.
// Reuse is safe because nobody outside the shard lock holds kv — every
// reader of an entry (get, miss's coalesced join, snapSet) copies the
// bytes out under the lock.
//
//rwplint:hotpath — every overwrite and fill; allocates only when the way's buffer cannot be reused
func (e *entry) reserve(keep, need int) []byte {
	kv := e.kv[:keep]
	if cap(kv) < need || cap(kv) > max(retainFactor*need, retainMin) {
		// Every allocator size class is a multiple of 8 bytes, so the
		// rounded capacity costs no heap and lets a key or value a few
		// bytes longer reuse the buffer later.
		//rwplint:allow hotalloc — the way's one buffer, only when it cannot be reused; pinned by TestFillAllocs
		kv = make([]byte, keep, (need+7)&^7)
		copy(kv, e.kv[:keep])
	}
	return kv
}

// setVal replaces the entry's value, leaving the key bytes in place.
//
//rwplint:hotpath — every Put overwrite; must stay allocation-free over a buffer that fits
func (e *entry) setVal(val []byte) {
	kv := e.reserve(int(e.klen), int(e.klen)+len(val))
	kv = append(kv, val...)
	e.kv = kv
}

// install writes (key, val) into way: tag, payload and state bits
// together, the only writer of any of them besides a Put overwrite's
// setVal. The set has storage (its caller grew it). The key's bytes are
// copied, so a borrowed key may be passed. Occupancy counts and the
// policy callbacks are the caller's (fill, restoreGroup).
//
//rwplint:hotpath — every fill
func (s *lset) install(way int, key string, tag mem.LineAddr, val []byte, dirty bool) {
	e := &s.entries[way]
	s.tags[way] = tag
	kv := e.reserve(0, len(key)+len(val))
	kv = append(kv, key...)
	kv = append(kv, val...)
	e.kv, e.klen = kv, uint32(len(key))
	e.valid, e.dirty = true, dirty
}

// shard is one lock domain: a contiguous run of sets — whole groups —
// all guarded by mu.
type shard struct {
	mu     sync.Mutex
	sets   []lset
	groups []group // groups[i] is sets[i*G : (i+1)*G]
	// fills tracks in-flight coalesced Loader calls by key (fill.go).
	// Guarded by mu like everything else; nil unless Config.Coalesce.
	// Per shard, not per set: entries are keyed lookups only (never
	// iterated), so the coarser map costs nothing in determinism.
	fills map[string]*fillCall
}

// Cache is the sharded live key-value cache.
type Cache struct {
	cfg      Config
	mask     uint64
	perShard int
	shards   []*shard
	// fresh is a never-used RWP predictor (nil under LRU): what a group
	// without a policy reports to Stats and SnapshotRange. Read-only.
	fresh *core.RWP
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:      cfg,
		mask:     uint64(cfg.Sets - 1),
		perShard: cfg.Sets / cfg.Shards,
		shards:   make([]*shard, cfg.Shards),
	}
	gs := GroupSets(cfg.Sets)
	for si := range c.shards {
		sh := &shard{sets: make([]lset, c.perShard), groups: make([]group, c.perShard/gs)}
		if cfg.Coalesce {
			sh.fills = make(map[string]*fillCall)
		}
		for gi := range sh.groups {
			g := &sh.groups[gi]
			g.sets, g.cfg = sh.sets[gi*gs:(gi+1)*gs], &c.cfg
			for i := range g.sets {
				g.sets[i].grp, g.sets[i].idx = g, i
			}
		}
		c.shards[si] = sh
	}
	if cfg.Policy == "rwp" {
		fresh := &group{sets: make([]lset, gs), cfg: &c.cfg}
		fresh.attach()
		c.fresh = fresh.rwp
	}
	return c, nil
}

// predictor is the RWP state g reports: its own predictor, or the fresh
// one it would get at its first fill. Nil under LRU.
func (c *Cache) predictor(g *group) *core.RWP {
	if g.rwp != nil {
		return g.rwp
	}
	return c.fresh
}

// groupRWPConfig is the configuration a group's predictor runs under:
// cfg with the interval scaled by the group size, because the group's
// clock counts the ops of all its sets and Interval is per set. It is
// also what a simulator cache needs to retarget where a group does.
func groupRWPConfig(cfg core.Config, groupSets int) core.Config {
	cfg.Interval *= uint64(groupSets)
	return cfg
}

// attach gives the group a brand-new policy instance.
func (g *group) attach() {
	switch g.cfg.Policy {
	case "rwp":
		g.rwp = core.New(groupRWPConfig(g.cfg.RWP, len(g.sets)))
		g.pol = g.rwp
	default: // "lru", by Validate
		g.pol = policy.NewLRU()
	}
	g.pol.Attach(g)
}

// grow gives a set its way storage at its first fill, and its group a
// policy at the group's first. Storage is allocated per set, not per
// group: at 16 ways a set's entries take 512 B, the largest size class
// with no malloc header, where a group's 4 KiB array of pointerful
// entries would land in a 4 864 B class.
func (ls *lset) grow() {
	if ls.grp.pol == nil {
		ls.grp.attach()
	}
	ways := ls.grp.cfg.Ways
	ls.tags = make([]mem.LineAddr, ways)
	ls.entries = make([]entry, ways)
}

// initGroup returns one group to its freshly-constructed state — no way
// storage, zero occupancy in every set, no policy — and reports how many
// entries that dropped. Storage and policy are released, not cleared, so
// a purged range costs nothing until it refills. The group's ledger is
// deliberately left untouched — it is cumulative history, and ResetRange
// must not un-count work that happened — and so are the sets' clocks.
func initGroup(g *group) (purged int) {
	for i := range g.sets {
		ls := &g.sets[i]
		purged += ls.validCount
		ls.tags, ls.entries = nil, nil
		ls.validCount, ls.dirtyCount = 0, 0
		// The negative cache is content, not history: a reset set starts
		// cold on both sides (ResetRange's read-your-write rule would be
		// violated by a stale "absent" verdict outliving a purge).
		ls.negs = nil
	}
	g.pol, g.rwp = nil, nil
	return purged
}

// CheckRange reports why the set range [lo, hi) cannot be reset,
// captured or restored (part of proto.RangeBackend): it is out of
// bounds, or it splits a policy group — a group's predictor, clock and
// recency state do not come in halves.
func (c *Cache) CheckRange(lo, hi int) error {
	if lo < 0 || hi > c.cfg.Sets || lo > hi {
		return fmt.Errorf("live: set range [%d,%d) out of bounds (sets %d)", lo, hi, c.cfg.Sets)
	}
	if g := GroupSets(c.cfg.Sets); lo%g != 0 || hi%g != 0 {
		return fmt.Errorf("live: set range [%d,%d) splits a %d-set policy group", lo, hi, g)
	}
	return nil
}

// eachGroup calls fn, under its shard's lock, for every policy group of
// the global range [lo, hi), which the caller has checked holds whole
// groups (CheckRange), in ascending set order: base is the global index
// of the group's first set. Each shard is locked once for all its
// groups in the range.
func (c *Cache) eachGroup(lo, hi int, fn func(g *group, base int)) {
	gs := GroupSets(c.cfg.Sets)
	for si, sh := range c.shards {
		first := si * c.perShard
		from, to := max(lo, first), min(hi, first+c.perShard)
		if from >= to {
			continue
		}
		sh.mu.Lock()
		for gi := (from - first) / gs; gi < (to-first)/gs; gi++ {
			fn(&sh.groups[gi], first+gi*gs)
		}
		sh.mu.Unlock()
	}
}

// ResetRange drops every resident entry in the global sets [lo, hi)
// and releases the range's way storage and policies, returning the
// number of entries purged. Operation counters are preserved (they are
// cumulative history); occupancy and policy state (RWP predictor
// histograms, dirty targets, LRU stacks) restart cold, exactly as at
// construction, and the range holds no memory until it refills.
//
// The cluster layer calls it when a shard replica is (re)added to a
// node: a node that served the shard before and was dropped may hold
// values that missed writes issued in between, so the replica must
// start cold and refill through its Loader — the read-your-write rule
// for replica churn. It panics if the range is out of bounds or splits
// a policy group.
func (c *Cache) ResetRange(lo, hi int) (purged int) {
	if err := c.CheckRange(lo, hi); err != nil {
		panic("live: ResetRange: " + err.Error())
	}
	c.eachGroup(lo, hi, func(g *group, _ int) { purged += initGroup(g) })
	return purged
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Capacity returns the number of entries the cache can hold.
func (c *Cache) Capacity() int { return c.cfg.Sets * c.cfg.Ways }

// locate maps a key hash to its shard and set.
func (c *Cache) locate(h uint64) (*shard, *lset) {
	global := int(h & c.mask)
	sh := c.shards[global/c.perShard]
	return sh, &sh.sets[global%c.perShard]
}

// Get looks up key, returning a copy of the value and whether it was
// resident. On a miss with a Loader configured, the value is fetched —
// with no shard lock held — and installed as a clean fill
// (read-allocate) before returning, so the returned value is non-nil
// but hit is false. If a concurrent writer (or the Loader itself,
// reentrantly) installs the key during the fetch, the resident entry
// wins: the fetched value is returned but not installed, and the event
// is counted as a LoadRace. Single-goroutine runs with a
// non-reentrant Loader never race, so their behavior and counters are
// bit-identical across runs and shard counts.
//
// The miss-with-Loader path is miss (fill.go), with or without the
// stampede defenses (Config.Coalesce / NegOps): they only add a prelude
// in front of the one Loader call, and only collapse genuinely
// concurrent fills, so hit-path cost and single-goroutine behavior are
// untouched.
//
// The copy-out lands in a buffer Get makes with room for getCap bytes.
// Get is small enough to inline, so where its result does not escape
// the caller, that buffer lives in the caller's stack frame: a hit or a
// fill of up to getCap bytes allocates nothing (pinned by
// TestGetHitAllocs), and a longer value grows into one exact-size heap
// slice. Where the result escapes — kept past the call, or Get reached
// through an interface — the buffer is on the heap: a value of up to
// getCap bytes costs one getCap-byte allocation, a longer one two (also
// pinned). Either way the caller owns a private copy, and the value is
// nil iff none was served.
func (c *Cache) Get(key string) (val []byte, hit bool) {
	return c.getInto(make([]byte, 0, getCap), key)
}

// getCap is the room Get's buffer starts with: the value size of every
// synthetic stream and of the live binaries by default
// (loadgen.DefaultValueSize), and one host cache line.
const getCap = 64

// getInto is get behind Get: dst is Get's buffer, and a miss maps to a
// nil value. Kept out of line so Get stays within the inliner's budget
// — Get must inline for its buffer to stay in the caller's frame.
//
//go:noinline
func (c *Cache) getInto(dst []byte, key string) (val []byte, hit bool) {
	val, hit, found := c.get(dst, key, false)
	if !found {
		return nil, false
	}
	return val, hit
}

// GetAppend is Get for callers that bring their own buffers — the wire
// server. The value is appended to dst under the shard lock and the
// extended slice returned; found reports whether a value was appended
// (a hit, or a Loader backfill with hit false). key is only borrowed:
// the cache reads it for the duration of the call and keeps a copy of
// its own wherever it retains the key (see borrowString), so the caller
// may overwrite the bytes as soon as GetAppend returns. A hit into a
// dst with room allocates nothing.
//
//rwplint:hotpath — the wire server's read entry point
func (c *Cache) GetAppend(dst, key []byte) (out []byte, hit, found bool) {
	return c.get(dst, borrowString(key), true)
}

// PutBytes is Put with a borrowed byte key, under GetAppend's lifetime
// rule. An overwrite that fits the entry's buffer allocates nothing.
//
//rwplint:hotpath — the wire server's write entry point
func (c *Cache) PutBytes(key, val []byte) (inserted bool) {
	return c.put(borrowString(key), val, true)
}

// borrowString views b as a string without copying it. The string is
// valid only while b's bytes are unchanged — the current call, for
// GetAppend and PutBytes; the shard lock's hold, for an entry's key. It
// may be hashed, compared, copied into a way's buffer and used as a map
// lookup key; anything that outlives the call (a negs or fills key, the
// Loader argument, a ReqLog event) takes ownedKey's copy instead. This
// is the package's only use of unsafe.
func borrowString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// ownedKey returns key in a form that may be retained: a private copy
// when it is a borrowString view, key itself otherwise.
func ownedKey(key string, borrowed bool) string {
	if borrowed {
		return strings.Clone(key)
	}
	return key
}

// get is the one Get implementation, behind Get (Get's own buffer, key
// owned by the caller's string) and GetAppend (the caller's buffer, key
// borrowed from a request buffer). Every value it serves, hit or fill,
// is appended to dst; found reports whether one was.
//
//rwplint:hotpath — the serving read path; every allocation here is a written-down decision
func (c *Cache) get(dst []byte, key string, borrowed bool) (out []byte, hit, found bool) {
	h := HashKey(key)
	set := int(h & c.mask)
	sh, ls := c.locate(h)
	ai := cache.AccessInfo{Line: mem.LineAddr(h), Class: cache.DemandLoad}
	sh.mu.Lock()
	ls.clock++
	g := ls.grp
	g.ops.Gets++
	if way := ls.find(key, ai.Line); way >= 0 {
		e := &ls.entries[way]
		g.ops.GetHits++
		if e.dirty {
			g.ops.GetHitsDirty++
			g.costs[partDirty][classHit]++
		} else {
			g.ops.GetHitsClean++
			g.costs[partClean][classHit]++
		}
		g.pol.OnHit(ls.idx, way, ai)
		// Copy while the entry is stable, then release before returning:
		// the caller must never see bytes a later Put could overwrite.
		// A dst with room — Get's caller-frame buffer, GetAppend's
		// reused one — makes this copy allocation-free.
		dst = append(dst, e.val()...)
		sh.mu.Unlock()
		c.logGet(key, borrowed, set, probe.OutcomeHit, CostHit)
		return dst, true, true
	}
	g.ops.GetMisses++
	if c.cfg.Loader == nil {
		g.costs[partClean][classMiss]++
		sh.mu.Unlock()
		c.logGet(key, borrowed, set, probe.OutcomeMiss, CostMiss)
		return dst, false, false
	}
	sh.mu.Unlock()
	// The rest of the miss — defenses, the Loader call, the install and
	// its accounting — is miss (fill.go), which takes the lock back
	// itself (no helper ever inherits a held lock across the call
	// boundary). It may retain the key — the Loader, the fills map, negs
	// — so a borrowed key is copied once here, on the path that is about
	// to pay a backend round trip.
	return c.miss(dst, sh, ls, ownedKey(key, borrowed), set, ai)
}

// loaded hands a Loader result back the way get hands back a value:
// appended to the caller's dst, never v itself — the Loader may return
// a slice it shares, and a coalesced leader's v is what its waiters
// copy from. A nil v is a miss.
func loaded(dst, v []byte) (out []byte, hit, found bool) {
	if v == nil {
		return dst, false, false
	}
	return append(dst, v...), false, true
}

// logGet emits one Get capture event; a no-op without a recorder. It
// runs with no shard lock held (the reqlog sink does its own I/O). The
// event outlives the call, so a borrowed key is copied for it.
func (c *Cache) logGet(key string, borrowed bool, set int, outcome string, cost int) {
	if c.cfg.ReqLog != nil {
		c.cfg.ReqLog.ReqEvent(probe.ReqEvent{Key: ownedKey(key, borrowed), Set: set, Outcome: outcome, Cost: cost})
	}
}

// logPut is logGet's Put twin; val is the caller's payload (the sink
// must not retain it).
func (c *Cache) logPut(key string, borrowed bool, val []byte, set int, outcome string, cost int) {
	if c.cfg.ReqLog != nil {
		c.cfg.ReqLog.ReqEvent(probe.ReqEvent{Put: true, Key: ownedKey(key, borrowed), Value: val, Set: set, Outcome: outcome, Cost: cost})
	}
}

// Put stores val under key: a dirty hit when resident (overwrite), a
// dirty fill otherwise (write-allocate). It reports whether the key
// was newly inserted.
func (c *Cache) Put(key string, val []byte) (inserted bool) {
	return c.put(key, val, false)
}

// put is the one Put implementation, behind Put and PutBytes.
//
//rwplint:hotpath — the serving write path; an overwrite must stay allocation-free
func (c *Cache) put(key string, val []byte, borrowed bool) (inserted bool) {
	h := HashKey(key)
	set := int(h & c.mask)
	sh, ls := c.locate(h)
	ai := cache.AccessInfo{Line: mem.LineAddr(h), Class: cache.DemandStore}
	sh.mu.Lock()
	ls.clock++
	g := ls.grp
	g.ops.Puts++
	if way := ls.find(key, ai.Line); way >= 0 {
		e := &ls.entries[way]
		g.ops.PutHits++
		if e.dirty {
			g.ops.PutHitsDirty++
		} else {
			g.ops.PutHitsClean++
			e.dirty = true
			ls.dirtyCount++
		}
		e.setVal(val)
		g.costs[partDirty][classHit]++
		g.pol.OnHit(ls.idx, way, ai)
		sh.mu.Unlock()
		c.logPut(key, borrowed, val, set, probe.OutcomeOverwrite, CostHit)
		return false
	}
	g.ops.PutInserts++
	// A write proves the key exists now: drop any negative-cache entry
	// before the fill installs it (no-op unless NegOps is configured).
	// Neither retains the key: the fill copies its bytes.
	ls.negDelete(key)
	class := classInsert
	if ls.fill(key, val, ai, true) {
		class = classInsertEvict
	}
	g.costs[partDirty][class]++
	sh.mu.Unlock()
	c.logPut(key, borrowed, val, set, probe.OutcomeInsert, classCost[class])
	return true
}

// fill installs (key, val) into the set under tag ai.Line, evicting the
// policy's victim if the set is full; the key and value are copied into
// the victim way's buffer where install can reuse it. A set's first fill
// grows its storage first, outside this function's allocation rule.
// Called with the shard lock held. It reports whether the fill evicted a
// dirty entry — the cost model's writeback surcharge trigger.
//
//rwplint:hotpath — every Loader fill and Put insert; allocation-free over a victim whose buffer fits
func (ls *lset) fill(key string, val []byte, ai cache.AccessInfo, dirty bool) (evictedDirty bool) {
	if ls.entries == nil {
		ls.grow()
	}
	// Neither LRU nor RWP ever asks to bypass a fill.
	g, pol := ls.grp, ls.grp.pol
	way, _ := pol.Victim(ls.idx, ai)
	e := &ls.entries[way]
	if e.valid {
		g.ops.Evictions++
		if e.dirty {
			evictedDirty = true
			g.ops.DirtyEvictions++
			ls.dirtyCount--
		}
		pol.OnEvict(ls.idx, way, ai)
	} else {
		ls.validCount++
	}
	ls.install(way, key, ai.Line, val, dirty)
	g.ops.Fills++
	if dirty {
		ls.dirtyCount++
		g.ops.FillsDirty++
	}
	pol.OnFill(ls.idx, way, ai)
	return evictedDirty
}

// HashKey is the deterministic 64-bit key hash used for set selection
// and as the policy-visible line identity: FNV-1a with a SplitMix64
// finalizer so the low bits (the set index) are well mixed.
//
//rwplint:hotpath — hashed once per operation; pure arithmetic, zero allocations
func HashKey(key string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 0x100000001b3
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ (h >> 31)
}
