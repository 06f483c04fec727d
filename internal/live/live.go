// Package live is a thread-safe, set-associative in-memory
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
// Locking vs determinism. The unit of replacement is the *set* and the
// unit of RWP's predictor is the *group*: GroupSets consecutive sets
// share one policy instance (one sampled set's shadow stacks, the
// histograms, the dirty-partition target) whose interval clock is the
// group's own operation count — never the wall clock, never a global
// counter. No state is shared across groups, so each group is its own
// lock domain: one mutex guards its sets, its policy and its ledger. A
// key maps to a global set index by hash, and the group size is a
// function of Sets alone, so a single-goroutine run is bit-identical
// across repeated runs. Under concurrent load the group locks serialize
// each set's stream, so all structural invariants hold (stress-tested
// with -race); only the interleaving — and therefore the exact counter
// values — is scheduling-dependent, as for any concurrent cache.
//
// Accounting is one ledger per group: an operation writes its group's
// Counters block and charges one cell of the group's cost table, under
// the group lock, and nothing else. Every reported view — Stats, the
// stats document, merged cluster documents, snapshots — is derived from
// those per-group sums when somebody reads, so all of them are
// order-independent.
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
// It is called with no lock held — a slow backing store stalls only
// the Gets that actually miss, never the whole group — so a Loader may
// itself call back into the cache (e.g. warm a sibling key). If
// another writer installs the key while the Loader runs, the
// fetched value is still returned but not installed (see Get and the
// LoadRaces counter).
type Loader func(key string) []byte

// Config parameterizes a live cache.
type Config struct {
	// Sets is the total number of sets (a power of two; capacity =
	// Sets*Ways entries).
	Sets int
	// Ways is the associativity of every set.
	Ways int
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
	// Events are emitted with no lock held, after the operation's
	// outcome is decided; batch ops (MGET/MPUT) arrive decomposed into
	// per-key events, which is what makes recorded journals
	// transport-invariant. The sink must not retain event values.
	ReqLog probe.ReqProbe
	// Coalesce enables singleflight fill coalescing (fill.go): when
	// several Gets miss on one key concurrently, exactly one calls the
	// Loader and the rest wait for its result (counted CoalescedLoads).
	// Coalescing only collapses genuinely concurrent fills, so
	// single-goroutine behavior — and its bit-identity across runs — is
	// unchanged. Requires a Loader to matter.
	Coalesce bool
	// NegOps enables negative caching of Loader misses: a key the
	// Loader reported absent (nil) is remembered for NegOps operations
	// on its set (the set's own op-count clock, never wall clock), and
	// Gets inside that window are answered without consulting the
	// backend (counted NegHits). A Put of the key invalidates the entry
	// immediately. 0 disables; the clock choice keeps expiry
	// deterministic.
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
// bit — set-level state — so cost streams are deterministic, and they
// encode the paper's asymmetry: a read
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
// count: a function of Sets alone. A group is also the cache's lock
// domain, and cluster ring ranges must hold whole groups.
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

// DefaultConfig returns a 16k-entry RWP cache.
func DefaultConfig() Config {
	return Config{
		Sets:   1024,
		Ways:   16,
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
// buffer, kv[:klen] the key and kv[klen:] the value. Everything else
// about the way — its tag (the key hash), valid and dirty bits, its
// place in the policy's state — is in the group's tag store. A way the
// store holds invalid keeps its buffer for the next fill.
type entry struct {
	kv   []byte
	klen uint32
}

// key views the entry's key bytes as a string: valid only while the
// group lock is held and the way is not rewritten.
func (e *entry) key() string { return borrowString(e.kv[:e.klen]) }

// val is the entry's value bytes, under the same rule as key: a reader
// copies them out before releasing the group lock.
func (e *entry) val() []byte { return e.kv[e.klen:] }

// lset is one cache set: the payloads of its ways, and what a tag
// store cannot hold. Its tags, state bits, occupancy counts and
// replacement policy are set idx of its group's tag store, and its
// ledger is the group's.
//
// A set owns no payload storage until its first fill (grow): a set no
// key ever reaches costs its lset and nothing more, so a cluster node's
// memory follows the ring ranges it serves.
type lset struct {
	// entries is nil until the set's first fill and again after a reset,
	// and Ways long otherwise.
	entries []entry
	grp     *group
	idx     int
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

// group is GroupSets consecutive sets and the one tag store they
// share: a GroupSets-set cache.Cache, the simulator's, whose line is a
// key's HashKey. Its set index (the hash's low bits) is a set's index in
// the group, and its policy is the group's: core.RWP with SamplerSets 1
// shadows set 0. A group is a lock domain: mu guards everything below
// and the sets' own state.
type group struct {
	mu   sync.Mutex
	sets []lset  // a window of the cache's sets
	cfg  *Config // the cache's; the group's geometry and policy choice
	// tags is nil until the first fill into any of the group's sets: a
	// Get that misses without filling calls no policy method, so a tag
	// store built at the first fill is the one New would have built.
	tags *cache.Cache
	rwp  *core.RWP // the policy of tags under rwp, else nil
	// ops and costs are the group's ledger — all an operation writes
	// besides the entries themselves: ops once per event, costs one cell
	// per completed Get/Put. A group never spans a cluster ring range,
	// so StatsRange attributes them to ring-shard set ranges exactly.
	// Both are cumulative history: ResetRange preserves them, ResetStats
	// clears them.
	ops   Counters
	costs costTable
	// fills tracks in-flight coalesced Loader calls by key (fill.go).
	// Nil unless Config.Coalesce. Per group, not per set: entries are
	// keyed lookups only (never iterated), so the coarser map costs
	// nothing in determinism.
	fills map[string]*fillCall
}

// find returns the way holding line, or -1, and whether the key there
// is key. line is HashKey(key), which the caller already computed to
// pick the set. The tag store finds the one way holding line, and the
// key there decides: a key whose full 64-bit hash equals a resident
// key's misses, and fill evicts that way.
func (s *lset) find(key string, line mem.LineAddr) (way int, match bool) {
	if t := s.grp.tags; t != nil {
		if _, w, ok := t.Lookup(line); ok {
			return w, s.entries[w].key() == key
		}
	}
	return -1, false
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

// zeros is what reserve grows a fresh buffer from: an append to nil gets
// the allocation's whole size class as capacity, free room for a key or
// value a few bytes longer later. A make gets only the bytes asked for,
// and an append of a make allocates twice under -race. Past 32 KiB, the
// largest size class, a make serves.
var zeros [32 << 10]byte

// reserve returns the way's buffer cut to its first keep bytes, with
// room for need bytes in all: kv itself when it fits without hoarding,
// otherwise a fresh allocation holding a copy of those keep bytes.
// Reuse is safe because nobody outside the group lock holds kv — every
// reader of an entry (get, miss's coalesced join, snapSet) copies the
// bytes out under the lock.
func (e *entry) reserve(keep, need int) []byte {
	kv := e.kv[:keep]
	if cap(kv) < need || cap(kv) > max(retainFactor*need, retainMin) {
		if need <= len(zeros) {
			kv = append([]byte(nil), zeros[:need]...)[:keep]
		} else {
			kv = make([]byte, keep, need)
		}
		copy(kv, e.kv[:keep])
	}
	return kv
}

// setVal replaces the entry's value, leaving the key bytes in place.
func (e *entry) setVal(val []byte) {
	kv := e.reserve(int(e.klen), int(e.klen)+len(val))
	kv = append(kv, val...)
	e.kv = kv
}

// install writes (key, val) into the way's payload, the only writer of
// it besides a Put overwrite's setVal; the tag store's fill (fill,
// restoreSet) has just given the way its tag. The key's bytes are
// copied, so a borrowed key may be passed.
func (e *entry) install(key string, val []byte) {
	kv := e.reserve(0, len(key)+len(val))
	kv = append(kv, key...)
	kv = append(kv, val...)
	e.kv, e.klen = kv, uint32(len(key))
}

// Cache is the live key-value cache.
type Cache struct {
	cfg    Config
	mask   uint64
	sets   []lset
	groups []group // groups[i] is sets[i*G : (i+1)*G]
	// fresh is a never-used RWP predictor (nil under LRU): what a group
	// without a policy reports to Stats and SnapshotRange. Read-only.
	fresh *core.RWP
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gs := GroupSets(cfg.Sets)
	c := &Cache{
		cfg:    cfg,
		mask:   uint64(cfg.Sets - 1),
		sets:   make([]lset, cfg.Sets),
		groups: make([]group, cfg.Sets/gs),
	}
	for gi := range c.groups {
		g := &c.groups[gi]
		g.sets, g.cfg = c.sets[gi*gs:(gi+1)*gs], &c.cfg
		if cfg.Coalesce {
			g.fills = make(map[string]*fillCall)
		}
		for i := range g.sets {
			g.sets[i].grp, g.sets[i].idx = g, i
		}
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

// attach gives the group a brand-new tag store and policy instance.
func (g *group) attach() {
	var pol cache.Policy
	switch g.cfg.Policy {
	case "rwp":
		g.rwp = core.New(groupRWPConfig(g.cfg.RWP, len(g.sets)))
		pol = g.rwp
	default: // "lru", by Validate
		pol = policy.NewLRU()
	}
	// One line per key hash: the line size is 1.
	tags, err := cache.New(cache.Config{Name: "live", SizeBytes: len(g.sets) * g.cfg.Ways, Ways: g.cfg.Ways, LineSize: 1}, pol)
	if err != nil {
		panic("live: group tag store: " + err.Error()) // Validate admits only valid geometries
	}
	g.tags = tags
}

// grow gives a set its payload storage at its first fill, and its group
// a tag store at the group's first. Payloads are allocated per set, not
// per group: at 16 ways a set's entries take 512 B, the largest size
// class with no malloc header, where a group's 4 KiB array of pointerful
// entries would land in a 4 864 B class.
func (ls *lset) grow() {
	if ls.grp.tags == nil {
		ls.grp.attach()
	}
	ls.entries = make([]entry, ls.grp.cfg.Ways)
}

// initGroup returns one group to its freshly-constructed state — no
// payload storage, no tag store, no policy — and reports how many
// entries that dropped. Storage is released, not cleared, so a purged
// range costs nothing until it refills. The group's ledger is
// deliberately left untouched — it is cumulative history, and ResetRange
// must not un-count work that happened — and so are the sets' clocks.
func initGroup(g *group) (purged int) {
	if g.tags != nil {
		purged = g.tags.TotalValid()
	}
	for i := range g.sets {
		// The negative cache is content, not history: a reset set starts
		// cold on both sides (ResetRange's read-your-write rule would be
		// violated by a stale "absent" verdict outliving a purge).
		g.sets[i].entries, g.sets[i].negs = nil, nil
	}
	g.tags, g.rwp = nil, nil
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

// eachGroup calls fn, under the group's lock, for every policy group of
// the global range [lo, hi), which the caller has checked holds whole
// groups (CheckRange), in ascending set order: base is the global index
// of the group's first set.
func (c *Cache) eachGroup(lo, hi int, fn func(g *group, base int)) {
	gs := GroupSets(c.cfg.Sets)
	for base := lo; base < hi; base += gs {
		g := &c.groups[base/gs]
		g.mu.Lock()
		fn(g, base)
		g.mu.Unlock()
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

// locate maps a key hash to its set.
func (c *Cache) locate(h uint64) *lset { return &c.sets[h&c.mask] }

// Get looks up key, returning a copy of the value and whether it was
// resident. On a miss with a Loader configured, the value is fetched —
// with no lock held — and installed as a clean fill
// (read-allocate) before returning, so the returned value is non-nil
// but hit is false. If a concurrent writer (or the Loader itself,
// reentrantly) installs the key during the fetch, the resident entry
// wins: the fetched value is returned but not installed, and the event
// is counted as a LoadRace. Single-goroutine runs with a
// non-reentrant Loader never race, so their behavior and counters are
// bit-identical across runs.
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
// server. The value is appended to dst under the group lock and the
// extended slice returned; found reports whether a value was appended
// (a hit, or a Loader backfill with hit false). key is only borrowed:
// the cache reads it for the duration of the call and keeps a copy of
// its own wherever it retains the key (see borrowString), so the caller
// may overwrite the bytes as soon as GetAppend returns. A hit into a
// dst with room allocates nothing.
func (c *Cache) GetAppend(dst, key []byte) (out []byte, hit, found bool) {
	return c.get(dst, borrowString(key), true)
}

// PutBytes is Put with a borrowed byte key, under GetAppend's lifetime
// rule. An overwrite that fits the entry's buffer allocates nothing.
func (c *Cache) PutBytes(key, val []byte) (inserted bool) {
	return c.put(borrowString(key), val, true)
}

// borrowString views b as a string without copying it. The string is
// valid only while b's bytes are unchanged — the current call, for
// GetAppend and PutBytes; the group lock's hold, for an entry's key. It
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
func (c *Cache) get(dst []byte, key string, borrowed bool) (out []byte, hit, found bool) {
	h := HashKey(key)
	set := int(h & c.mask)
	ls := c.locate(h)
	ai := cache.AccessInfo{Line: mem.LineAddr(h), Class: cache.DemandLoad}
	g := ls.grp
	g.mu.Lock()
	ls.clock++
	g.ops.Gets++
	if way, ok := ls.find(key, ai.Line); ok {
		g.ops.GetHits++
		if g.tags.Hit(ls.idx, way, ai) {
			g.ops.GetHitsDirty++
			g.costs[partDirty][classHit]++
		} else {
			g.ops.GetHitsClean++
			g.costs[partClean][classHit]++
		}
		// Copy while the entry is stable, then release before returning:
		// the caller must never see bytes a later Put could overwrite.
		// A dst with room — Get's caller-frame buffer, GetAppend's
		// reused one — makes this copy allocation-free.
		dst = append(dst, ls.entries[way].val()...)
		g.mu.Unlock()
		c.logGet(key, borrowed, set, probe.OutcomeHit, CostHit)
		return dst, true, true
	}
	g.ops.GetMisses++
	if c.cfg.Loader == nil {
		g.costs[partClean][classMiss]++
		g.mu.Unlock()
		c.logGet(key, borrowed, set, probe.OutcomeMiss, CostMiss)
		return dst, false, false
	}
	g.mu.Unlock()
	// The rest of the miss — defenses, the Loader call, the install and
	// its accounting — is miss (fill.go), which takes the lock back
	// itself (no helper ever inherits a held lock across the call
	// boundary). It may retain the key — the Loader, the fills map, negs
	// — so a borrowed key is copied once here, on the path that is about
	// to pay a backend round trip.
	return c.miss(dst, ls, ownedKey(key, borrowed), set, ai)
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
// runs with no lock held (the reqlog sink does its own I/O). The
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
func (c *Cache) put(key string, val []byte, borrowed bool) (inserted bool) {
	h := HashKey(key)
	set := int(h & c.mask)
	ls := c.locate(h)
	ai := cache.AccessInfo{Line: mem.LineAddr(h), Class: cache.DemandStore}
	g := ls.grp
	g.mu.Lock()
	ls.clock++
	g.ops.Puts++
	way, ok := ls.find(key, ai.Line)
	if ok {
		g.ops.PutHits++
		if g.tags.Hit(ls.idx, way, ai) {
			g.ops.PutHitsDirty++
		} else {
			g.ops.PutHitsClean++
		}
		ls.entries[way].setVal(val)
		g.costs[partDirty][classHit]++
		g.mu.Unlock()
		c.logPut(key, borrowed, val, set, probe.OutcomeOverwrite, CostHit)
		return false
	}
	g.ops.PutInserts++
	// A write proves the key exists now: drop any negative-cache entry
	// before the fill installs it (no-op unless NegOps is configured).
	// Neither retains the key: the fill copies its bytes.
	ls.negDelete(key)
	class := classInsert
	if ls.fill(key, val, way, ai) {
		class = classInsertEvict
	}
	g.costs[partDirty][class]++
	g.mu.Unlock()
	c.logPut(key, borrowed, val, set, probe.OutcomeInsert, classCost[class])
	return true
}

// fill installs (key, val) into the set under line ai.Line, clean for
// a Get (DemandLoad) and dirty for a Put (DemandStore), through the tag
// store's fill half: the policy's victim is evicted, and the key and
// value are copied into the victim way's buffer where install can reuse
// it. same is the way find reported holding ai.Line under another key,
// or -1. A set's first fill grows its storage first, outside this
// function's allocation rule. Called with the group lock held. It
// reports whether the fill evicted a dirty entry — the cost model's
// writeback surcharge trigger.
func (ls *lset) fill(key string, val []byte, same int, ai cache.AccessInfo) (evictedDirty bool) {
	if ls.entries == nil {
		ls.grow()
	}
	g := ls.grp
	// A full 64-bit hash collision: the line is resident under another
	// key. That key goes first, as an eviction, so no two valid ways ever
	// share a tag.
	if same >= 0 {
		g.ops.Evictions++
		if g.tags.Invalidate(ls.idx, same) {
			evictedDirty = true
			g.ops.DirtyEvictions++
		}
	}
	// Neither LRU nor RWP ever asks to bypass a fill.
	way, res := g.tags.Fill(ls.idx, ai)
	if res.Evicted {
		g.ops.Evictions++
		if res.Writeback {
			evictedDirty = true
			g.ops.DirtyEvictions++
		}
	}
	ls.entries[way].install(key, val)
	g.ops.Fills++
	if ai.Class == cache.DemandStore {
		g.ops.FillsDirty++
	}
	return evictedDirty
}

// HashKey is the deterministic 64-bit key hash used for set selection
// and as the policy-visible line identity: FNV-1a with a SplitMix64
// finalizer so the low bits (the set index) are well mixed.
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
