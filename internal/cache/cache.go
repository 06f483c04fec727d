// Package cache implements the set-associative, write-back, write-allocate
// cache model at the heart of the simulator, together with the replacement
// policy hook interface that every mechanism in this repo (LRU, DIP,
// DRRIP, SHiP, UCP, RWP, RRP) plugs into.
//
// The model is a tag store only: no data is carried, as in trace-driven
// LLC studies (CMP$im and successors). Accesses are classified as demand
// loads, demand stores, or writebacks arriving from an upper level; the
// distinction matters because the paper's whole premise is that lines that
// serve loads are critical while lines that only absorb writes are not.
//
// The same tag store serves the live key-value cache (internal/live):
// each of its policy groups owns one Cache whose line is a key's hash,
// calls Lookup, then Hit or Fill — the halves Access is made of — and
// keeps the payloads beside it.
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"rwp/internal/mem"
	"rwp/internal/recency"
)

// Class is the kind of request arriving at a cache level.
type Class uint8

const (
	// DemandLoad is a read that a core is waiting on.
	DemandLoad Class = iota
	// DemandStore is a write-allocate fill triggered by a store.
	DemandStore
	// Writeback is a dirty eviction arriving from the level above; it is
	// never on the critical path.
	Writeback
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case DemandLoad:
		return "load"
	case DemandStore:
		return "store"
	case Writeback:
		return "writeback"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// IsRead reports whether the access reads the line's data (only demand
// loads do).
func (c Class) IsRead() bool { return c == DemandLoad }

// IsWrite reports whether the access dirties the line.
func (c Class) IsWrite() bool { return c == DemandStore || c == Writeback }

// AccessInfo carries everything a replacement policy may condition on.
type AccessInfo struct {
	// Line is the line address being accessed.
	Line mem.LineAddr
	// PC is the program counter of the triggering instruction (zero for
	// writebacks, which have no single PC).
	PC mem.Addr
	// Class is the request class.
	Class Class
	// Core identifies the requesting core in shared caches (0 for
	// single-core runs and for writebacks tagged by their owner).
	Core int
}

// LineState is the externally visible state of one way: what the tag
// store itself must hold to serve a lookup and a dirty eviction. State a
// policy conditions on beyond that is the policy's own, kept per way in
// its own arrays (RRP's fill signatures, UCP's owner cores), so a level
// pays for it only under the policy that reads it.
type LineState struct {
	Tag   mem.LineAddr
	Valid bool
	Dirty bool
}

// StateReader gives policies read access to the tag store they manage.
type StateReader interface {
	// NumSets returns the number of sets.
	NumSets() int
	// Ways returns the associativity.
	Ways() int
	// State returns the state of the given way.
	State(set, way int) LineState
	// ValidWays returns the number of valid lines in set (O(1)).
	ValidWays(set int) int
	// DirtyWays returns the number of valid dirty lines in set (O(1)).
	DirtyWays(set int) int
	// InvalidWay returns the lowest-numbered invalid way of set, or -1
	// when the set is full (O(1) once a set is warm). It is the fill
	// target every policy prefers over evicting a valid line.
	InvalidWay(set int) int
}

// Policy is the replacement/insertion/bypass mechanism of a cache.
//
// The cache calls exactly one of OnHit or (Victim, then OnFill) per
// access; OnEvict runs before OnFill when the victim way held a valid
// line. A policy that returns bypass=true from Victim sees neither
// OnEvict nor OnFill for that access.
type Policy interface {
	// Name returns a short identifier used in reports.
	Name() string
	// Attach hands the policy its cache's geometry and state view. It is
	// called exactly once, before any other method.
	Attach(r StateReader)
	// OnHit is invoked when ai hits way in set.
	OnHit(set, way int, ai AccessInfo)
	// Victim picks the way to evict for a fill of ai into set, or
	// requests a bypass (the line is not cached). Invalid ways should be
	// preferred by every sane policy; the cache does not enforce it.
	Victim(set int, ai AccessInfo) (way int, bypass bool)
	// OnEvict is invoked when the valid line in the given way is about to
	// be replaced (or invalidated).
	OnEvict(set, way int, ai AccessInfo)
	// OnFill is invoked after ai's line has been installed in way.
	OnFill(set, way int, ai AccessInfo)
}

// Stats counts cache events. Hits+Misses per class always equals the
// class's access count; Misses-Bypasses per class is the class's fills,
// and Fills sums them. The dirty splits are the paper's evidence: how
// demand reads divide between the clean and the dirty partition.
type Stats struct {
	Accesses   [3]uint64 // indexed by Class
	Hits       [3]uint64
	Misses     [3]uint64
	Fills      uint64
	Bypasses   [3]uint64
	Evictions  uint64
	DirtyEvict uint64    // evictions that produced a writeback to below
	HitsDirty  [3]uint64 // hits on a line that was dirty before the access
	FillsDirty [3]uint64 // fills that installed the line dirty
}

// ReadMisses returns demand-load misses — the quantity RWP minimizes.
func (s Stats) ReadMisses() uint64 { return s.Misses[DemandLoad] }

// ReadAccesses returns demand-load accesses.
func (s Stats) ReadAccesses() uint64 { return s.Accesses[DemandLoad] }

// TotalAccesses sums accesses over all classes.
func (s Stats) TotalAccesses() uint64 {
	return s.Accesses[DemandLoad] + s.Accesses[DemandStore] + s.Accesses[Writeback]
}

// TotalMisses sums misses over all classes.
func (s Stats) TotalMisses() uint64 {
	return s.Misses[DemandLoad] + s.Misses[DemandStore] + s.Misses[Writeback]
}

// TotalHits sums hits over all classes.
func (s Stats) TotalHits() uint64 {
	return s.Hits[DemandLoad] + s.Hits[DemandStore] + s.Hits[Writeback]
}

// TotalBypasses sums bypasses over all classes.
func (s Stats) TotalBypasses() uint64 {
	return s.Bypasses[DemandLoad] + s.Bypasses[DemandStore] + s.Bypasses[Writeback]
}

// MissRatio returns misses/accesses for the given class (0 if no accesses).
func (s Stats) MissRatio(c Class) float64 {
	if s.Accesses[c] == 0 {
		return 0
	}
	return float64(s.Misses[c]) / float64(s.Accesses[c])
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	for i := 0; i < 3; i++ {
		s.Accesses[i] += o.Accesses[i]
		s.Hits[i] += o.Hits[i]
		s.Misses[i] += o.Misses[i]
		s.Bypasses[i] += o.Bypasses[i]
		s.HitsDirty[i] += o.HitsDirty[i]
		s.FillsDirty[i] += o.FillsDirty[i]
	}
	s.Fills += o.Fills
	s.Evictions += o.Evictions
	s.DirtyEvict += o.DirtyEvict
}

// Config describes a cache level.
type Config struct {
	// Name labels the level in reports ("L1D", "LLC", ...).
	Name string
	// SizeBytes is the total capacity; must be Ways*LineSize*2^k.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LineSize is the block size in bytes; must be a power of two.
	LineSize int
	// StoreFillsClean selects lower-level semantics for demand stores:
	// the store's data is absorbed by the level above (an RFO), so a
	// DemandStore here neither dirties on hit nor fills dirty — the
	// modified data arrives later as a Writeback. False (the zero value)
	// is first-level semantics: stores write this cache directly.
	StoreFillsClean bool
	// CarryWritebackPC keeps, per way, the PC that filled or last wrote
	// the line, and reports it with the line's dirty eviction
	// (Result.WritebackPC). Only a level whose dirty victims go to
	// another cache level needs it: there the PC indexes the lower
	// level's PC-based predictors (RRP, SHiP) on the writeback — the
	// plumbing that makes RRP "complex" in the paper's terms. hier.New
	// sets it on the private levels; a level whose victims go to memory
	// leaves it off and stores no PCs (8 of a way's 17 bytes).
	CarryWritebackPC bool
}

// Sets returns the number of sets implied by the config.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineSize) }

// Validate checks the config for internal consistency.
func (c Config) Validate() error {
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways %d must be positive", c.Name, c.Ways)
	}
	if c.Ways > recency.MaxWays {
		return fmt.Errorf("cache %s: ways %d exceeds the supported maximum %d", c.Name, c.Ways, recency.MaxWays)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size %d must be a positive power of two", c.Name, c.LineSize)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.Ways*c.LineSize) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by ways*line (%d)", c.Name, c.SizeBytes, c.Ways*c.LineSize)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets is not a power of two", c.Name, sets)
	}
	return nil
}

// Result reports what an access did.
type Result struct {
	// Hit is true if the line was present.
	Hit bool
	// Bypassed is true if the policy declined to cache a missing line.
	Bypassed bool
	// WritebackLine holds the evicted dirty line when Writeback is true;
	// the caller (hierarchy) forwards it to the level below.
	WritebackLine mem.LineAddr
	// WritebackPC is the PC that filled or last wrote the evicted dirty
	// line when the level has Config.CarryWritebackPC, zero otherwise.
	WritebackPC mem.Addr
	// Writeback is true when the fill evicted a dirty line.
	Writeback bool
	// Evicted is true when the fill replaced a valid line, dirty or not.
	Evicted bool
}

// Per-way flag bits of the packed tag store. Bits 2–7 of a valid way's
// flags hold its tag's fingerprint (Cache.fingerprint).
const (
	flagValid uint8 = 1 << iota
	flagDirty
)

// Constants of Lookup's word-at-a-time flag scan: a byte broadcast, the
// dirty bit of every byte, and the multiplier of the fingerprint hash.
const (
	flagLanes  = 0x0101010101010101
	dirtyLanes = uint64(flagDirty) * flagLanes
	fpMul      = 0x9e3779b97f4a7c15
)

// Cache is a single tag-store level. The ways are stored as parallel
// arrays (sets*ways, row-major by set) so the lookup scan touches
// nothing but flags and, where a fingerprint matches, tags; see
// DESIGN.md "Simulator data layout". A way costs 9 bytes (tag and
// flags), plus 8 for its PC in a level with Config.CarryWritebackPC.
type Cache struct {
	cfg     Config
	shift   uint
	mask    uint64
	setBits uint           // log2(sets): the tag bits above them feed the fingerprint
	tags    []mem.LineAddr // zero for an invalid way
	// flags holds fingerprint|flagDirty|flagValid per way, zero for an
	// invalid way. When ways is not a multiple of 8 it runs on past the
	// last set to the end of that set's last word, so Lookup reads every
	// set in whole words.
	flags []uint8
	// pcs holds the PC that filled or last wrote each valid way; nil
	// unless Config.CarryWritebackPC. It is read only when a dirty line
	// is evicted, never by Lookup.
	pcs    []mem.Addr
	valid  []int16 // per-set valid-line count
	dirty  []int16 // per-set dirty-line count
	policy Policy
	stats  Stats
}

// New builds a cache with the given geometry and policy. The policy is
// attached before New returns.
func New(cfg Config, p Policy) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("cache %s: nil policy", cfg.Name)
	}
	shift := uint(0)
	for 1<<shift != cfg.LineSize {
		shift++
	}
	lines := cfg.Sets() * cfg.Ways
	c := &Cache{
		cfg:     cfg,
		shift:   shift,
		mask:    uint64(cfg.Sets() - 1),
		setBits: uint(bits.TrailingZeros(uint(cfg.Sets()))),
		tags:    make([]mem.LineAddr, lines),
		flags:   make([]uint8, lines+(8-cfg.Ways%8)%8),
		valid:   make([]int16, cfg.Sets()),
		dirty:   make([]int16, cfg.Sets()),
	}
	if cfg.CarryWritebackPC {
		c.pcs = make([]mem.Addr, lines)
	}
	c.policy = p
	p.Attach(c)
	return c, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineShift returns log2(line size).
func (c *Cache) LineShift() uint { return c.shift }

// NumSets implements StateReader.
func (c *Cache) NumSets() int { return int(c.mask) + 1 }

// Ways implements StateReader.
func (c *Cache) Ways() int { return c.cfg.Ways }

// State implements StateReader, rebuilding the way's LineState from the
// parallel arrays.
func (c *Cache) State(set, way int) LineState {
	i := set*c.cfg.Ways + way
	f := c.flags[i]
	return LineState{Tag: c.tags[i], Valid: f&flagValid != 0, Dirty: f&flagDirty != 0}
}

// Stats returns a copy of the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }

// Policy returns the attached policy.
func (c *Cache) Policy() Policy { return c.policy }

// TotalDirty returns the number of valid dirty lines across all sets —
// the dirty partition's actual occupancy (O(sets), for interval
// snapshots).
func (c *Cache) TotalDirty() int {
	n := 0
	for _, d := range c.dirty {
		n += int(d)
	}
	return n
}

// TotalValid returns the number of valid lines across all sets.
func (c *Cache) TotalValid() int {
	n := 0
	for _, v := range c.valid {
		n += int(v)
	}
	return n
}

// SetIndex maps a line address to its set.
func (c *Cache) SetIndex(line mem.LineAddr) int { return int(uint64(line) & c.mask) }

// fingerprint returns line's fingerprint in flag bits 2–7: the top six
// bits of a multiplicative hash of the tag bits above the set index.
func (c *Cache) fingerprint(line mem.LineAddr) uint8 {
	return uint8((uint64(line)>>c.setBits)*fpMul>>56) &^ (flagValid | flagDirty)
}

// Lookup reports whether line is present, without updating any state.
// The scan compares eight flag bytes at a time, dirty bits masked, with
// line's fingerprint|flagValid, and loads a tag only where a byte
// matched. An invalid way's flags are zero and never match, which also
// keeps line 0 from hitting an invalid way's zero tag.
func (c *Cache) Lookup(line mem.LineAddr) (set, way int, ok bool) {
	set = c.SetIndex(line)
	ways := c.cfg.Ways
	base := set * ways
	pat := uint64(c.fingerprint(line)|flagValid) * flagLanes
	flags := c.flags[base:]
	for i := 0; i < ways; i += 8 {
		z := recency.ZeroBytes(binary.LittleEndian.Uint64(flags[i:])&^dirtyLanes ^ pat)
		if n := ways - i; n < 8 {
			z &= 1<<(8*n) - 1 // the next set's bytes, or slack
		}
		for ; z != 0; z &= z - 1 {
			if w := i + bits.TrailingZeros64(z)>>3; c.tags[base+w] == line {
				return set, w, true
			}
		}
	}
	return set, -1, false
}

// Access performs one reference of the given class against the cache,
// applying write-allocate on demand-store misses and allocate-on-writeback
// for writeback misses (non-inclusive victim-style handling: a writeback
// that misses is installed dirty). It is Lookup, then Hit or Fill.
func (c *Cache) Access(line mem.LineAddr, pc mem.Addr, class Class, core int) Result {
	ai := AccessInfo{Line: line, PC: pc, Class: class, Core: core}
	set, way, ok := c.Lookup(line)
	if ok {
		c.Hit(set, way, ai)
		return Result{Hit: true}
	}
	_, res := c.Fill(set, ai)
	return res
}

// dirtying reports whether an access of class writes the line here.
func (c *Cache) dirtying(class Class) bool {
	return class == Writeback || (class == DemandStore && !c.cfg.StoreFillsClean)
}

// Hit is Access's hit half: ai hits way of set, where Lookup found
// ai.Line. It counts the hit, dirties the way if ai writes it, and
// tells the policy. It reports whether the way was dirty before.
func (c *Cache) Hit(set, way int, ai AccessInfo) (wasDirty bool) {
	c.stats.Accesses[ai.Class]++
	c.stats.Hits[ai.Class]++
	i := set*c.cfg.Ways + way
	dirtying := c.dirtying(ai.Class)
	if c.flags[i]&flagDirty != 0 {
		wasDirty = true
		c.stats.HitsDirty[ai.Class]++
	} else if dirtying {
		c.dirty[set]++
		c.flags[i] |= flagDirty
	}
	if dirtying && c.pcs != nil {
		c.pcs[i] = ai.PC
	}
	c.policy.OnHit(set, way, ai)
	return wasDirty
}

// Fill is Access's miss half: ai.Line misses in set, where Lookup did
// not find it. It counts the miss and installs the line in the way the
// policy picks, evicting the line there. It returns that way, or -1 if
// the policy bypassed.
func (c *Cache) Fill(set int, ai AccessInfo) (way int, res Result) {
	c.stats.Accesses[ai.Class]++
	c.stats.Misses[ai.Class]++
	victim, bypass := c.policy.Victim(set, ai)
	if bypass {
		c.stats.Bypasses[ai.Class]++
		return -1, Result{Bypassed: true}
	}
	if victim < 0 || victim >= c.cfg.Ways {
		c.badVictim(victim)
	}
	i := set*c.cfg.Ways + victim
	if old := c.flags[i]; old&flagValid != 0 {
		res.Evicted = true
		c.stats.Evictions++
		if old&flagDirty != 0 {
			c.stats.DirtyEvict++
			c.dirty[set]--
			res.Writeback = true
			res.WritebackLine = c.tags[i]
			if c.pcs != nil {
				res.WritebackPC = c.pcs[i]
			}
		}
		c.policy.OnEvict(set, victim, ai)
	} else {
		c.valid[set]++
	}
	c.tags[i] = ai.Line
	if c.pcs != nil {
		c.pcs[i] = ai.PC
	}
	c.flags[i] = c.fingerprint(ai.Line) | flagValid
	if c.dirtying(ai.Class) {
		c.flags[i] |= flagDirty
		c.dirty[set]++
		c.stats.FillsDirty[ai.Class]++
	}
	c.stats.Fills++
	c.policy.OnFill(set, victim, ai)
	return victim, res
}

// badVictim is Access's crash path, kept out of line so the hot function
// carries no formatting code.
func (c *Cache) badVictim(victim int) {
	panic(fmt.Sprintf("cache %s: policy %s returned victim way %d (assoc %d)",
		c.cfg.Name, c.policy.Name(), victim, c.cfg.Ways))
}

// Invalidate removes the valid line in (set, way) — a way Lookup found
// — returning whether it was dirty; an invalid way is left as it is.
// The policy sees an OnEvict with a zero-class AccessInfo.
func (c *Cache) Invalidate(set, way int) (wasDirty bool) {
	i := set*c.cfg.Ways + way
	if c.flags[i]&flagValid == 0 {
		return false
	}
	line := c.tags[i]
	dirty := c.flags[i]&flagDirty != 0
	c.stats.Evictions++
	if dirty {
		c.stats.DirtyEvict++
		c.dirty[set]--
	}
	c.valid[set]--
	c.policy.OnEvict(set, way, AccessInfo{Line: line})
	c.tags[i], c.flags[i] = 0, 0
	return dirty
}

// DirtyWays implements StateReader: the number of valid dirty lines in
// set, maintained incrementally (O(1)). Partitioning policies query it on
// every victim selection.
func (c *Cache) DirtyWays(set int) int { return int(c.dirty[set]) }

// ValidWays implements StateReader: the number of valid lines in set,
// maintained incrementally (O(1)).
func (c *Cache) ValidWays(set int) int { return int(c.valid[set]) }

// InvalidWay implements StateReader over the packed flags; the valid
// count makes it O(1) once the set is full.
func (c *Cache) InvalidWay(set int) int {
	if int(c.valid[set]) >= c.cfg.Ways {
		return -1
	}
	base := set * c.cfg.Ways
	for w, f := range c.flags[base : base+c.cfg.Ways] {
		if f&flagValid == 0 {
			return w
		}
	}
	return -1
}
