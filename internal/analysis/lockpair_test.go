package analysis

import "testing"

func TestLockPairDeferIsClean(t *testing.T) {
	src := `package fix

import "sync"

type c struct {
	mu sync.Mutex
	n  int
}

func (x *c) bump() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.n++
	return x.n
}

func (x *c) explicit() int {
	x.mu.Lock()
	n := x.n
	x.mu.Unlock()
	return n
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockPair)
	wantFindings(t, findings, "lockpair")
}

func TestLockPairLeakOnEarlyReturn(t *testing.T) {
	src := `package fix

import "sync"

type c struct {
	mu sync.Mutex
	m  map[string]int
}

func (x *c) leaky(key string) (int, bool) {
	x.mu.Lock()
	v, ok := x.m[key]
	if !ok {
		return 0, false
	}
	x.mu.Unlock()
	return v, true
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockPair)
	wantFindings(t, findings, "lockpair", 11)
}

func TestLockPairLeakAtFallthrough(t *testing.T) {
	src := `package fix

import "sync"

type c struct {
	mu sync.Mutex
	n  int
}

func (x *c) forgot() {
	x.mu.Lock()
	x.n++
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockPair)
	wantFindings(t, findings, "lockpair", 11)
}

func TestLockPairRWLockMatchedSeparately(t *testing.T) {
	// RLock released by Unlock is NOT a release: the read lock leaks
	// (and the write side would corrupt the reader count at runtime).
	src := `package fix

import "sync"

type c struct {
	mu sync.RWMutex
	n  int
}

func (x *c) wrongPair() int {
	x.mu.RLock()
	n := x.n
	x.mu.Unlock()
	return n
}

func (x *c) rightPair() int {
	x.mu.RLock()
	n := x.n
	x.mu.RUnlock()
	return n
}

func (x *c) deferRead() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.n
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockPair)
	wantFindings(t, findings, "lockpair", 11)
}

func TestLockPairUnlockInsideDeferredClosure(t *testing.T) {
	src := `package fix

import "sync"

type c struct {
	mu sync.Mutex
	n  int
}

func (x *c) closureRelease() {
	x.mu.Lock()
	defer func() {
		x.n++
		x.mu.Unlock()
	}()
	x.n++
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockPair)
	wantFindings(t, findings, "lockpair")
}

func TestLockPairLoopIteration(t *testing.T) {
	// Per-iteration lock/unlock is the invariant-checker pattern and is
	// clean; forgetting the unlock self-deadlocks on iteration two.
	src := `package fix

import "sync"

type shard struct {
	mu sync.Mutex
	n  int
}

func sum(shards []*shard) int {
	total := 0
	for _, sh := range shards {
		sh.mu.Lock()
		total += sh.n
		sh.mu.Unlock()
	}
	return total
}

func leakPerIteration(shards []*shard) int {
	total := 0
	for _, sh := range shards {
		sh.mu.Lock()
		total += sh.n
	}
	return total
}

func unlockBeforeErrorReturn(shards []*shard) int {
	for _, sh := range shards {
		sh.mu.Lock()
		if sh.n < 0 {
			sh.mu.Unlock()
			return -1
		}
		sh.mu.Unlock()
	}
	return 0
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockPair)
	wantFindings(t, findings, "lockpair", 23)
}

func TestLockPairPanicPathNotChecked(t *testing.T) {
	// panic() is a crash-stop here, not control flow: only a deferred
	// unlock could release across it, and demanding one on every
	// assertion-style panic would be noise.
	src := `package fix

import "sync"

type c struct {
	mu sync.Mutex
	n  int
}

func (x *c) assertPositive() {
	x.mu.Lock()
	if x.n < 0 {
		panic("negative count")
	}
	x.mu.Unlock()
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockPair)
	wantFindings(t, findings, "lockpair")
}

func TestLockPairBranchLeak(t *testing.T) {
	// Released in one arm, leaked in the other: one finding, at the
	// acquisition site.
	src := `package fix

import "sync"

type c struct {
	mu sync.Mutex
	n  int
}

func (x *c) halfReleased(cond bool) {
	x.mu.Lock()
	if cond {
		x.mu.Unlock()
		return
	}
	x.n++
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockPair)
	wantFindings(t, findings, "lockpair", 11)
}

func TestLockPairUnlockAroundLoopWork(t *testing.T) {
	// Dropping the lock around blocking work and re-taking it before
	// the next iteration leaves the lock as the loop found it.
	src := `package fix

import "sync"

type Loader func(key string) []byte

type shard struct {
	mu     sync.Mutex
	loader Loader
}

func (s *shard) refill(keys []string) {
	s.mu.Lock()
	for range keys {
		s.mu.Unlock()
		s.loader("k")
		s.mu.Lock()
	}
	s.mu.Unlock()
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockPair)
	wantFindings(t, findings, "lockpair")
}

func TestLockPairDeferredUnlockCoversReacquire(t *testing.T) {
	// The deferred unlock is still pending after the explicit one, so
	// it releases the lock re-taken after the unlocked work.
	src := `package fix

import "sync"

type c struct {
	mu sync.Mutex
	n  int
}

func work() {}

func (x *c) dropAround() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.mu.Unlock()
	work()
	x.mu.Lock()
	return x.n
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockPair)
	wantFindings(t, findings, "lockpair")
}

func TestLockPairPendingDeferMatchesItsLockOnly(t *testing.T) {
	// A pending deferred Unlock does not release a re-taken RLock, nor a
	// Lock re-taken after a join where only one branch deferred.
	src := `package fix

import "sync"

type c struct {
	mu sync.RWMutex
	n  int
}

func (x *c) otherMethod() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.mu.Unlock()
	x.mu.RLock()
	return x.n
}

func (x *c) oneBranchDeferred(cond bool) int {
	x.mu.Lock()
	if cond {
		defer x.mu.Unlock()
	}
	x.mu.Unlock()
	x.mu.Lock()
	return x.n
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockPair)
	wantFindings(t, findings, "lockpair", 14, 24)
}
