package analysis

import "testing"

func TestLockHeldLoaderUnderLock(t *testing.T) {
	src := `package fix

import "sync"

type Loader func(key string) []byte

type shard struct {
	mu     sync.Mutex
	loader Loader
	m      map[string][]byte
}

func (s *shard) get(key string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.m[key]; ok {
		return v
	}
	v := s.loader(key)
	s.m[key] = v
	return v
}

func (s *shard) getOutside(key string) []byte {
	s.mu.Lock()
	v, ok := s.m[key]
	s.mu.Unlock()
	if ok {
		return v
	}
	return s.loader(key)
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockHeld)
	wantFindings(t, findings, "lockheld", 19)
}

func TestLockHeldLoaderInterface(t *testing.T) {
	src := `package fix

import "sync"

type Loader interface {
	Load(key string) ([]byte, error)
}

type cache struct {
	mu sync.Mutex
	l  Loader
}

func (c *cache) fill(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.l.Load(key)
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockHeld)
	wantFindings(t, findings, "lockheld", 17)
}

func TestLockHeldBlockingCalls(t *testing.T) {
	src := `package fix

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"
)

type s struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	conn net.Conn
}

func (x *s) bad() {
	x.mu.Lock()
	time.Sleep(time.Millisecond)
	x.conn.Write([]byte("hi"))
	fmt.Println("held")
	x.mu.Unlock()
	time.Sleep(time.Millisecond)
}

func (x *s) good() {
	x.mu.Lock()
	x.buf.WriteString("in-memory is fine")
	x.mu.Unlock()
	x.conn.Write([]byte("after unlock"))
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockHeld)
	wantFindings(t, findings, "lockheld", 19, 20, 21)
}

func TestLockHeldChannelOps(t *testing.T) {
	src := `package fix

import "sync"

type q struct {
	mu sync.Mutex
	ch chan int
}

func (x *q) sendHeld() {
	x.mu.Lock()
	x.ch <- 1
	x.mu.Unlock()
}

func (x *q) recvHeld() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return <-x.ch
}

func (x *q) selectNoDefault() {
	x.mu.Lock()
	defer x.mu.Unlock()
	select {
	case v := <-x.ch:
		_ = v
	}
}

func (x *q) selectDefault() {
	x.mu.Lock()
	defer x.mu.Unlock()
	select {
	case x.ch <- 1:
	default:
	}
}

func (x *q) goroutineDoesNotInherit() {
	x.mu.Lock()
	defer x.mu.Unlock()
	go func() {
		x.ch <- 2
	}()
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockHeld)
	// selectNoDefault reports once, at the select itself (the comm
	// clauses are what make it blocking, so they are not re-reported);
	// selectDefault reports nothing: ready-or-skip cannot stall.
	wantFindings(t, findings, "lockheld", 12, 19, 25)
}

func TestLockHeldNestedLocks(t *testing.T) {
	src := `package fix

import "sync"

type pair struct {
	a sync.Mutex
	b sync.Mutex
}

func (p *pair) ordering() {
	p.a.Lock()
	p.b.Lock()
	p.b.Unlock()
	p.a.Unlock()
}

func (p *pair) selfDeadlock() {
	p.a.Lock()
	p.a.Lock()
	p.a.Unlock()
	p.a.Unlock()
}

func (p *pair) sequential() {
	p.a.Lock()
	p.a.Unlock()
	p.b.Lock()
	p.b.Unlock()
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockHeld)
	wantFindings(t, findings, "lockheld", 12, 19)
}

func TestLockHeldBranchMerge(t *testing.T) {
	// The lock is released only on the if-branch; after the merge it
	// may still be held, so the Sleep is flagged.
	src := `package fix

import (
	"sync"
	"time"
)

type m struct {
	mu sync.Mutex
}

func (x *m) partialRelease(cond bool) {
	x.mu.Lock()
	if cond {
		x.mu.Unlock()
	}
	time.Sleep(time.Millisecond)
}

func (x *m) fullRelease(cond bool) {
	x.mu.Lock()
	if cond {
		x.mu.Unlock()
	} else {
		x.mu.Unlock()
	}
	time.Sleep(time.Millisecond)
}

func (x *m) earlyReturn(cond bool) {
	x.mu.Lock()
	if cond {
		x.mu.Unlock()
		return
	}
	x.mu.Unlock()
	time.Sleep(time.Millisecond)
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockHeld)
	wantFindings(t, findings, "lockheld", 17)
}

func TestLockHeldRangeOverChannel(t *testing.T) {
	src := `package fix

import "sync"

type r struct {
	mu sync.Mutex
	ch chan int
	m  map[int]int
}

func (x *r) drainHeld() {
	x.mu.Lock()
	defer x.mu.Unlock()
	for v := range x.ch {
		x.m[v]++
	}
}

func (x *r) mapRangeFine() {
	x.mu.Lock()
	defer x.mu.Unlock()
	for k := range x.m {
		x.m[k]++
	}
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockHeld)
	wantFindings(t, findings, "lockheld", 14)
}

func TestLockHeldDeferArguments(t *testing.T) {
	// A deferred call runs at exit, but its arguments are evaluated at
	// the defer statement, under the lock.
	src := `package fix

import "sync"

type Loader func(key string) []byte

type shard struct {
	mu     sync.Mutex
	loader Loader
}

func sink([]byte) {}

func (s *shard) deferredFetch(key string) {
	s.mu.Lock()
	defer sink(s.loader(key))
	s.mu.Unlock()
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockHeld)
	wantFindings(t, findings, "lockheld", 16)
}

func TestLockHeldGoArguments(t *testing.T) {
	// The spawned goroutine holds no lock, but the go statement
	// evaluates its arguments in the spawner, under the lock.
	src := `package fix

import "sync"

type Loader func(key string) []byte

type shard struct {
	mu     sync.Mutex
	loader Loader
}

func sink([]byte) {}

func (s *shard) spawnFetch(k string) {
	s.mu.Lock()
	go sink(s.loader(k))
	s.mu.Unlock()
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockHeld)
	wantFindings(t, findings, "lockheld", 16)
}

func TestLockHeldSwitchAllReturn(t *testing.T) {
	// Every clause of the switch unlocks and returns, so no path that
	// locked reaches the Loader call.
	src := `package fix

import "sync"

type Loader func(key string) []byte

type shard struct {
	mu     sync.Mutex
	loader Loader
}

func (s *shard) get(x, y bool, key string) []byte {
	if x {
		s.mu.Lock()
		switch {
		case y:
			s.mu.Unlock()
			return nil
		default:
			s.mu.Unlock()
			return nil
		}
	}
	return s.loader(key)
}
`
	findings := checkSrc(t, "rwp/internal/fix", src, LockHeld)
	wantFindings(t, findings, "lockheld")
}
