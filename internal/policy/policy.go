// Package policy implements the baseline replacement policies the paper
// evaluates RWP against: true LRU, DIP and its thread-aware TA-DIP
// (LRU vs BIP insertion by set dueling), DRRIP (SRRIP vs BRRIP insertion
// by set dueling), and a SHiP-lite signature policy.
//
// All policies satisfy cache.Policy. Factories (func() cache.Policy) are
// registered by name in Registry so experiment drivers can enumerate
// mechanisms uniformly; internal/core (RWP) and internal/rrp (RRP)
// register themselves into the same registry from their own packages.
package policy

import (
	"fmt"
	"sort"
	"sync"

	"rwp/internal/cache"
)

// Factory constructs a fresh policy instance. Each cache needs its own
// instance; policies are stateful and not safe for sharing.
type Factory func() cache.Policy

var (
	regMu    sync.Mutex
	registry = map[string]Factory{}
)

// Register adds a named policy factory. It panics on duplicates, which
// indicates an init-order bug.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", name))
	}
	registry[name] = f
}

// New constructs the named policy, or an error listing known names.
func New(name string) (cache.Policy, error) {
	regMu.Lock()
	f, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (known: %v)", name, Names())
	}
	return f(), nil
}

// Names returns the sorted registered policy names.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("lru", func() cache.Policy { return NewLRU() })
	Register("dip", func() cache.Policy { return NewDIP(3) })
	Register("drrip", func() cache.Policy { return NewDRRIP(DefaultRRPVBits, 5) })
	Register("ship", func() cache.Policy { return NewSHiP(DefaultRRPVBits, DefaultSHCTBits, 6) })
}
