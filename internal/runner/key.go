// Package runner is the deterministic parallel experiment engine: a
// job layer (canonical hashable keys over pure compute functions, with
// duplicate submissions coalesced singleflight-style), a bounded worker
// pool, and an optional content-addressed on-disk result cache with
// crash-safe atomic writes.
//
// Determinism argument: every job is a pure function of its key (the
// simulator guarantees bit-identical Results for identical Options;
// internal/sim's TestRunTwiceBitIdentical and TestResultsGolden hold
// it), jobs share no mutable state, and callers aggregate results over
// their own deterministic key sets — never in completion order. Worker
// count and scheduling therefore affect wall-clock only; the value
// delivered for a key is the same at -j 1 and -j N, from a cold run, a
// coalesced duplicate, or a disk hit.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// SchemaSalt versions the key and payload encodings. It is mixed into
// every job hash and stored in every cache entry: bump it whenever the
// meaning of a key's payload or the layout of a cached result changes,
// and all previously cached entries become misses instead of lies.
const SchemaSalt = "rwp-runner-v2"

// Key is a canonical job identity: a kind (one kind maps to exactly one
// result type), a human-readable description for observability, and a
// content hash of the kind, the SchemaSalt, and a stable encoding of
// the job's parameters.
type Key struct {
	kind string
	desc string
	id   string
}

// NewKey builds a key from a stable JSON encoding of payload. The
// payload must marshal deterministically: structs of scalars, strings,
// slices and nested structs are fine; unordered maps are not (Go's
// encoding/json sorts map keys, but the convention here is to keep
// payloads map-free so the encoding is obviously canonical).
func NewKey(kind, desc string, payload any) (Key, error) {
	if kind == "" {
		return Key{}, fmt.Errorf("runner: empty job kind")
	}
	b, err := json.Marshal(payload)
	if err != nil {
		return Key{}, fmt.Errorf("runner: encoding %s key: %w", kind, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", SchemaSalt, kind)
	h.Write(b)
	return Key{kind: kind, desc: desc, id: hex.EncodeToString(h.Sum(nil))}, nil
}

// Kind returns the job kind.
func (k Key) Kind() string { return k.kind }

// Desc returns the human-readable description.
func (k Key) Desc() string { return k.desc }

// ID returns the hex content hash (the cache address).
func (k Key) ID() string { return k.id }

// String renders the key for progress lines and errors.
func (k Key) String() string {
	if k.desc != "" {
		return k.kind + " " + k.desc
	}
	return k.kind + " " + k.id[:12]
}
