package loadgen

import "rwp/internal/live"

// Take returns the next n operations of s as a slice — the batched
// form of the request stream that transports with batch support
// (proto MGET/MPUT) consume. Semantically it is exactly n calls to
// Next: replaying the slice in order against a cache is bit-identical
// to issuing the stream op by op.
func Take(s Stream, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = s.Next()
	}
	return ops
}

// Runs splits ops into maximal runs of same-kind operations (all Gets
// or all Puts), each at most max long. Concatenating the runs yields
// ops unchanged, so a transport that maps every run onto one batch
// frame (MGET for a Get run, MPUT for a Put run) and issues runs in
// order preserves the stream's per-key operation order exactly — the
// property the differential tests pin down. max <= 0 means unbounded.
func Runs(ops []Op, max int) [][]Op {
	var runs [][]Op
	start := 0
	for i := 1; i <= len(ops); i++ {
		if i == len(ops) || ops[i].Put != ops[start].Put || (max > 0 && i-start >= max) {
			runs = append(runs, ops[start:i])
			start = i
		}
	}
	return runs
}

// ApplyAll issues ops against c in order, returning the Get hit count
// (the single-goroutine replay loop shared by tests and benches).
func ApplyAll(c *live.Cache, ops []Op) (hits int) {
	for _, op := range ops {
		if Apply(c, op) {
			hits++
		}
	}
	return hits
}
