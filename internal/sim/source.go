package sim

import "rwp/internal/trace"

// RunSource executes an arbitrary access stream (e.g. a decoded trace
// file) on a single-core system, the one-core case of RunMulti. The
// stream ends either at opt.Warmup+opt.Measure accesses or at trace
// end, whichever comes first; a trace with no access past the warmup is
// an error. The Workload label is the caller's name for the stream. src
// is read from another goroutine until RunSource returns, and not
// afterwards.
func RunSource(name string, src trace.Source, opt Options) (Result, error) {
	return runOne(stream{"trace", name, src}, opt, observer{})
}
