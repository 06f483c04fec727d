package trace

import (
	"sync"

	"rwp/internal/mem"
)

// Read-ahead geometry. Two batches are the minimum that lets the
// producer fill one while the consumer drains the other; 2048 accesses
// (64 KiB) per batch keeps the hand-offs to one channel round trip per
// ~2000 simulated accesses. DESIGN.md "Read-ahead stage" has the
// measurements behind both numbers.
const (
	readAheadBatches = 2
	readAheadBatch   = 2048
)

// ReadAhead is a Source that runs another Source on a producer goroutine,
// at most readAheadBatches batches ahead of its consumer. The producer
// pulls no more than n accesses in total and stops at the source's first
// error, so the wrapped source is advanced exactly as far as n direct
// Next calls would have advanced it, never further.
//
// The batches form a ring that both sides walk in the same order. A
// batch is owned by exactly one side at a time: by the producer from its
// receive on free to its send on full, by the consumer from its receive
// on full to its send on free. The channel operations order the two, so
// neither side locks; the channels carry counts, not the slices, which
// keeps a stage to six allocations.
//
// Close must be called (once) before the wrapped source is used again;
// it stops the producer and waits for it to exit.
type ReadAhead struct {
	// Consumer side.
	cur  []mem.Access // the batch being delivered; cur[pos:] is still to come
	pos  int
	turn int   // ring slot of the next batch to take
	err  error // why the stream is over, once it is; sticky

	bufs [readAheadBatches][]mem.Access
	// full carries, in ring order, the number of accesses the producer
	// left in each batch; free carries one token per batch it may fill.
	// Both hold every batch there is, so a send never blocks: the only
	// waits are the producer's for a token and the consumer's for a count.
	full chan int
	free chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
	// srcErr is the error that stopped the producer early (ErrEnd
	// included). It is written before full is closed and read after the
	// close is seen, so the consumer meets it at the same access index as
	// it would calling src.Next itself.
	srcErr error
}

// NewReadAhead starts reading up to n accesses of src ahead of the
// caller. The caller must Close the result.
func NewReadAhead(src Source, n uint64) *ReadAhead {
	r := &ReadAhead{
		full: make(chan int, readAheadBatches),
		free: make(chan struct{}, readAheadBatches),
		stop: make(chan struct{}),
	}
	slab := make([]mem.Access, readAheadBatches*readAheadBatch)
	for i := range r.bufs {
		r.bufs[i] = slab[i*readAheadBatch : (i+1)*readAheadBatch]
		r.free <- struct{}{}
	}
	r.wg.Add(1)
	go r.produce(src, n)
	return r
}

// produce fills batches until n accesses are out, the source fails or
// ends, or Close is called. It closes full on the way out, which is how
// the consumer learns that the stream is over.
func (r *ReadAhead) produce(src Source, n uint64) {
	defer r.wg.Done()
	defer close(r.full)
	for slot := 0; n > 0; slot = (slot + 1) % readAheadBatches {
		select {
		case <-r.free:
		case <-r.stop:
			return
		}
		buf := r.bufs[slot]
		if uint64(len(buf)) > n {
			buf = buf[:n]
		}
		got := 0
		for ; got < len(buf); got++ {
			a, err := src.Next()
			if err != nil {
				r.srcErr = err
				break
			}
			buf[got] = a
		}
		n -= uint64(got)
		r.full <- got
		if r.srcErr != nil {
			return
		}
	}
}

// Next implements Source. After the n-th access, or after the wrapped
// source's ErrEnd, it returns ErrEnd; after any other error it keeps
// returning that error.
func (r *ReadAhead) Next() (mem.Access, error) {
	if r.pos < len(r.cur) {
		a := r.cur[r.pos]
		r.pos++
		return a, nil
	}
	return r.refill()
}

// refill is Next's slow path: trade the drained batch for the next full
// one, or report why there is none.
func (r *ReadAhead) refill() (mem.Access, error) {
	for r.err == nil {
		if r.cur != nil {
			r.cur = nil
			r.free <- struct{}{}
		}
		got, ok := <-r.full
		if !ok {
			if r.err = r.srcErr; r.err == nil {
				r.err = ErrEnd
			}
			break
		}
		r.cur, r.pos = r.bufs[r.turn][:got], 0
		r.turn = (r.turn + 1) % readAheadBatches
		if got > 0 {
			r.pos = 1
			return r.cur[0], nil
		}
	}
	return mem.Access{}, r.err
}

// Close stops the producer and returns once it has exited; the wrapped
// source is not touched afterwards. Next must not be called after Close.
func (r *ReadAhead) Close() {
	close(r.stop)
	r.wg.Wait()
}
