package trace

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"rwp/internal/mem"
)

// countingSource counts the accesses handed out, and fails with failErr
// in place of access failAt (when failErr is set).
type countingSource struct {
	src     Source
	served  int
	failAt  int
	failErr error
}

func (c *countingSource) Next() (mem.Access, error) {
	if c.failErr != nil && c.served == c.failAt {
		return mem.Access{}, c.failErr
	}
	a, err := c.src.Next()
	if err == nil {
		c.served++
	}
	return a, err
}

// pull is the unbuffered loop the stage replaces: at most n Next calls,
// stopping at the first error.
func pull(src Source, n uint64) ([]mem.Access, error) {
	var out []mem.Access
	for i := uint64(0); i < n; i++ {
		a, err := src.Next()
		if err != nil {
			return out, err
		}
		out = append(out, a)
	}
	return out, nil
}

func sameAccesses(a, b []mem.Access) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// boundaryLengths are the stream lengths around the batch edges.
var boundaryLengths = []int{0, 1, readAheadBatch - 1, readAheadBatch, readAheadBatch + 1, 3*readAheadBatch + 7}

// waitGoroutines fails the test unless the goroutine count returns to
// base. Close returns when the producer has signalled, a few
// instructions before it leaves the count, hence the bounded yielding.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for spins := 0; runtime.NumGoroutine() > base; spins++ {
		if spins == 1_000_000 {
			t.Fatalf("%d goroutines, baseline %d: a read-ahead producer leaked", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestReadAheadMatchesDirectPull: for every stream length and quota
// around the batch edges, the stage yields the accesses, the final error
// and the source position of the unbuffered loop, and a stream that is
// over stays over.
func TestReadAheadMatchesDirectPull(t *testing.T) {
	for _, length := range boundaryLengths {
		recs := sampleTrace(length, uint64(length)+1)
		for _, n := range []int{0, 1, length - 1, length, length + 1, length + readAheadBatch} {
			if n < 0 {
				continue
			}
			t.Run(fmt.Sprintf("len=%d/n=%d", length, n), func(t *testing.T) {
				// One pull past the quota on both sides: is the stream over?
				want, wantErr := pull(NewLimit(NewSlice(recs), uint64(n)), uint64(n)+1)
				src := &countingSource{src: NewSlice(recs)}
				ra := NewReadAhead(src, uint64(n))
				got, gotErr := pull(ra, uint64(n)+1)
				if _, again := ra.Next(); again != gotErr {
					t.Errorf("second Next past the end: %v, first %v", again, gotErr)
				}
				ra.Close()
				if !sameAccesses(got, want) {
					t.Fatalf("stage yielded %d accesses, direct pull %d (or contents differ)", len(got), len(want))
				}
				if gotErr != wantErr {
					t.Fatalf("stage ended with %v, direct pull with %v", gotErr, wantErr)
				}
				if src.served != min(n, length) {
					t.Fatalf("source advanced by %d accesses, want exactly min(n, len) = %d", src.served, min(n, length))
				}
			})
		}
	}
}

// TestReadAheadSourceError: a failing source's error reaches the
// consumer unchanged, after exactly the accesses that preceded it.
func TestReadAheadSourceError(t *testing.T) {
	boom := errors.New("trace: malformed record")
	total := 4 * readAheadBatch
	recs := sampleTrace(total, 3)
	for _, failAt := range boundaryLengths {
		t.Run(fmt.Sprintf("failAt=%d", failAt), func(t *testing.T) {
			src := &countingSource{src: NewSlice(recs), failAt: failAt, failErr: boom}
			ra := NewReadAhead(src, uint64(total))
			defer ra.Close()
			got, err := pull(ra, uint64(total))
			if err != boom {
				t.Fatalf("error %v, want the source's own", err)
			}
			if !sameAccesses(got, recs[:failAt]) {
				t.Fatalf("error surfaced after %d accesses, want the first %d", len(got), failAt)
			}
			if _, again := ra.Next(); again != boom {
				t.Fatalf("error not sticky: %v", again)
			}
		})
	}
}

// TestReadAheadDecodeErrorMessage: a truncated trace file fails through
// the stage with the decoder's own message at the decoder's own index.
func TestReadAheadDecodeErrorMessage(t *testing.T) {
	recs := sampleTrace(readAheadBatch+50, 5)
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSlice(recs)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{3, 5, 7, len(raw) / 2, len(raw) - 1} {
		want, wantErr := pull(NewReader(bytes.NewReader(raw[:cut])), uint64(len(recs)))
		ra := NewReadAhead(NewReader(bytes.NewReader(raw[:cut])), uint64(len(recs)))
		got, gotErr := pull(ra, uint64(len(recs)))
		ra.Close()
		if !sameAccesses(got, want) {
			t.Fatalf("cut %d: stage failed at access %d, decoder at %d", cut, len(got), len(want))
		}
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("cut %d: stage error %v, decoder error %v", cut, gotErr, wantErr)
		}
	}
}

// TestReadAheadCloseEarly: a consumer that gives up anywhere in the
// stream leaves no goroutine behind and never sees the source advanced
// past the quota.
func TestReadAheadCloseEarly(t *testing.T) {
	recs := sampleTrace(8*readAheadBatch, 7)
	base := runtime.NumGoroutine()
	for run := 0; run < 200; run++ {
		src := &countingSource{src: NewSlice(recs)}
		n := 5 * readAheadBatch
		ra := NewReadAhead(src, uint64(n))
		take := boundaryLengths[run%len(boundaryLengths)]
		if _, err := pull(ra, uint64(take)); err != nil {
			t.Fatal(err)
		}
		ra.Close()
		if src.served < take || src.served > n {
			t.Fatalf("source advanced by %d accesses, consumer took %d of %d", src.served, take, n)
		}
	}
	waitGoroutines(t, base)
}
