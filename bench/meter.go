package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"rwp/internal/live/loadgen"
)

// usage is what one or more timed sections consumed.
type usage struct {
	ops     int
	wall    time.Duration
	cpu     time.Duration // process user+sys: client, servers and GC
	mallocs uint64
	bytes   uint64
	// the collector's share of it
	gcCycles uint32
	gcPause  time.Duration
	gcCPU    float64 // seconds
}

func (u *usage) add(o usage) {
	u.ops += o.ops
	u.wall += o.wall
	u.cpu += o.cpu
	u.mallocs += o.mallocs
	u.bytes += o.bytes
	u.gcCycles += o.gcCycles
	u.gcPause += o.gcPause
	u.gcCPU += o.gcCPU
}

// section reads the wall clock, process CPU and the runtime's allocator
// and collector counters at the edges of one timed section. The clock
// is read innermost, so the readings themselves stay outside the timed
// interval.
type section struct {
	ms    runtime.MemStats
	gc    [1]metrics.Sample
	start usage // the counters at begin; wall and cpu unused
	cpu0  time.Duration
	t0    time.Time
}

// counters reads the cumulative runtime counters into a usage.
func (s *section) counters() usage {
	runtime.ReadMemStats(&s.ms)
	s.gc[0].Name = "/cpu/classes/gc/total:cpu-seconds"
	metrics.Read(s.gc[:])
	u := usage{mallocs: s.ms.Mallocs, bytes: s.ms.TotalAlloc, gcCycles: s.ms.NumGC, gcPause: time.Duration(s.ms.PauseTotalNs)}
	if s.gc[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s.gc[0].Value.Float64()
	}
	return u
}

func (s *section) begin() {
	s.start = s.counters()
	s.cpu0 = processCPU()
	s.t0 = time.Now()
}

func (s *section) end(ops int) usage {
	wall := time.Since(s.t0)
	cpu := processCPU() - s.cpu0
	u := s.counters()
	return usage{
		ops: ops, wall: wall, cpu: cpu,
		mallocs: u.mallocs - s.start.mallocs, bytes: u.bytes - s.start.bytes,
		gcCycles: u.gcCycles - s.start.gcCycles, gcPause: u.gcPause - s.start.gcPause, gcCPU: u.gcCPU - s.start.gcCPU,
	}
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMB forces two collections and returns the live heap in MB. The
// caller drops its own buffers first.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// hostRef is the benchmark's yardstick for the host. On a shared
// machine the same code runs up to twice as slow from one minute to the
// next, which no median over a twelve-second run removes. The slowness
// comes in two kinds that move apart (a neighbour on the sibling
// hyperthread slows arithmetic, one in the shared cache slows memory),
// so two fixed reference kernels run between the timed sections:
//
//   - mem: a plain map-backed cache doing the kind of work the live
//     cache does (hash a string key, find the entry, copy 64 bytes out
//     into a fresh allocation) over a fixed operation list;
//   - alu: a fixed arithmetic loop with no memory traffic.
//
// Every time the benchmark reports is multiplied by the geometric mean
// of refNominal/mem and refNominal/alu, with the kernels' mean times in
// the same round: the time a host of the reference speed would have
// taken. Either kernel alone tracks some workloads and misses others;
// their geometric mean was the steadiest on all five (README.md,
// "Reference-host time"). The kernels are frozen here, so no change to
// the repo can move them.
type hostRef struct {
	ops   []loadgen.Op
	store map[string][]byte
	sink  int
}

// refOps and refSpins are the kernels' lengths; refNominal is the
// duration of each on the reference host when nothing else runs there.
const (
	refOps     = 32768
	refSpins   = 2_000_000
	refNominal = 3 * time.Millisecond
)

func newHostRef() (*hostRef, error) {
	src, err := newStream("fit", 0x5eed)
	if err != nil {
		return nil, err
	}
	h := &hostRef{ops: loadgen.Take(src, refOps), store: map[string][]byte{}}
	for _, op := range h.ops {
		if h.store[op.Key] == nil {
			h.store[op.Key] = loadgen.Value(op.Key, valueSize)
		}
	}
	h.mem() // first touch
	return h, nil
}

func (h *hostRef) mem() time.Duration {
	t0 := time.Now()
	n := 0
	for i := range h.ops {
		op := &h.ops[i]
		if op.Put {
			h.store[op.Key] = append(h.store[op.Key][:0], op.Value...)
			continue
		}
		n += len(append([]byte(nil), h.store[op.Key]...))
	}
	h.sink += n
	return time.Since(t0)
}

func (h *hostRef) alu() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < refSpins; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	h.sink += int(x & 1)
	return time.Since(t0)
}

// sample runs both kernels into m until they have run for a share of
// beside, the length of the timed section next to them, and at least
// once. The host's speed also flickers within milliseconds, so a single
// 3 ms run is a noisy reading of it; refShare keeps the readings in
// proportion to what they are compared with.
func (h *hostRef) sample(m *refMeter, beside time.Duration) {
	for spent := time.Duration(0); ; {
		mem, alu := h.mem(), h.alu()
		m.mem += mem
		m.alu += alu
		m.n++
		if spent += mem + alu; spent >= beside/refShare {
			return
		}
	}
}

const refShare = 6

// refMeter accumulates kernel runs; scale is the factor that turns a
// time measured beside them into reference-host time.
type refMeter struct {
	mem, alu time.Duration
	n        int
}

func (m *refMeter) add(o refMeter) {
	m.mem += o.mem
	m.alu += o.alu
	m.n += o.n
}

// memMean and aluMean are the kernels' mean times, in ms.
func (m refMeter) memMean() float64 { return ms(m.mem) / float64(max(m.n, 1)) }
func (m refMeter) aluMean() float64 { return ms(m.alu) / float64(max(m.n, 1)) }

func (m refMeter) scale() float64 {
	if m.n == 0 {
		return 1
	}
	return ms(refNominal) / math.Sqrt(m.memMean()*m.aluMean())
}

// setupClock times one set-up in reference-host time. The kernel's
// readings are taken between the steps of the set-up, as between timed
// sections, and kept out of the time.
type setupClock struct {
	ref   *hostRef
	rm    refMeter
	start time.Time
	spent time.Duration // inside the reference kernel
}

func startSetup(ref *hostRef) *setupClock {
	c := &setupClock{ref: ref}
	c.reading(0)
	c.spent, c.start = 0, time.Now()
	return c
}

// reading runs the kernel beside a step of the given length.
func (c *setupClock) reading(beside time.Duration) {
	t0 := time.Now()
	c.ref.sample(&c.rm, beside)
	c.spent += time.Since(t0)
}

func (c *setupClock) seconds() float64 {
	return (time.Since(c.start) - c.spent).Seconds() * c.rm.scale()
}

// spinSink keeps the compiler from deleting a micro-row's loop.
var spinSink uint64
