package proto_test

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/proto"
	"rwp/internal/probe"
)

// memConn is an in-memory connection for driving ServeConn or a Client
// without goroutines: reads replay in, loops times over, then report
// EOF; writes go to out (io.Discard when only allocations matter).
type memConn struct {
	in    []byte
	loops int
	off   int
	out   io.Writer
}

func (m *memConn) Read(p []byte) (int, error) {
	if m.off == len(m.in) {
		if m.loops <= 1 {
			return 0, io.EOF
		}
		m.loops--
		m.off = 0
	}
	n := copy(p, m.in[m.off:])
	m.off += n
	return n, nil
}

func (m *memConn) Write(p []byte) (int, error) { return m.out.Write(p) }

func mustCache(t *testing.T, cfg live.Config) *live.Cache {
	t.Helper()
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func frame(t *testing.T, op proto.Op) func([]byte, error) []byte {
	return func(payload []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return proto.AppendFrame(nil, op, payload)
	}
}

// TestServeConnAllocs pins the server's steady state at zero heap
// allocations per request against a ByteBackend: a GET hit, an MGET of
// 64 resident keys and a PUT overwrite. One ServeConn call pays a fixed
// set-up (buffers, scratch growing to the stream's high-water mark), so
// the pin compares a connection serving the stream once with one
// serving it twice: the second pass must add nothing. With 256 requests
// in the stream, a single allocation per request — or per key — would
// show as hundreds. The cache runs at the default RWP interval: the
// streams cross retarget boundaries, and a retarget allocates nothing.
func TestServeConnAllocs(t *testing.T) {
	c := mustCache(t, live.DefaultConfig())
	keys := make([]string, 64)
	val := bytes.Repeat([]byte("v"), 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
		c.Put(keys[i], val)
	}
	var get, mget, put []byte
	for i := 0; i < 256; i++ {
		k := keys[i%len(keys)]
		get = append(get, frame(t, proto.OpGet)(proto.AppendGetReq(nil, k))...)
		mget = append(mget, frame(t, proto.OpMGet)(proto.AppendMGetReq(nil, keys))...)
		put = append(put, frame(t, proto.OpPut)(proto.AppendPutReq(nil, k, val))...)
	}
	for _, tc := range []struct {
		name   string
		stream []byte
	}{{"GET hit", get}, {"MGET-64 resident", mget}, {"PUT overwrite", put}} {
		serve := func(loops int) float64 {
			return testing.AllocsPerRun(10, func() {
				if err := proto.ServeConn(&memConn{in: tc.stream, loops: loops, out: io.Discard}, c); err != nil {
					t.Fatal(err)
				}
			})
		}
		once, twice := serve(1), serve(2)
		//rwplint:allow floateq — AllocsPerRun yields an exact small-integer float; the pin is exact by design
		if once != twice {
			t.Errorf("%s: serving 256 more requests allocates %.0f more objects (%.0f vs %.0f per connection), want 0",
				tc.name, twice-once, twice, once)
		}
	}
	if s := c.Stats(); s.GetMisses != 0 || s.PutInserts != uint64(len(keys)) {
		t.Fatalf("streams left the hit/overwrite paths: %+v", s)
	}
}

// TestClientFlushAllocs pins the client's pipelined burst — 32 QueueGet
// and one Flush, all hits on 64-byte values — at no allocation: frames
// are queued into the client's scratch, and replies and their values
// are decoded into it.
func TestClientFlushAllocs(t *testing.T) {
	const depth = 32
	var replies []byte
	for i := 0; i < depth; i++ {
		res := proto.GetResult{Status: proto.StatusHit, Value: bytes.Repeat([]byte{byte(i)}, 64)}
		replies = proto.AppendFrame(replies, proto.OpGet, proto.AppendGetResp(nil, res))
	}
	cli := proto.NewClient(&memConn{in: replies, loops: 1 << 30, out: io.Discard})
	burst := func() {
		for i := 0; i < depth; i++ {
			if err := cli.QueueGet("key-0001"); err != nil {
				t.Fatal(err)
			}
		}
		got, err := cli.Flush()
		if err != nil || len(got) != depth {
			t.Fatalf("flush: %d replies, %v", len(got), err)
		}
		for i := range got {
			if v := got[i].Get.Value; len(v) != 64 || v[0] != byte(i) || v[63] != byte(i) {
				t.Fatalf("reply %d value %x", i, v)
			}
		}
	}
	burst() // grow the scratch
	//rwplint:allow floateq — AllocsPerRun yields an exact small-integer float; the pin is exact by design
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Errorf("QueueGet x%d + Flush allocates %.1f objects, want 0", depth, allocs)
	}
}

// TestReplyValuesAreScratch checks the one lifetime of a Flush result:
// the []Reply, the Gets in it and the values are all the client's
// scratch, valid until the next call. Within one Flush the values do
// not overlap and appending to one cannot reach the next; a miss is a
// nil value and an empty value is non-nil. The next Flush decodes into
// the same memory, values included. Every Flush carries different
// bytes, so a value decoded into the wrong place would show.
func TestReplyValuesAreScratch(t *testing.T) {
	const flushes = 50
	value := func(f, i int) []byte { return []byte(fmt.Sprintf("%c-%05d", 'a'+i, f)) }
	// want lists one Flush's results in order: two GETs, then an MGET
	// of four.
	want := func(f int) []proto.GetResult {
		return []proto.GetResult{
			{Status: proto.StatusHit, Value: value(f, 0)},
			{Status: proto.StatusFill, Value: []byte{}},
			{Status: proto.StatusHit, Value: value(f, 2)},
			{Status: proto.StatusMiss},
			{Status: proto.StatusFill, Value: value(f, 4)},
			{Status: proto.StatusHit, Value: []byte{}},
		}
	}
	var replies []byte
	for f := 0; f < flushes; f++ {
		w := want(f)
		for _, res := range w[:2] {
			replies = proto.AppendFrame(replies, proto.OpGet, proto.AppendGetResp(nil, res))
		}
		replies = proto.AppendFrame(replies, proto.OpMGet, proto.AppendMGetResp(nil, w[2:]))
	}
	cli := proto.NewClient(&memConn{in: replies, loops: 1, out: io.Discard})
	// flush runs one Flush and returns its results in want's order.
	flush := func() ([]proto.Reply, []proto.GetResult) {
		for i := 0; i < 2; i++ {
			if err := cli.QueueGet("k"); err != nil {
				t.Fatal(err)
			}
		}
		if err := cli.QueueMGet([]string{"k", "l", "m", "n"}); err != nil {
			t.Fatal(err)
		}
		got, err := cli.Flush()
		if err != nil {
			t.Fatal(err)
		}
		return got, append([]proto.GetResult{got[0].Get, got[1].Get}, got[2].Gets...)
	}
	check := func(f int, got []proto.GetResult) {
		t.Helper()
		for i, w := range want(f) {
			g := got[i]
			if g.Status != w.Status || !bytes.Equal(g.Value, w.Value) || (g.Value == nil) != (w.Value == nil) {
				t.Fatalf("flush %d result %d = %v %q (nil %v), want %v %q (nil %v)",
					f, i, g.Status, g.Value, g.Value == nil, w.Status, w.Value, w.Value == nil)
			}
		}
	}
	first, _ := flush() // grows the scratch
	_, warm := flush()
	check(1, warm)
	for i, g := range warm {
		if len(g.Value) > 0 {
			_ = append(g.Value, "overrun"...)
			if cap(g.Value) != len(g.Value) {
				t.Fatalf("result %d has capacity %d past its %d bytes", i, cap(g.Value), len(g.Value))
			}
		}
	}
	check(1, warm) // no append reached a neighbour
	for f := 2; f < flushes; f++ {
		got, res := flush()
		check(f, res)
		if &got[0] != &first[0] || &got[2].Gets[0] != &first[2].Gets[0] {
			t.Fatalf("flush %d decoded into fresh memory, want the client's reply scratch", f)
		}
		for i, g := range res {
			if len(g.Value) > 0 && &g.Value[0] != &warm[i].Value[0] {
				t.Fatalf("flush %d copied value %d into fresh memory, want the client's value scratch", f, i)
			}
		}
	}
	if !bytes.Equal(warm[4].Value, value(flushes-1, 4)) {
		t.Fatalf("an earlier Flush's value holds %q, want the last Flush's %q", warm[4].Value, value(flushes-1, 4))
	}
}

// mixedStream is a pipelined GET/PUT/MGET/MPUT stream over a small key
// space: hits, overwrites, evictions, Loader fills, Loader absences
// (every key ending in 7), empty values, and a STATS frame at the end so
// the stats document travels in the response bytes too.
func mixedStream(t *testing.T) []byte {
	var s []byte
	key := func(i int) string { return fmt.Sprintf("k%03d", i%97) }
	for i := 0; i < 3000; i++ {
		switch i % 7 {
		case 0, 1, 2:
			s = append(s, frame(t, proto.OpGet)(proto.AppendGetReq(nil, key(i*13)))...)
		case 3:
			s = append(s, frame(t, proto.OpPut)(proto.AppendPutReq(nil, key(i*5), []byte(fmt.Sprint("put-", i))))...)
		case 4:
			s = append(s, frame(t, proto.OpPut)(proto.AppendPutReq(nil, key(i*3), nil))...)
		case 5:
			keys := []string{key(i), key(i + 1), key(i), key(i * 11), ""}
			s = append(s, frame(t, proto.OpMGet)(proto.AppendMGetReq(nil, keys))...)
		case 6:
			kvs := []proto.KV{{Key: key(i), Value: []byte("a")}, {Key: key(i + 9), Value: nil}, {Key: key(i), Value: []byte("b")}}
			s = append(s, frame(t, proto.OpMPut)(proto.AppendMPutReq(nil, kvs))...)
		}
	}
	return append(s, proto.AppendFrame(nil, proto.OpStats, nil)...)
}

// TestByteAndStringBackendsAgree is the differential test between the
// two ways ServeConn reaches a cache: *live.Cache through its byte-key
// entry points, and the same cache type behind bareBackend (only
// proto.Backend's three methods), through the string-key adapter. The same request bytes
// must produce the same response bytes and the same /stats document.
func TestByteAndStringBackendsAgree(t *testing.T) {
	stream := mixedStream(t)
	cfg := live.DefaultConfig()
	cfg.Sets, cfg.Ways, cfg.Shards = 8, 2, 1 // 16 entries for 97 keys: evictions
	cfg.Loader = func(key string) []byte {
		switch {
		case len(key) > 0 && key[len(key)-1] == '7':
			return nil
		case len(key) > 0 && key[len(key)-1] == '3':
			return []byte{} // an empty value is still a fill
		}
		return []byte("loaded:" + key)
	}
	for _, defended := range []bool{false, true} {
		cfg.Coalesce, cfg.NegOps = defended, 0
		if defended {
			cfg.NegOps = 8
		}
		byteCache, stringCache := mustCache(t, cfg), mustCache(t, cfg)
		var byteOut, stringOut bytes.Buffer
		if err := proto.ServeConn(&memConn{in: stream, out: &byteOut}, byteCache); err != nil {
			t.Fatal(err)
		}
		if err := proto.ServeConn(&memConn{in: stream, out: &stringOut}, bareBackend{stringCache}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(byteOut.Bytes(), stringOut.Bytes()) {
			t.Errorf("defended=%v: response bytes differ between the byte-key path (%d bytes) and the adapter (%d bytes)",
				defended, byteOut.Len(), stringOut.Len())
		}
		a, _ := byteCache.StatsJSON()
		b, _ := stringCache.StatsJSON()
		if !bytes.Equal(a, b) {
			t.Errorf("defended=%v: /stats differs between the byte-key path and the adapter", defended)
		}
		if s := byteCache.Stats(); s.Evictions == 0 || s.Loads == 0 || s.LoadAbsents+s.NegInserts == 0 || s.PutHits == 0 {
			t.Fatalf("stream did not reach every path: %+v", s)
		}
	}
}

// keepingLog is a ReqLog sink that retains every event's key — what the
// record/replay journal writer is entitled to do with a string.
type keepingLog struct {
	mu   sync.Mutex
	keys []string
}

func (l *keepingLog) ReqEvent(e probe.ReqEvent) {
	l.mu.Lock()
	l.keys = append(l.keys, e.Key)
	l.mu.Unlock()
}

// TestBorrowedKeysAreCopiedWhereRetained: the server hands the cache
// keys that alias its frame scratch, and every same-length request
// after the first overwrites that scratch in place. With a ReqLog, a
// Loader, NegOps and Coalesce on, each place that keeps a key — the
// journal, the Loader's argument, the installed entry, the negative
// cache — must hold the key it was given, not whatever the scratch held
// last. Two connections run at once so -race sees the cache's side.
func TestBorrowedKeysAreCopiedWhereRetained(t *testing.T) {
	const n = 200
	var mu sync.Mutex
	var loaded []string
	log := &keepingLog{}
	cfg := live.DefaultConfig()
	cfg.ReqLog, cfg.Coalesce, cfg.NegOps = log, true, 1<<20
	cfg.Loader = func(key string) []byte {
		mu.Lock()
		loaded = append(loaded, key)
		mu.Unlock()
		if key[0] == 'a' { // absent: goes to the negative cache
			return nil
		}
		return []byte("loaded:" + key)
	}
	c := mustCache(t, cfg)

	// Per connection: GET of a loadable key (fill), GET of an absent key
	// (negative verdict), PUT of a new key (insert) — all keys distinct
	// and 8 bytes long. The loadable and put keys go through MGET/MPUT on
	// odd rounds so the batch walk is covered too.
	want := map[string]int{} // key -> journal events expected
	var wg sync.WaitGroup
	for conn := 0; conn < 2; conn++ {
		var s []byte
		for i := 0; i < n; i++ {
			fill := fmt.Sprintf("f%d-%05d", conn, i)
			absent := fmt.Sprintf("a%d-%05d", conn, i)
			put := fmt.Sprintf("p%d-%05d", conn, i)
			want[fill], want[absent], want[put] = 1, 1, 1
			if i%2 == 0 {
				s = append(s, frame(t, proto.OpGet)(proto.AppendGetReq(nil, fill))...)
				s = append(s, frame(t, proto.OpGet)(proto.AppendGetReq(nil, absent))...)
				s = append(s, frame(t, proto.OpPut)(proto.AppendPutReq(nil, put, []byte(put)))...)
			} else {
				s = append(s, frame(t, proto.OpMGet)(proto.AppendMGetReq(nil, []string{fill, absent}))...)
				s = append(s, frame(t, proto.OpMPut)(proto.AppendMPutReq(nil, []proto.KV{{Key: put, Value: []byte(put)}}))...)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := proto.ServeConn(&memConn{in: s, out: io.Discard}, c); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	// Journal and Loader: exactly the keys sent, each the right number
	// of times.
	got := map[string]int{}
	for _, k := range log.keys {
		got[k]++
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("journal holds %d events for key %q, want %d", got[k], k, n)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("journal holds %d distinct keys, want %d", len(got), len(want))
	}
	gotLoads := map[string]int{}
	for _, k := range loaded {
		gotLoads[k]++
	}
	for k := range want {
		if wantLoads := map[byte]int{'f': 1, 'a': 1, 'p': 0}[k[0]]; gotLoads[k] != wantLoads {
			t.Fatalf("Loader was called %d times with %q, want %d", gotLoads[k], k, wantLoads)
		}
	}

	// Resident entries and negative verdicts, asked for by their real
	// keys: every fill and put key hits with its own value, every absent
	// key is answered by the negative cache without another Loader call.
	loadsBefore := len(loaded)
	for k := range want {
		v, hit := c.Get(k)
		switch k[0] {
		case 'f':
			if !hit || string(v) != "loaded:"+k {
				t.Fatalf("Get(%q) = %q, %v: the filled entry does not hold its key", k, v, hit)
			}
		case 'p':
			if !hit || string(v) != k {
				t.Fatalf("Get(%q) = %q, %v: the inserted entry does not hold its key", k, v, hit)
			}
		case 'a':
			if hit || v != nil {
				t.Fatalf("Get(%q) = %q, %v, want a miss", k, v, hit)
			}
		}
	}
	if len(loaded) != loadsBefore {
		t.Fatalf("%d Loader calls for negatively cached keys: negs does not hold the keys it was given", len(loaded)-loadsBefore)
	}
	if s := c.Stats(); s.NegHits != 2*n {
		t.Fatalf("NegHits = %d, want %d", s.NegHits, 2*n)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// countingBackend counts the operations that reach it.
type countingBackend struct{ gets, puts int }

func (b *countingBackend) Get(string) ([]byte, bool)  { b.gets++; return nil, false }
func (b *countingBackend) Put(string, []byte) bool    { b.puts++; return true }
func (b *countingBackend) StatsJSON() ([]byte, error) { return []byte("{}\n"), nil }

// truncatedBatch frames an MGET or MPUT of two elements whose second is
// cut short: a well-formed frame (good CRC) around a malformed payload.
func truncatedBatch(op proto.Op) []byte {
	var p []byte
	if op == proto.OpMPut {
		p, _ = proto.AppendMPutReq(nil, []proto.KV{{Key: "first", Value: []byte("1")}, {Key: "second", Value: []byte("22")}})
	} else {
		p, _ = proto.AppendMGetReq(nil, []string{"first", "second"})
	}
	return proto.AppendFrame(nil, op, p[:len(p)-1])
}

// TestTruncatedBatchAppliesNothing: a batch is validated whole before
// its first element is applied, so an MPUT (or MGET) whose second
// element is truncated reaches the backend zero times and is answered
// with a single ERR frame.
func TestTruncatedBatchAppliesNothing(t *testing.T) {
	for _, op := range []proto.Op{proto.OpMPut, proto.OpMGet} {
		b := &countingBackend{}
		var out bytes.Buffer
		err := proto.ServeConn(&memConn{in: truncatedBatch(op), out: &out}, b)
		if !proto.IsWireError(err) {
			t.Fatalf("%v: ServeConn = %v, want a wire error", op, err)
		}
		if b.gets != 0 || b.puts != 0 {
			t.Errorf("%v: truncated batch applied %d gets and %d puts, want none", op, b.gets, b.puts)
		}
		r := proto.NewReader(&out)
		if got, _, rerr := r.ReadFrame(); rerr != nil || got != proto.OpErr {
			t.Fatalf("%v: first reply (%v, %v), want an ERR frame", op, got, rerr)
		}
		if _, _, rerr := r.ReadFrame(); rerr != io.EOF {
			t.Fatalf("%v: bytes after the ERR frame: %v", op, rerr)
		}
	}
}
