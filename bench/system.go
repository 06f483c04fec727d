package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"time"

	"rwp/internal/cluster"
	"rwp/internal/live"
	"rwp/internal/live/loadgen"
	"rwp/internal/live/proto"
)

// The systems under test and the closed loop that drives each: one
// client goroutine, each request sent only after the previous one's
// reply has been checked.

const (
	// directBlock is the direct workloads' latency "request": a block
	// of this many consecutive operations.
	directBlock = 256
	// pipeDepth is tcp_pipe's frames per flush; the burst is its
	// latency request.
	pipeDepth = 32
	// batchKeys is cluster_batch's keys per MGET/MPUT call (its
	// latency request); every putEvery-th batch is an MPUT.
	batchKeys = 64
	putEvery  = 16
	// ringShards and routerWindow configure the cluster router. The
	// window bounds the router's per-shard cost histograms, which
	// otherwise grow by one bucket per read.
	ringShards   = 64
	routerWindow = 4096
)

// target runs one chunk of operations inside a timed section. It
// appends one latency sample (ns) per request to lat and returns how
// many operations got a wrong reply; a transport or protocol error
// ends the run.
type target interface {
	apply(ops []loadgen.Op, lat []int64) (samples []int64, bad int, err error)
}

// backendWrap lets a test put a faulty proto.Backend in front of a
// node's cache.
type backendWrap func(proto.Backend) proto.Backend

// system is one built instance of a live workload.
type system struct {
	target  target
	caches  []*live.Cache
	loaders []*loaderSeam
	nodes   []*node
	router  *cluster.Client
	closed  bool
}

// buildSystem builds the caches, servers and connections of a live
// workload. ts is nil for an untraced system.
func buildSystem(k kind, ts *traceSet, wrap backendWrap) (*system, error) {
	s := &system{}
	switch k {
	case kindDirect:
		var tr *tracer
		if ts != nil {
			tr = ts.client
		}
		c, err := s.newCache(tr)
		if err != nil {
			return nil, err
		}
		s.target = &directTarget{c: c, tr: tr}
	case kindTCP:
		if err := s.startNodes(k.servers(), ts, wrap); err != nil {
			return nil, err
		}
		t := &tcpTarget{cli: s.nodes[0].cli, fifo: s.nodes[0].fifo}
		if ts != nil {
			t.tr = ts.client
		}
		s.target = t
	case kindCluster:
		if err := s.startNodes(k.servers(), ts, wrap); err != nil {
			return nil, err
		}
		ids := make([]string, len(s.nodes))
		conns := make([]cluster.NodeConn, len(s.nodes))
		for i, n := range s.nodes {
			ids[i] = fmt.Sprintf("node%d", i)
			conns[i] = n.cli
			if ts != nil {
				conns[i] = &nodeSeam{Client: n.cli, tr: ts.client, fifo: n.fifo}
			}
		}
		ring, err := cluster.New(live.DefaultConfig().Sets, ringShards, ids, 0)
		if err == nil {
			s.router, err = cluster.NewClient(cluster.ClientConfig{Ring: ring, Conns: conns, Window: routerWindow})
		}
		if err != nil {
			s.close()
			return nil, err
		}
		t := &clusterTarget{cl: s.router}
		if ts != nil {
			t.tr = ts.client
		}
		s.target = t
	default:
		return nil, fmt.Errorf("not a live workload kind: %d", k)
	}
	return s, nil
}

// newCache builds one default-geometry cache behind a counting Loader.
func (s *system) newCache(tr *tracer) (*live.Cache, error) {
	l := &loaderSeam{inner: loadgen.Loader(valueSize), tr: tr}
	cfg := live.DefaultConfig()
	cfg.Loader = l.load
	c, err := live.New(cfg)
	if err != nil {
		return nil, err
	}
	s.caches = append(s.caches, c)
	s.loaders = append(s.loaders, l)
	return c, nil
}

// node is one cache served by proto.ServeConn on a loopback TCP
// socket, with the single client connection to it.
type node struct {
	cli  *proto.Client
	done chan error // the server goroutine's exit
	// traced only
	fifo    *reqFIFO
	conn    *connSeam
	backend *backendSeam
}

func (s *system) startNodes(n int, ts *traceSet, wrap backendWrap) error {
	for i := 0; i < n; i++ {
		var tr *tracer
		if ts != nil {
			tr = ts.servers[i]
		}
		c, err := s.newCache(tr)
		if err == nil {
			var nd *node
			if nd, err = startNode(c, tr, wrap); err == nil {
				s.nodes = append(s.nodes, nd)
			}
		}
		if err != nil {
			s.close()
			return err
		}
	}
	return nil
}

func startNode(c *live.Cache, tr *tracer, wrap backendWrap) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close() // one connection per node: stop listening once it is up
	nd := &node{done: make(chan error, 1)}
	var backend proto.Backend = c
	if wrap != nil {
		backend = wrap(backend)
	}
	if tr != nil {
		nd.fifo = &reqFIFO{}
		nd.backend = &backendSeam{inner: backend, tr: tr, fifo: nd.fifo, req: -1}
		backend = nd.backend
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		sc, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- sc
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close() // unblocks Accept
		<-accepted
		return nil, err
	}
	sc, ok := <-accepted
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("accept on %s failed", ln.Addr())
	}
	var rw io.ReadWriter = sc
	if tr != nil {
		nd.conn = &connSeam{inner: sc, tr: tr, backend: nd.backend}
		rw = nd.conn
	}
	go func() {
		err := proto.ServeConn(rw, backend)
		sc.Close()
		nd.done <- err
	}()
	nd.cli = proto.NewClient(conn)
	return nd, nil
}

// close stops every server and waits for it; it reports the first
// server-side error (a protocol violation the client may not have
// seen).
func (s *system) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if s.router != nil {
		if err := s.router.Finish(); err != nil {
			first = err
		}
	}
	for _, n := range s.nodes {
		n.cli.Close() // the server reads EOF and returns
		if err := <-n.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// directTarget calls the cache in process.
type directTarget struct {
	c   *live.Cache
	tr  *tracer
	seq int64
}

func (d *directTarget) apply(ops []loadgen.Op, lat []int64) ([]int64, int, error) {
	bad := 0
	for i := 0; i < len(ops); i += directBlock {
		block := ops[i:min(i+directBlock, len(ops))]
		t0 := time.Now()
		for j := range block {
			op := &block[j]
			// A traced run times one operation in traceEvery by itself.
			timed := d.tr != nil && j%traceEvery == 0
			if timed {
				d.tr.begin(spGetHit, d.seq+int64(i+j), true)
			}
			if op.Put {
				inserted := d.c.Put(op.Key, op.Value)
				if timed {
					d.tr.endAs(pick(inserted, spPutInsert, spPutOverwrite))
				}
				continue
			}
			v, hit := d.c.Get(op.Key)
			if timed {
				d.tr.endAs(pick(hit, spGetHit, spGetFill))
			}
			if !bytes.Equal(v, op.Value) {
				bad++
			}
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	d.seq += int64(len(ops))
	return lat, bad, nil
}

func pick(c bool, a, b spanName) spanName {
	if c {
		return a
	}
	return b
}

// tcpTarget sends single-key GET/PUT frames, pipeDepth per flush.
type tcpTarget struct {
	cli   *proto.Client
	tr    *tracer
	fifo  *reqFIFO
	burst int64
}

func (t *tcpTarget) apply(ops []loadgen.Op, lat []int64) ([]int64, int, error) {
	bad := 0
	for i := 0; i < len(ops); i += pipeDepth {
		block := ops[i:min(i+pipeDepth, len(ops))]
		t0 := time.Now()
		t.tr.begin(spRequest, t.burst, true)
		t.tr.begin(spQueue, t.burst, true)
		for j := range block {
			op := &block[j]
			var err error
			if op.Put {
				err = t.cli.QueuePut(op.Key, op.Value)
			} else {
				err = t.cli.QueueGet(op.Key)
			}
			if err != nil {
				return lat, bad, err
			}
		}
		t.tr.end()
		t.fifo.push(t.burst, len(block))
		t.tr.begin(spFlush, t.burst, true)
		replies, err := t.cli.Flush()
		t.tr.end()
		if err != nil {
			return lat, bad, err
		}
		if len(replies) != len(block) {
			return lat, bad, fmt.Errorf("tcp_pipe: %d replies to %d requests", len(replies), len(block))
		}
		t.tr.begin(spVerify, t.burst, true)
		for j := range block {
			if !block[j].Put && !bytes.Equal(replies[j].Get.Value, block[j].Value) {
				bad++
			}
		}
		t.tr.end()
		t.tr.end()
		lat = append(lat, int64(time.Since(t0)))
		t.burst++
	}
	return lat, bad, nil
}

// clusterTarget cuts the chunk into full batchKeys-key batches and
// routes each as one MGet, or every putEvery-th as one MPut. The
// stream's own Put flags are not used: full same-kind batches keep the
// workload on the router and the server's batch path instead of on
// loopback round trips.
type clusterTarget struct {
	cl   *cluster.Client
	tr   *tracer
	keys []string
	kvs  []proto.KV
	call int64
}

func (c *clusterTarget) apply(ops []loadgen.Op, lat []int64) ([]int64, int, error) {
	bad := 0
	for i := 0; i+batchKeys <= len(ops); i += batchKeys {
		block := ops[i : i+batchKeys]
		t0 := time.Now()
		c.tr.begin(spCall, c.call, true)
		if c.call%putEvery == putEvery-1 {
			c.kvs = c.kvs[:0]
			for j := range block {
				c.kvs = append(c.kvs, proto.KV{Key: block[j].Key, Value: block[j].Value})
			}
			ins, err := c.cl.MPut(c.kvs)
			if err != nil {
				return lat, bad, err
			}
			if len(ins) != len(block) {
				return lat, bad, fmt.Errorf("cluster_batch: %d results for %d pairs", len(ins), len(block))
			}
		} else {
			c.keys = c.keys[:0]
			for j := range block {
				c.keys = append(c.keys, block[j].Key)
			}
			res, err := c.cl.MGet(c.keys)
			if err != nil {
				return lat, bad, err
			}
			if len(res) != len(block) {
				return lat, bad, fmt.Errorf("cluster_batch: %d results for %d keys", len(res), len(block))
			}
			for j := range block {
				if !bytes.Equal(res[j].Value, block[j].Value) {
					bad++
				}
			}
		}
		c.tr.end()
		lat = append(lat, int64(time.Since(t0)))
		c.call++
	}
	return lat, bad, nil
}
