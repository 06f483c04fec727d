package drive

import (
	"net"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
	"rwp/internal/live/proto"
)

// TCP drives the binary protocol over a real loopback socket: the
// stream is split into same-kind runs of at most `batch` ops, each run
// becomes one MGET/MPUT frame, and up to `depth` frames ride one
// pipelined flush. Run order equals stream order, so semantics match
// op-by-op replay.
//
// The target owns a single-connection server loop: *live.Cache
// satisfies proto.Backend directly, so the loop is just
// proto.ServeConn over the accepted conn.
type TCP struct {
	ln    net.Listener
	conn  net.Conn
	cli   *proto.Client
	batch int
	depth int
	done  chan struct{} // server goroutine exit

	keys []string   // reused MGET scratch
	kvs  []proto.KV // reused MPUT scratch
}

// NewTCP binds a loopback listener serving c and connects one
// pipelined client to it.
func NewTCP(c *live.Cache, batch, depth int) (*TCP, error) {
	if batch <= 0 {
		batch = 1
	}
	if depth <= 0 {
		depth = 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc, err := ln.Accept()
		if err != nil {
			return
		}
		defer sc.Close()
		proto.ServeConn(sc, c)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-done
		return nil, err
	}
	return &TCP{ln: ln, conn: conn, cli: proto.NewClient(conn), batch: batch, depth: depth, done: done}, nil
}

// Replay implements Target.
func (t *TCP) Replay(ops []loadgen.Op) error {
	for _, run := range loadgen.Runs(ops, t.batch) {
		if err := t.queueRun(run); err != nil {
			return err
		}
		if t.cli.Depth() >= t.depth {
			if _, err := t.cli.Flush(); err != nil {
				return err
			}
		}
	}
	_, err := t.cli.Flush()
	return err
}

// queueRun frames one same-kind run as a single MGET or MPUT request.
func (t *TCP) queueRun(run []loadgen.Op) error {
	if run[0].Put {
		t.kvs = t.kvs[:0]
		for _, op := range run {
			t.kvs = append(t.kvs, proto.KV{Key: op.Key, Value: op.Value})
		}
		return t.cli.QueueMPut(t.kvs)
	}
	t.keys = t.keys[:0]
	for _, op := range run {
		t.keys = append(t.keys, op.Key)
	}
	return t.cli.QueueMGet(t.keys)
}

// StatsJSON implements Target.
func (t *TCP) StatsJSON() ([]byte, error) { return t.cli.Stats() }

// Close implements Target.
func (t *TCP) Close() error {
	t.conn.Close()
	t.ln.Close()
	<-t.done
	return nil
}
