package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rwp/internal/live"
	"rwp/internal/live/proto"
	"rwp/internal/snap"
)

// Limits on the binary listener: what one peer, or a crowd of them,
// can hold. A connection past maxConns gets one ERR frame and is
// closed; a write that the peer does not drain within writeTimeout
// fails and closes its connection, so a peer that stops reading costs
// that connection, not a goroutine held forever. A peer that has sent
// any byte of a frame must send the rest within frameTimeout, or it
// loses its connection too; a peer idle between frames is never timed
// out, because a router's connection is idle between windows. One
// RESTORE transfer at a time is staged (see proto.RestoreStager).
const (
	maxConns     = 1024
	writeTimeout = 10 * time.Second
	frameTimeout = 10 * time.Second
)

// errConnLimit is the ERR frame's message to a connection past maxConns.
var errConnLimit = []byte("rwpserve: connection limit reached")

// tcpServer accepts binary-protocol connections and serves each with
// proto.ServeConn until Shutdown. *live.Cache satisfies proto.Backend
// directly — Get/Put pass through and StatsJSON renders the exact
// /stats body, which is what makes the surfaces byte-comparable.
type tcpServer struct {
	ln     net.Listener
	b      proto.Backend
	stderr io.Writer

	// maxConns, writeTimeout and frameTimeout are the listener's
	// limits, the package constants unless a test lowers them before
	// serve.
	maxConns     int
	writeTimeout time.Duration
	frameTimeout time.Duration

	// staging is held by the one connection staging a RESTORE.
	staging atomic.Bool
	// closed is set when shutdown begins. The accept loop checks it
	// under mu, so a connection is either in conns when shutdown walks
	// them or never served.
	closed atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup // accept loop + one per live connection
}

// newTCPServer wraps an already-bound listener.
func newTCPServer(ln net.Listener, b proto.Backend, stderr io.Writer) *tcpServer {
	return &tcpServer{ln: ln, b: b, stderr: stderr,
		maxConns: maxConns, writeTimeout: writeTimeout, frameTimeout: frameTimeout,
		conns: map[net.Conn]struct{}{}}
}

// serve runs the accept loop until the listener closes. It returns nil
// after a Shutdown-initiated close.
func (s *tcpServer) serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		if len(s.conns) >= s.maxConns {
			s.mu.Unlock()
			s.refuse(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			defer func() {
				// Defense in depth: a bug in the protocol loop must
				// cost one connection, not the process.
				if p := recover(); p != nil {
					fmt.Fprintf(s.stderr, "rwpserve: tcp %s: panic: %v\n", conn.RemoteAddr(), p)
				}
			}()
			err := proto.ServeConn(&servedConn{Conn: conn, s: s, frame: -1}, s.b)
			if err != nil && !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
				// Protocol violations and transport failures are peer
				// problems, not server state: log and move on.
				fmt.Fprintf(s.stderr, "rwpserve: tcp %s: %v\n", conn.RemoteAddr(), err)
			}
		}()
	}
}

// refuse tells a connection past the cap why before closing it. The
// frame is small enough for an empty socket buffer, and the write
// deadline bounds the accept loop's wait even so. Both calls are best
// effort: a peer that is already gone loses only the reason.
func (s *tcpServer) refuse(conn net.Conn) {
	conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	conn.Write(proto.AppendFrame(nil, proto.OpErr, errConnLimit))
	conn.Close()
}

// servedConn is a connection as ServeConn sees it: the listener's
// deadlines and its RESTORE staging limit. Every write gets its own
// deadline, writeTimeout from the write's start: a peer that stops
// reading fills the socket buffers, the flush blocked behind them fails
// with os.ErrDeadlineExceeded, and ServeConn returns. A frame gets a
// read deadline, frameTimeout from the first read that finds it partly
// buffered (proto.MidFrameReader), lifted at the next read at a frame
// boundary: a peer stalled inside a frame fails the same way.
type servedConn struct {
	net.Conn
	s     *tcpServer
	frame int64 // the frame the read deadline is set for; -1 for none
}

// Write implements io.Writer.
func (c *servedConn) Write(b []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(time.Now().Add(c.s.writeTimeout)); err != nil {
		return 0, err
	}
	return c.Conn.Write(b)
}

// Read is a read at a frame boundary: it lifts the last frame's
// deadline.
func (c *servedConn) Read(b []byte) (int, error) {
	if c.frame >= 0 {
		c.frame = -1
		if err := c.setReadDeadline(time.Time{}); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(b)
}

// ReadMidFrame implements proto.MidFrameReader: the first read of each
// frame in progress sets its deadline.
func (c *servedConn) ReadMidFrame(b []byte, frame int64) (int, error) {
	if frame != c.frame {
		c.frame = frame
		if err := c.setReadDeadline(time.Now().Add(c.s.frameTimeout)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(b)
}

// setReadDeadline sets t unless shutdown has begun, whose expired
// deadline must stand. shutdown sets closed before it expires the
// deadlines, so either it expires this one after t was set, or this
// sees closed and expires it here.
func (c *servedConn) setReadDeadline(t time.Time) error {
	if err := c.Conn.SetReadDeadline(t); err != nil {
		return err
	}
	if c.s.closed.Load() {
		return c.Conn.SetReadDeadline(time.Now())
	}
	return nil
}

// StageRestore implements proto.RestoreStager: the server stages one
// transfer at a time.
func (c *servedConn) StageRestore() bool { return c.s.staging.CompareAndSwap(false, true) }

// UnstageRestore implements proto.RestoreStager.
func (c *servedConn) UnstageRestore() { c.s.staging.Store(false) }

// shutdown stops accepting, expires every connection's read deadline
// so loops blocked at a frame boundary exit (in-flight responses still
// flush — the framed-protocol analogue of http.Server closing idle
// connections), then waits for the drain until ctx expires, after
// which the stragglers are closed hard.
func (s *tcpServer) shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed.Store(true)
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.ln.Close()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			// Hard-close of stragglers at shutdown; the lock only guards
			// the conns map, and Close on a TCP conn does not block.
			//rwplint:allow lockheld — shutdown hard-close; nothing else contends for s.mu anymore
			conn.Close() // unblocks ServeConn reads; order irrelevant
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// shutdownNow drains with an already-expired deadline: close listener
// and connections immediately (test teardown, nothing to drain
// gracefully).
func (s *tcpServer) shutdownNow() error {
	s.closed.Store(true)
	s.ln.Close()
	s.mu.Lock()
	for conn := range s.conns {
		// Teardown hard-close; the lock only guards the conns map, and
		// Close on a TCP conn does not block.
		//rwplint:allow lockheld — teardown hard-close; nothing else contends for s.mu anymore
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// shutdownTimeout bounds the graceful drain of both servers. The
// stats* timeouts bound what one peer of the operator endpoint can
// hold: a request that never finishes arriving, a keep-alive connection
// that is never reused. A broken peer costs a connection, never more.
const (
	shutdownTimeout        = 5 * time.Second
	statsReadHeaderTimeout = 5 * time.Second
	statsReadTimeout       = 10 * time.Second
	statsIdleTimeout       = time.Minute
)

// newStatsServer builds the operator's read-only HTTP endpoint:
// GET/HEAD /stats answers the stats document, any other method on it
// 405, every other path 404. Data travels over the binary listener.
func newStatsServer(b proto.Backend) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		data, err := b.StatsJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	return &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: statsReadHeaderTimeout,
		ReadTimeout:       statsReadTimeout,
		IdleTimeout:       statsIdleTimeout,
	}
}

// serve listens on tcpAddr (the binary protocol, the data wire) and on
// httpAddr (the operator's /stats), then runs both servers until ctx
// is cancelled (SIGINT/SIGTERM in main) or either listener fails.
// Shutdown is shared and ordered: both listeners stop accepting, then
// both drain in-flight work within shutdownTimeout.
//
// When snapPath is non-empty a state snapshot is written there after
// the graceful drain (so it reflects every answered request), and —
// with snapEvery > 0 — checkpointed every snapEvery data ops along the
// way via the snapCache wrapper on the op path.
func serve(ctx context.Context, httpAddr, tcpAddr string, c *live.Cache, snapPath string, snapEvery uint64, stdout, stderr io.Writer) error {
	ln, err := net.Listen("tcp", httpAddr)
	if err != nil {
		return err
	}
	tln, err := net.Listen("tcp", tcpAddr)
	if err != nil {
		ln.Close()
		return err
	}
	cfg := c.Config()
	fmt.Fprintf(stdout, "rwpserve: policy=%s sets=%d ways=%d listening on http://%s\n",
		cfg.Policy, cfg.Sets, cfg.Ways, ln.Addr())
	fmt.Fprintf(stdout, "rwpserve: binary protocol listening on tcp://%s\n", tln.Addr())

	var backend proto.Backend = c
	var sc *snapCache
	if snapPath != "" {
		sc = newSnapCache(c, snapPath, snapEvery, stderr)
		backend = sc
	}

	errc := make(chan error, 2)
	tsrv := newTCPServer(tln, backend, stderr)
	go func() { errc <- tsrv.serve() }()
	srv := newStatsServer(backend)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// One server failed (or, for TCP, exited): tear the other down.
		sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		srv.Shutdown(sctx)
		tsrv.shutdown(sctx)
		if sc != nil {
			sc.drain() // no final snapshot on a failure exit
		}
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "rwpserve: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	// Ordering: the stats listener drains first (it owns request
	// lifecycles), the binary listener second; both share the one
	// deadline.
	if err := srv.Shutdown(sctx); err != nil {
		tsrv.shutdown(sctx)
		return err
	}
	if err := tsrv.shutdown(sctx); err != nil {
		return err
	}
	<-errc // tcp serve() returns nil after shutdown
	<-errc // http Serve returns ErrServerClosed after Shutdown
	if snapPath != "" {
		// After the full drain: the shutdown snapshot reflects every
		// answered request, and no checkpoint can race the final write.
		sc.drain()
		if err := snap.WriteFile(snapPath, c.Snapshot()); err != nil {
			return fmt.Errorf("shutdown snapshot: %w", err)
		}
		fmt.Fprintf(stdout, "rwpserve: snapshot written to %s\n", snapPath)
	}
	return nil
}
