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
	"time"

	"rwp/internal/live"
	"rwp/internal/live/proto"
	"rwp/internal/snap"
)

// tcpServer accepts binary-protocol connections and serves each with
// proto.ServeConn until Shutdown. *live.Cache satisfies proto.Backend
// directly — Get/Put pass through and StatsJSON renders the exact
// /stats body, which is what makes the surfaces byte-comparable.
type tcpServer struct {
	ln     net.Listener
	b      proto.Backend
	stderr io.Writer

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // accept loop + one per live connection
}

// newTCPServer wraps an already-bound listener.
func newTCPServer(ln net.Listener, b proto.Backend, stderr io.Writer) *tcpServer {
	return &tcpServer{ln: ln, b: b, stderr: stderr, conns: map[net.Conn]struct{}{}}
}

// serve runs the accept loop until the listener closes. It returns nil
// after a Shutdown-initiated close.
func (s *tcpServer) serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
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
			err := proto.ServeConn(conn, s.b)
			if err != nil && !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
				// Protocol violations and transport failures are peer
				// problems, not server state: log and move on.
				fmt.Fprintf(s.stderr, "rwpserve: tcp %s: %v\n", conn.RemoteAddr(), err)
			}
		}()
	}
}

// shutdown stops accepting, expires every connection's read deadline
// so loops blocked at a frame boundary exit (in-flight responses still
// flush — the framed-protocol analogue of http.Server closing idle
// connections), then waits for the drain until ctx expires, after
// which the stragglers are closed hard.
func (s *tcpServer) shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
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
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
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
	fmt.Fprintf(stdout, "rwpserve: policy=%s sets=%d ways=%d shards=%d listening on http://%s\n",
		cfg.Policy, cfg.Sets, cfg.Ways, cfg.Shards, ln.Addr())
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
