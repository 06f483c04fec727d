package drive

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
)

// Backend is the operation surface Handler serves — *live.Cache
// directly, or a wrapper that forwards to one (rwpserve's
// checkpointing snapshot wrapper). It is the same shape as
// proto.Backend, so one wrapper covers both transports.
type Backend interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte) bool
	StatsJSON() ([]byte, error)
}

// Handler wires the cache's HTTP surface: /get, /put, /stats. This is
// the exact handler rwpserve serves; the HTTP target wraps it around a
// loopback listener so driving "http" exercises the same code an
// external client hits.
func Handler(c Backend) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/get", func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("key")
		if key == "" {
			http.Error(w, "missing key parameter", http.StatusBadRequest)
			return
		}
		v, hit := c.Get(key)
		switch {
		case hit:
			w.Header().Set("X-Cache", "hit")
		case v != nil:
			w.Header().Set("X-Cache", "fill") // loader backfill
		default:
			w.Header().Set("X-Cache", "miss")
			http.Error(w, "key not found", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(v)
	})
	mux.HandleFunc("/put", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut && r.Method != http.MethodPost {
			http.Error(w, "use PUT or POST", http.StatusMethodNotAllowed)
			return
		}
		key := r.URL.Query().Get("key")
		if key == "" {
			http.Error(w, "missing key parameter", http.StatusBadRequest)
			return
		}
		val, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if c.Put(key, val) {
			w.Header().Set("X-Cache", "insert")
		} else {
			w.Header().Set("X-Cache", "overwrite")
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		data, err := c.StatsJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	return mux
}

// HTTP drives the HTTP surface: one request per op, exactly like an
// external client of /get and /put, against a loopback server the
// target owns.
type HTTP struct {
	srv    *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

// NewHTTP spins a loopback HTTP server over Handler(c) and a client
// for it.
func NewHTTP(c *live.Cache) (*HTTP, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &HTTP{
		srv:    &http.Server{Handler: Handler(c)},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{},
		done:   make(chan struct{}),
	}
	go func() {
		defer close(t.done)
		t.srv.Serve(ln) // returns ErrServerClosed after Close
	}()
	return t, nil
}

// Replay implements Target.
func (t *HTTP) Replay(ops []loadgen.Op) error {
	for i := range ops {
		if err := t.do(&ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// do issues one op as one HTTP request.
func (t *HTTP) do(op *loadgen.Op) error {
	if op.Put {
		req, err := http.NewRequest(http.MethodPut,
			t.url+"/put?key="+op.Key, bytes.NewReader(op.Value))
		if err != nil {
			return err
		}
		resp, err := t.client.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			return fmt.Errorf("put %q: status %d", op.Key, resp.StatusCode)
		}
		return nil
	}
	resp, err := t.client.Get(t.url + "/get?key=" + op.Key)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("get %q: status %d", op.Key, resp.StatusCode)
	}
	return nil
}

// StatsJSON implements Target.
func (t *HTTP) StatsJSON() ([]byte, error) {
	resp, err := t.client.Get(t.url + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Close implements Target.
func (t *HTTP) Close() error {
	err := t.srv.Close()
	<-t.done
	return err
}
