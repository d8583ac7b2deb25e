package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	davix "godavix"
	"godavix/internal/httpserv"
	"godavix/internal/netsim"
	"godavix/internal/storage"
	"godavix/internal/xrootd"
)

// Simulated testbed addresses (netsim resolves names, not IPs).
const (
	simHTTPAddr = "dpm1:80"
	simXrdAddr  = "dpm1:1094"
)

// maxPerHost caps every client's pool: with at most two load goroutines
// per workload, two connections per host is all the load can use.
const maxPerHost = 2

// stack is the in-process dpm-server: httpserv over a MemStore, reachable
// over a netsim link or real loopback TCP. Every layer boundary the
// benchmark times is a wrapper installed here, from outside the program:
// the Store, the root http.Handler, the listener (netsim byte counts) and
// each client's Dialer.
type stack struct {
	sim    *netsim.Network // nil on loopback
	store  *timedStore
	server *httpserv.Server
	host   string

	// rec is the current phase's span recorder (nil when untraced).
	rec atomic.Pointer[recorder]

	simBytes    atomic.Int64 // bytes carried by netsim connections
	servedBytes atomic.Int64 // ranged GET response body bytes (Content-Length)
	putBytes    atomic.Int64 // PUT request body bytes (Content-Length)

	closers []func()
	wg      sync.WaitGroup
}

// newStack starts the server on the workload's link. withXrd also serves
// the same store over the xrootd baseline protocol (netsim only).
func newStack(link string, withXrd bool) (*stack, error) {
	st := &stack{store: &timedStore{mem: storage.NewMemStore()}}
	st.store.st = st
	st.server = httpserv.New(st.store, httpserv.Options{})
	st.closers = append(st.closers, st.server.Close)

	var l net.Listener
	var err error
	if link == linkLoopback {
		l, err = net.Listen("tcp", "127.0.0.1:0")
		if err == nil {
			st.host = l.Addr().String()
		}
	} else {
		st.sim = netsim.New(netsim.WAN())
		l, err = st.sim.Listen(simHTTPAddr)
		st.host = simHTTPAddr
		l = &countingListener{Listener: l, n: &st.simBytes}
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.serve(l, func(l net.Listener) { st.server.ServeHandler(l, http.HandlerFunc(st.handle)) })

	if withXrd {
		xrd := xrootd.NewServer(st.store)
		xl, err := st.sim.Listen(simXrdAddr)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("listen xrootd: %w", err)
		}
		st.serve(&countingListener{Listener: xl, n: &st.simBytes}, func(l net.Listener) { xrd.Serve(l) })
	}
	return st, nil
}

// serve runs fn on l in a goroutine that close stops and waits for.
func (st *stack) serve(l net.Listener, fn func(net.Listener)) {
	st.closers = append(st.closers, func() { l.Close() })
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		fn(l)
	}()
}

// close stops the servers and waits for their accept loops to exit.
func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.closers = nil
	st.wg.Wait()
}

// url names a path on the stack's HTTP server.
func (st *stack) url(p string) string { return "http://" + st.host + p }

// newClient builds one load lane's client. The lane's Dialer times each
// dial and hands back the raw connection: on loopback that is the
// *net.TCPConn itself, so the splice/sendfile paths stay reachable.
func (st *stack) newClient(lane int, opts davix.Options) (*davix.Client, error) {
	rec := st.rec.Load()
	var inner davix.Dialer = st.sim
	if st.sim == nil {
		inner = tcpDialer{}
	}
	opts.Dialer = &timedDialer{inner: inner, lane: lane, rec: rec}
	opts.MaxPerHost = maxPerHost
	opts.Trace = rec.clientTrace(lane)
	return davix.New(opts)
}

// handle is the root handler: the server itself, timed per request when a
// recorder is installed. The ResponseWriter is passed through unwrapped so
// the server's write path is exactly the one it has without the benchmark.
func (st *stack) handle(w http.ResponseWriter, r *http.Request) {
	rec := st.rec.Load()
	if rec == nil {
		st.server.ServeHTTP(w, r)
		return
	}
	start := rec.now()
	st.server.ServeHTTP(w, r)
	layer := "httpserv"
	if r.Method == "PROPFIND" {
		layer = "webdav"
	}
	rec.add(serverLane, levelServer, layer, r.Method, start, false)
	switch r.Method {
	case http.MethodGet:
		// Only ranged bodies are read to the end; a client may drop an
		// unranged GET after its headers (the multi-stream download's
		// Metalink probe does), so its Content-Length is not bytes moved.
		n, err := strconv.ParseInt(w.Header().Get("Content-Length"), 10, 64)
		if err == nil && r.Header.Get("Range") != "" {
			st.servedBytes.Add(n)
		}
	case http.MethodPut:
		if r.ContentLength > 0 {
			st.putBytes.Add(r.ContentLength)
		}
	}
}

// tcpDialer dials real TCP.
type tcpDialer struct{}

func (tcpDialer) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// timedDialer records each dial as a pool span and returns the inner
// dialer's connection as is.
type timedDialer struct {
	inner davix.Dialer
	lane  int
	rec   *recorder
}

func (d *timedDialer) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	start := d.rec.now()
	c, err := d.inner.DialContext(ctx, addr)
	d.rec.add(d.lane, levelPool, "pool", "dial", start, false)
	return c, err
}

// timedStore times every storage.Store call and forwards PutOwned, so the
// server keeps its zero-copy commit of assembled ranged uploads.
type timedStore struct {
	mem *storage.MemStore
	st  *stack
}

func (s *timedStore) span(name string) func() {
	rec := s.st.rec.Load()
	if rec == nil {
		return func() {}
	}
	start := rec.now()
	return func() { rec.add(serverLane, levelStore, "storage", name, start, false) }
}

func (s *timedStore) Get(p string) ([]byte, storage.Info, error) {
	defer s.span("Get")()
	return s.mem.Get(p)
}

func (s *timedStore) Put(p string, data []byte) error {
	defer s.span("Put")()
	return s.mem.Put(p, data)
}

// PutOwned is the server's zero-copy commit (see httpserv's ownedPutter).
func (s *timedStore) PutOwned(p string, data []byte) error {
	defer s.span("Put")()
	return s.mem.PutOwned(p, data)
}

func (s *timedStore) Delete(p string) error {
	defer s.span("Delete")()
	return s.mem.Delete(p)
}

func (s *timedStore) Stat(p string) (storage.Info, error) {
	defer s.span("Stat")()
	return s.mem.Stat(p)
}

func (s *timedStore) List(p string) ([]storage.Info, error) {
	defer s.span("List")()
	return s.mem.List(p)
}

func (s *timedStore) Mkdir(p string) error {
	defer s.span("Mkdir")()
	return s.mem.Mkdir(p)
}

func (s *timedStore) Copy(src, dst string) error {
	defer s.span("Copy")()
	return s.mem.Copy(src, dst)
}

func (s *timedStore) Move(src, dst string) error {
	defer s.span("Move")()
	return s.mem.Move(src, dst)
}

// countingListener counts the bytes crossing its accepted connections.
// Used on netsim links only, whose connections have no kernel fast path
// a wrapper could hide.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// sinceMs is a helper for timing a call in milliseconds.
func sinceMs(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
