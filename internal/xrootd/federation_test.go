package xrootd

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"godavix/internal/netsim"
	"godavix/internal/pool"
	"godavix/internal/storage"
)

// fedEnv: two data servers + a manager on one fabric.
type fedTestEnv struct {
	net     *netsim.Network
	stores  map[string]*storage.MemStore
	manager *Manager
}

func newFedTestEnv(t *testing.T, servers ...string) *fedTestEnv {
	t.Helper()
	e := &fedTestEnv{
		net:    netsim.New(netsim.Ideal()),
		stores: map[string]*storage.MemStore{},
	}
	for _, addr := range servers {
		st := storage.NewMemStore()
		srv := NewServer(st)
		l, err := e.net.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go srv.Serve(l)
		e.stores[addr] = st
	}
	e.manager = NewManager(e.net, servers, 20*time.Millisecond)
	ml, err := e.net.Listen("mgr:1094")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ml.Close() })
	go e.manager.Serve(ml)
	return e
}

func TestClusterLocateAndRead(t *testing.T) {
	e := newFedTestEnv(t, "ds1:1094", "ds2:1094")
	blob := make([]byte, 8192)
	rand.New(rand.NewSource(1)).Read(blob)
	e.stores["ds1:1094"].Put("/f", blob)
	e.stores["ds2:1094"].Put("/f", blob)

	cl := NewCluster(e.net, "mgr:1094")
	defer cl.Close()
	ctx := context.Background()

	f, err := cl.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if f.Server() != "ds1:1094" {
		t.Fatalf("bound to %s, want first server", f.Server())
	}
	if f.Size() != 8192 {
		t.Fatalf("size = %d", f.Size())
	}
	buf := make([]byte, 100)
	if _, err := f.ReadAt(ctx, buf, 500); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, blob[500:600]) {
		t.Fatal("content mismatch")
	}
	if e.manager.Locates() != 1 {
		t.Fatalf("locates = %d", e.manager.Locates())
	}
}

func TestClusterLocatesHolderOnly(t *testing.T) {
	e := newFedTestEnv(t, "ds1:1094", "ds2:1094")
	// Only ds2 holds the file.
	e.stores["ds2:1094"].Put("/only2", []byte("here"))

	cl := NewCluster(e.net, "mgr:1094")
	defer cl.Close()
	f, err := cl.Open(context.Background(), "/only2")
	if err != nil {
		t.Fatal(err)
	}
	if f.Server() != "ds2:1094" {
		t.Fatalf("bound to %s", f.Server())
	}
}

func TestClusterFailoverOnServerDeath(t *testing.T) {
	e := newFedTestEnv(t, "ds1:1094", "ds2:1094")
	blob := make([]byte, 4096)
	rand.New(rand.NewSource(2)).Read(blob)
	e.stores["ds1:1094"].Put("/f", blob)
	e.stores["ds2:1094"].Put("/f", blob)

	cl := NewCluster(e.net, "mgr:1094")
	defer cl.Close()
	ctx := context.Background()
	f, err := cl.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}

	// Kill the bound server mid-session.
	e.net.SetDown("ds1:1094", true)
	time.Sleep(25 * time.Millisecond) // manager health cache expiry

	buf := make([]byte, 256)
	if _, err := f.ReadAt(ctx, buf, 1024); err != nil {
		t.Fatalf("federated failover read: %v", err)
	}
	if !bytes.Equal(buf, blob[1024:1280]) {
		t.Fatal("failover content mismatch")
	}
	if f.Server() != "ds2:1094" {
		t.Fatalf("rebound to %s, want ds2", f.Server())
	}
}

// TestClusterFailoverSkipsTriedServer: the client loses ds1 while the
// manager still reaches it (a partition on the client's side), so the
// manager's own probe calls ds1 alive. Only the tried list keeps the
// re-locate from naming ds1 again.
func TestClusterFailoverSkipsTriedServer(t *testing.T) {
	e := newFedTestEnv(t, "ds1:1094", "ds2:1094")
	blob := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(blob)
	e.stores["ds1:1094"].Put("/f", blob)
	e.stores["ds2:1094"].Put("/f", blob)

	var (
		mu    sync.Mutex
		cut   bool
		toDS1 []net.Conn
	)
	dialer := pool.DialerFunc(func(ctx context.Context, addr string) (net.Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		if addr == "ds1:1094" && cut {
			return nil, errors.New("partitioned")
		}
		c, err := e.net.DialContext(ctx, addr)
		if err == nil && addr == "ds1:1094" {
			toDS1 = append(toDS1, c)
		}
		return c, err
	})
	cl := NewCluster(dialer, "mgr:1094")
	defer cl.Close()
	ctx := context.Background()
	f, err := cl.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if f.Server() != "ds1:1094" {
		t.Fatalf("bound to %s, want ds1", f.Server())
	}
	mu.Lock()
	cut = true
	for _, c := range toDS1 {
		c.Close()
	}
	mu.Unlock()

	buf := make([]byte, 256)
	if _, err := f.ReadAt(ctx, buf, 512); err != nil {
		t.Fatalf("federated failover read: %v", err)
	}
	if !bytes.Equal(buf, blob[512:768]) {
		t.Fatal("failover content mismatch")
	}
	if f.Server() != "ds2:1094" {
		t.Fatalf("rebound to %s, want ds2", f.Server())
	}
}

func TestLocatePayloadRoundTrip(t *testing.T) {
	for _, tried := range [][]string{nil, {"ds1:1094"}, {"ds1:1094", "ds2:1094"}} {
		path, got := parseLocate(string(locatePayload("/store/f", tried)))
		if path != "/store/f" || !slices.Equal(got, tried) {
			t.Fatalf("tried %v: parsed %q %v", tried, path, got)
		}
	}
}

func TestClusterNoReplicaAnywhere(t *testing.T) {
	e := newFedTestEnv(t, "ds1:1094")
	cl := NewCluster(e.net, "mgr:1094")
	defer cl.Close()
	_, err := cl.Open(context.Background(), "/ghost")
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v", err)
	}
}

func TestClusterAllServersDead(t *testing.T) {
	e := newFedTestEnv(t, "ds1:1094", "ds2:1094")
	blob := []byte("data")
	e.stores["ds1:1094"].Put("/f", blob)
	e.stores["ds2:1094"].Put("/f", blob)

	cl := NewCluster(e.net, "mgr:1094")
	defer cl.Close()
	ctx := context.Background()
	f, err := cl.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	e.net.SetDown("ds1:1094", true)
	e.net.SetDown("ds2:1094", true)
	time.Sleep(25 * time.Millisecond)
	if _, err := f.ReadAt(ctx, make([]byte, 4), 0); err == nil {
		t.Fatal("read succeeded with every server dead")
	}
}

func TestManagerRefusesDataOps(t *testing.T) {
	e := newFedTestEnv(t, "ds1:1094")
	e.stores["ds1:1094"].Put("/f", []byte("x"))
	// Talk to the manager as if it were a data server.
	c := NewClient(e.net, "mgr:1094")
	defer c.Close()
	if _, err := c.Open(context.Background(), "/f"); err == nil {
		t.Fatal("manager served an Open")
	}
}
