package core

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"godavix/internal/bufpool"
	"godavix/internal/httpserv"
	"godavix/internal/metalink"
	"godavix/internal/obs"
	"godavix/internal/pool"
	"godavix/internal/storage"
)

// Every chunk download — DownloadMultiStream, DownloadMultiStreamTo and
// the source side of CopyStream — runs through one engine. These tests pin
// the behaviour that engine must give all three callers alike.

// newMetalinkEnv serves blob at /f on each replica and a Metalink for it,
// carrying checksum, from the fed:80 front-end.
func newMetalinkEnv(t *testing.T, opts Options, blob []byte, checksum string, replicas ...string) *testEnv {
	t.Helper()
	opts.MetalinkHost = "fed:80"
	e := newEnv(t, opts)
	var urls []metalink.URL
	for i, r := range replicas {
		e.startServer(t, r, httpserv.Options{})
		e.stores[r].Put("/f", blob)
		urls = append(urls, metalink.URL{Loc: "http://" + r + "/f", Priority: i + 1})
	}
	ml := &metalink.Metalink{Name: "f", Size: int64(len(blob)), Checksum: checksum, URLs: urls}
	e.startServer(t, "fed:80", httpserv.Options{
		Metalinks: func(string) *metalink.Metalink { return ml },
	})
	return e
}

// TestChunkPathMultiStreamVerify pins DownloadMultiStream's integrity
// contract against the Metalink checksum: VerifyTransfers decides whether
// it is checked, combinable and order-dependent algorithms both catch a
// wrong value, and an algorithm the client cannot compute fails loudly.
func TestChunkPathMultiStreamVerify(t *testing.T) {
	blob := uploadBlob(20<<10+123, 71)
	wrongMD5 := md5.Sum(append([]byte("not "), blob...))
	for _, tc := range []struct {
		name     string
		verify   bool
		checksum string
		wantErr  error
	}{
		{"adler32 ok", true, storage.Checksum(blob), nil},
		{"adler32 wrong", true, "adler32:00000001", ErrChecksumMismatch},
		{"md5 wrong", true, "md5:" + hex.EncodeToString(wrongMD5[:]), ErrChecksumMismatch},
		{"sha256 unsupported", true, "sha256:" + strings.Repeat("ab", 32), ErrChecksumUnsupported},
		{"verify off", false, "adler32:00000001", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newMetalinkEnv(t, Options{ChunkSize: 4 << 10, MaxStreams: 3, VerifyTransfers: tc.verify},
				blob, tc.checksum, dpm1, "dpm2:80")
			got, err := e.client.DownloadMultiStream(context.Background(), dpm1, "/f")
			m := e.client.Metrics()
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				if m.TransfersVerified != 0 {
					t.Fatalf("TransfersVerified = %d after a failed check", m.TransfersVerified)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(blob) {
				t.Fatal("content mismatch")
			}
			want := int64(0)
			if tc.verify {
				want = 1
			}
			if m.TransfersVerified != want {
				t.Fatalf("TransfersVerified = %d, want %d", m.TransfersVerified, want)
			}
		})
	}
}

// TestChunkPathCancelStalledBody cancels each chunk download while its
// response body is stalled mid-payload. The caller's cancellation must
// interrupt the blocked body read (not wait out the stall) and surface as
// context.Canceled, not as the i/o timeout it provokes underneath.
func TestChunkPathCancelStalledBody(t *testing.T) {
	const stall = 2 * time.Second
	blob := uploadBlob(256<<10, 72) // one chunk at the default ChunkSize
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context, c *Client) error
	}{
		{"DownloadMultiStream", func(ctx context.Context, c *Client) error {
			_, err := c.DownloadMultiStream(ctx, dpm1, "/f")
			return err
		}},
		{"DownloadMultiStreamTo", func(ctx context.Context, c *Client) error {
			_, err := c.DownloadMultiStreamTo(ctx, dpm1, "/f", &bufWriterAt{b: make([]byte, len(blob))})
			return err
		}},
		{"CopyStream", func(ctx context.Context, c *Client) error {
			return c.CopyStream(ctx, dpm1, "/f", "http://dpm2:80/copy")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newMetalinkEnv(t, Options{}, blob, "", dpm1)
			e.startServer(t, "dpm2:80", httpserv.Options{})
			e.srvs[dpm1].SetFault("/f", httpserv.Fault{StallBody: stall})

			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(100*time.Millisecond, cancel)
			defer timer.Stop()
			start := time.Now()
			err := tc.run(ctx, e.client)
			took := time.Since(start)
			if took > 500*time.Millisecond {
				t.Errorf("returned after %v; the %v body stall was not interrupted", took, stall)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestChunkPathBytePathCounters checks that an in-memory multi-stream
// download classifies every payload byte exactly once and that its
// successful chunk events tile the object.
func TestChunkPathBytePathCounters(t *testing.T) {
	blob := uploadBlob(10<<10+37, 73)
	var (
		mu     sync.Mutex
		chunks int64
	)
	trace := &obs.ClientTrace{
		ChunkDone: func(dir obs.Direction, _ string, _ int, _, length int64, err error) {
			if dir == obs.Down && err == nil {
				mu.Lock()
				chunks += length
				mu.Unlock()
			}
		},
	}
	e := newMetalinkEnv(t, Options{ChunkSize: 1 << 10, MaxStreams: 3, Trace: trace},
		blob, "", dpm1, "dpm2:80", "dpm3:80")
	got, err := e.client.DownloadMultiStream(context.Background(), dpm1, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(blob) {
		t.Fatal("content mismatch")
	}
	if m := e.client.Metrics(); m.PooledBytesDown != int64(len(blob)) || m.KernelBytesDown != 0 {
		t.Fatalf("PooledBytesDown = %d, KernelBytesDown = %d; want %d, 0",
			m.PooledBytesDown, m.KernelBytesDown, len(blob))
	}
	mu.Lock()
	defer mu.Unlock()
	if chunks != int64(len(blob)) {
		t.Fatalf("ChunkDone lengths sum to %d, want %d", chunks, len(blob))
	}
}

// BenchmarkChunkDownload compares the streamed chunk download, where each
// response body is scattered straight into the destination, with the
// chunk-materialize loop it replaced: every chunk fetched whole into a
// pooled ChunkSize buffer, then written with one WriteAt. Chunks are 8 MiB,
// past the buffer pool's 4 MiB ceiling, so the materialize loop allocates a
// fresh buffer per chunk as it would at production chunk sizes. It runs
// over loopback TCP, because netsim pipes allocate per write and would
// drown the client's allocations. Run it with
// `go test -bench ChunkDownload ./internal/core/`.
func BenchmarkChunkDownload(b *testing.B) {
	const (
		size    = 32 << 20
		chunk   = 8 << 20
		streams = 4
	)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Skip("no loopback TCP:", err)
	}
	defer l.Close()
	store := storage.NewMemStore()
	store.Put("/f", uploadBlob(size, 74))
	go httpserv.New(store, httpserv.Options{}).Serve(l)
	host := l.Addr().String()
	replicas := []Replica{{Host: host, Path: "/f"}}

	for _, mode := range []string{"streamed", "buffered"} {
		b.Run(mode, func(b *testing.B) {
			c, err := NewClient(Options{
				Dialer: pool.DialerFunc(func(ctx context.Context, addr string) (net.Conn, error) {
					var d net.Dialer
					return d.DialContext(ctx, "tcp", addr)
				}),
				Pool:     pool.Options{MaxPerHost: streams},
				Strategy: StrategyNone, ChunkSize: chunk, MaxStreams: streams, StatTTL: time.Minute,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			w := &chunkBuf{buf: make([]byte, size)}
			ctx := context.Background()
			op := func() error {
				if mode == "streamed" {
					n, err := c.DownloadMultiStreamTo(ctx, host, "/f", w)
					if err == nil && n != size {
						err = fmt.Errorf("downloaded %d bytes, want %d", n, size)
					}
					return err
				}
				return c.forEachChunk(ctx, 0, size, streams, func(cctx context.Context, idx int, off, ln int64) error {
					buf := bufpool.Get(int(ln))
					defer bufpool.Put(buf)
					if err := c.readChunkReplicas(cctx, replicas, idx, off, buf); err != nil {
						return err
					}
					_, err := w.WriteAt(buf, off)
					return err
				})
			}
			if err := op(); err != nil { // warm the pool and the stat cache
				b.Fatal(err)
			}
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
