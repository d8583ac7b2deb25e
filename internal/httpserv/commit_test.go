package httpserv

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"hash/adler32"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godavix/internal/digest"
	"godavix/internal/storage"
)

// doPut sends one PUT (a Content-Range chunk when cr is set) and returns
// the status and the adler32 entry of the response's Digest header,
// rendered "adler32:%08x" ("" when absent).
func doPut(t *testing.T, url string, body []byte, cr string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if cr != "" {
		req.Header.Set("Content-Range", cr)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	ck, ok := digest.FromDigestHeader(resp.Header.Get("Digest"), digest.Adler32)
	if !ok {
		return resp.StatusCode, ""
	}
	return resp.StatusCode, ck.String()
}

// headChecksum returns the X-Checksum a HEAD of url reports.
func headChecksum(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Head(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD %s = %d", url, resp.StatusCode)
	}
	return resp.Header.Get("X-Checksum")
}

func wantAdler32(b []byte) string { return fmt.Sprintf("adler32:%08x", adler32.Checksum(b)) }

// putRanged uploads body as ceil(len/chunk) Content-Range chunks, in
// order, and returns the Digest of the committing (last) chunk's 201.
func putRanged(t *testing.T, url string, body []byte, chunk int) string {
	t.Helper()
	var sum string
	for off := 0; off < len(body); off += chunk {
		end := min(off+chunk, len(body))
		code, d := doPut(t, url, body[off:end], fmt.Sprintf("bytes %d-%d/%d", off, end-1, len(body)))
		want := http.StatusAccepted
		if end == len(body) {
			want, sum = http.StatusCreated, d
		}
		if code != want {
			t.Fatalf("chunk at %d: status %d, want %d", off, code, want)
		}
	}
	return sum
}

// checkCommitRoundTrip PUTs objects whole and in ranged chunks through a
// server over st and checks that each 201's Digest is the adler32 of the
// bytes sent and matches the X-Checksum of a following HEAD.
func checkCommitRoundTrip(t *testing.T, st storage.Store) {
	t.Helper()
	ts := httptest.NewServer(New(st, Options{}))
	t.Cleanup(ts.Close)
	for _, n := range []int{1, 1000, 3 << 20} {
		body := patterned(n)
		body[n/2] ^= byte(n) // distinct content per size
		want := wantAdler32(body)

		url := fmt.Sprintf("%s/commit/whole-%d", ts.URL, n)
		code, got := doPut(t, url, body, "")
		if code != http.StatusCreated || got != want {
			t.Errorf("whole %d: status %d Digest %q, want 201 %q", n, code, got, want)
		}
		if x := headChecksum(t, url); x != want {
			t.Errorf("whole %d: HEAD X-Checksum %q, want %q", n, x, want)
		}

		url = fmt.Sprintf("%s/commit/ranged-%d", ts.URL, n)
		if got := putRanged(t, url, body, max(n/3, 1)); got != want {
			t.Errorf("ranged %d: Digest %q, want %q", n, got, want)
		}
		if x := headChecksum(t, url); x != want {
			t.Errorf("ranged %d: HEAD X-Checksum %q, want %q", n, x, want)
		}
	}
}

// TestPutDigestIsCommitChecksum: over the zero-copy MemStore, whose commit
// checksum the Digest is read from, both PUT paths report the bytes sent.
func TestPutDigestIsCommitChecksum(t *testing.T) {
	checkCommitRoundTrip(t, storage.NewMemStore())
}

// TestPutDigestDiskStore: the same round trip over a DiskStore, which has
// no ownedPutter and does not hash on Put.
func TestPutDigestDiskStore(t *testing.T) {
	st, err := storage.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	checkCommitRoundTrip(t, st)
}

// plainStore exposes only the storage.Store methods of the store it wraps
// (no PutOwned) and counts Get calls.
type plainStore struct {
	storage.Store
	gets atomic.Int64
}

func (s *plainStore) Get(p string) ([]byte, storage.Info, error) {
	s.gets.Add(1)
	return s.Store.Get(p)
}

// TestPutDigestPlainStoreNoReadBack: a store without ownedPutter still gets
// a correct Digest, hashed from the request's bytes, and is never read
// back during the PUT.
func TestPutDigestPlainStoreNoReadBack(t *testing.T) {
	st := &plainStore{Store: storage.NewMemStore()}
	ts := httptest.NewServer(New(st, Options{}))
	t.Cleanup(ts.Close)
	body := patterned(100000)
	want := wantAdler32(body)
	if code, got := doPut(t, ts.URL+"/plain/whole", body, ""); code != http.StatusCreated || got != want {
		t.Errorf("whole: status %d Digest %q, want 201 %q", code, got, want)
	}
	if got := putRanged(t, ts.URL+"/plain/ranged", body, 30000); got != want {
		t.Errorf("ranged: Digest %q, want %q", got, want)
	}
	if n := st.gets.Load(); n != 0 {
		t.Errorf("store saw %d Get calls during PUT, want 0", n)
	}
}

// skewedStore takes ownership like MemStore but reads back a checksum of
// its choosing, either with the committed slice or with a copy of it
// (identity lost).
type skewedStore struct {
	*storage.MemStore
	clone    bool
	checksum string
}

func (s *skewedStore) Get(p string) ([]byte, storage.Info, error) {
	data, inf, err := s.MemStore.Get(p)
	if s.clone {
		data = bytes.Clone(data)
	}
	inf.Checksum = s.checksum
	return data, inf, err
}

// TestPutDigestTrustsOnlyProvenInfo: the commit checksum is used, with no
// second hash, exactly when Get hands back the committed slice with a
// parsable adler32; otherwise the Digest is hashed from the request's
// bytes.
func TestPutDigestTrustsOnlyProvenInfo(t *testing.T) {
	body := patterned(5000)
	want := wantAdler32(body)
	for _, c := range []struct {
		st      *skewedStore
		trusted bool
	}{
		{st: &skewedStore{MemStore: storage.NewMemStore(), clone: true, checksum: "adler32:deadbeef"}},
		{st: &skewedStore{MemStore: storage.NewMemStore(), checksum: "adler32:xyz"}},
		{st: &skewedStore{MemStore: storage.NewMemStore(), checksum: "crc32:deadbeef"}},
		// Identity holds: the store's value is the Digest, as is.
		{st: &skewedStore{MemStore: storage.NewMemStore(), checksum: "adler32:0badc0de"}, trusted: true},
	} {
		want := want
		if c.trusted {
			want = c.st.checksum
		}
		label := fmt.Sprintf("clone=%v checksum=%q", c.st.clone, c.st.checksum)
		ts := httptest.NewServer(New(c.st, Options{}))
		if code, got := doPut(t, ts.URL+"/skew", body, ""); code != http.StatusCreated || got != want {
			t.Errorf("%s whole: status %d Digest %q, want 201 %q", label, code, got, want)
		}
		if got := putRanged(t, ts.URL+"/skew-ranged", body, 2000); got != want {
			t.Errorf("%s ranged: Digest %q, want %q", label, got, want)
		}
		ts.Close()
	}
}

// slackStore is a MemStore that records, for every slice it takes
// ownership of, how much capacity lies past its length.
type slackStore struct {
	*storage.MemStore
	slack atomic.Int64
}

func (s *slackStore) PutOwned(p string, data []byte) error {
	s.slack.Add(int64(cap(data) - len(data)))
	return s.MemStore.PutOwned(p, data)
}

// TestChunkedPutStoresExactSize: a whole-body PUT without Content-Length
// (chunked transfer coding) commits the bytes sent, and the store is
// handed an exactly-sized slice, not io.ReadAll's grown buffer.
func TestChunkedPutStoresExactSize(t *testing.T) {
	st := &slackStore{MemStore: storage.NewMemStore()}
	srv := New(st, Options{})
	var framed atomic.Int64 // non-empty PUTs that arrived with a Content-Length
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && r.ContentLength > 0 {
			framed.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	for _, n := range []int{1, 1000, 300000} {
		body := patterned(n)
		url := fmt.Sprintf("%s/chunked/%d", ts.URL, n)
		// An io.Reader of unknown length makes the client send the body
		// chunked, so the server sees ContentLength -1.
		req, err := http.NewRequest(http.MethodPut, url, io.MultiReader(bytes.NewReader(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := wantAdler32(body)
		got, _ := digest.FromDigestHeader(resp.Header.Get("Digest"), digest.Adler32)
		if resp.StatusCode != http.StatusCreated || got.String() != want {
			t.Errorf("%d: status %d Digest %q, want 201 %q", n, resp.StatusCode, got.String(), want)
		}
		if x := headChecksum(t, url); x != want {
			t.Errorf("%d: HEAD X-Checksum %q, want %q", n, x, want)
		}
		stored, _, err := st.Get(url[len(ts.URL):])
		if err != nil || !bytes.Equal(stored, body) {
			t.Errorf("%d: stored %d bytes (err %v), want the %d sent", n, len(stored), err, n)
		}
	}
	if n := framed.Load(); n != 0 {
		t.Fatalf("%d PUTs were sent with a Content-Length, want all chunked", n)
	}
	if s := st.slack.Load(); s != 0 {
		t.Errorf("store kept %d bytes of capacity past the committed lengths, want 0", s)
	}
}

// lagStore is a MemStore whose PutOwned returns a little after the commit
// lands, as a store that syncs after publishing would. The lag opens the
// window in which another writer replaces the path before the server
// reads the commit back.
type lagStore struct{ *storage.MemStore }

func (s lagStore) PutOwned(p string, data []byte) error {
	err := s.MemStore.PutOwned(p, data)
	time.Sleep(time.Millisecond)
	return err
}

// TestRangedCommitDigestUnderRacingWholePuts: while one goroutine keeps
// replacing the path with different bytes of the same size, every ranged
// upload that commits (201) reports the digest of its own bytes, never of
// the racing writer's.
func TestRangedCommitDigestUnderRacingWholePuts(t *testing.T) {
	ts := httptest.NewServer(New(lagStore{storage.NewMemStore()}, Options{}))
	t.Cleanup(ts.Close)
	url := ts.URL + "/race"
	const n = 64 << 10
	ranged := patterned(n)
	other := bytes.Clone(ranged)
	other[0] ^= 0xff
	want := wantAdler32(ranged)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			req, _ := http.NewRequest(http.MethodPut, url, bytes.NewReader(other))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	commits := 0
	for i := 0; i < 200 && commits < 50; i++ {
		// One chunk covering the whole total: it commits unless a whole
		// PUT abandons its assembly mid-copy (202).
		code, got := doPut(t, url, ranged, fmt.Sprintf("bytes 0-%d/%d", n-1, n))
		if code == http.StatusCreated {
			commits++
			if got != want {
				t.Errorf("ranged commit %d: Digest %q, want %q", commits, got, want)
			}
		}
	}
	close(stop)
	wg.Wait()
	if commits == 0 {
		t.Fatal("no ranged upload committed")
	}
}

// TestWantDigestMatchesDirectHash: a Want-Digest answer equals hashing the
// pristine payload directly, for every algorithm, whole object or single
// range, GET or HEAD, plain or under the CorruptXOR fault.
func TestWantDigestMatchesDirectHash(t *testing.T) {
	srv, ts, st := newTestServer(t, Options{})
	const size = 10000
	data := patterned(size)
	if err := st.Put("/wd", data); err != nil {
		t.Fatal(err)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	hashes := map[string]func([]byte) string{
		digest.Adler32: func(b []byte) string { return fmt.Sprintf("%08x", adler32.Checksum(b)) },
		digest.CRC32:   func(b []byte) string { return fmt.Sprintf("%08x", crc32.ChecksumIEEE(b)) },
		digest.CRC32C:  func(b []byte) string { return fmt.Sprintf("%08x", crc32.Checksum(b, castagnoli)) },
		digest.MD5:     func(b []byte) string { s := md5.Sum(b); return hex.EncodeToString(s[:]) },
	}
	for algo, hash := range hashes {
		for _, c := range []struct {
			rng     string
			payload []byte // nil: no Digest expected
		}{
			{"", data},
			{"bytes=100-4999", data[100:5000]},
			{"bytes=-10", data[size-10:]},
			{"bytes=0-0,10-19", nil},
		} {
			for _, method := range []string{http.MethodGet, http.MethodHead} {
				for _, corrupt := range []bool{false, true} {
					label := fmt.Sprintf("%s %s %q corrupt=%v", algo, method, c.rng, corrupt)
					if corrupt {
						srv.SetFault("/wd", Fault{CorruptXOR: 0xff, CorruptAt: size / 2, Remaining: 1})
					}
					req, _ := http.NewRequest(method, ts.URL+"/wd", nil)
					req.Header.Set("Want-Digest", algo)
					if c.rng != "" {
						req.Header.Set("Range", c.rng)
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					want := ""
					if c.payload != nil {
						want = algo + "=" + hash(c.payload)
					}
					if got := resp.Header.Get("Digest"); got != want {
						t.Errorf("%s: Digest %q, want %q", label, got, want)
					}
				}
			}
		}
	}
}
