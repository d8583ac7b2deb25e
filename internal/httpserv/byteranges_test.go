package httpserv

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"godavix/internal/storage"
)

// The ranged-GET writer must put ServeContent's bytes on the wire. Every
// test here runs the same request through serveStored and through an
// oracle handler that sets the same headers and calls http.ServeContent,
// and compares the two responses with the multipart boundary masked.

// oracleServe is the reference: serveStored's headers, then ServeContent.
func oracleServe(w http.ResponseWriter, r *http.Request, body []byte, inf storage.Info) {
	h := w.Header()
	h.Set("Accept-Ranges", "bytes")
	h.Set("X-Checksum", inf.Checksum)
	h.Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, "", inf.ModTime, bytes.NewReader(body))
}

var boundaryRE = regexp.MustCompile(`^[0-9a-f]{60}$`)

// compareResponses fails t unless got and want agree on status, every
// header but Date, and body, after each side's multipart boundary is
// replaced by a fixed token.
func compareResponses(t *testing.T, label string, got, want *http.Response) {
	t.Helper()
	gotBody, err := io.ReadAll(got.Body)
	if err != nil {
		t.Fatalf("%s: read body: %v", label, err)
	}
	wantBody, err := io.ReadAll(want.Body)
	if err != nil {
		t.Fatalf("%s: read oracle body: %v", label, err)
	}
	if got.StatusCode != want.StatusCode {
		t.Fatalf("%s: status = %d, ServeContent %d", label, got.StatusCode, want.StatusCode)
	}
	gotType, wantType := got.Header.Get("Content-Type"), want.Header.Get("Content-Type")
	const mp = "multipart/byteranges; boundary="
	if wb, ok := strings.CutPrefix(wantType, mp); ok {
		gb, ok := strings.CutPrefix(gotType, mp)
		if !ok {
			t.Fatalf("%s: Content-Type = %q, ServeContent %q", label, gotType, wantType)
		}
		if !boundaryRE.MatchString(gb) {
			t.Fatalf("%s: boundary %q is not 60 hex characters", label, gb)
		}
		gotBody = bytes.ReplaceAll(gotBody, []byte(gb), []byte("BOUNDARY"))
		wantBody = bytes.ReplaceAll(wantBody, []byte(wb), []byte("BOUNDARY"))
	} else if gotType != wantType {
		t.Fatalf("%s: Content-Type = %q, ServeContent %q", label, gotType, wantType)
	}
	keys := map[string]bool{}
	for k := range got.Header {
		keys[k] = true
	}
	for k := range want.Header {
		keys[k] = true
	}
	for k := range keys {
		if k == "Date" || k == "Content-Type" {
			continue
		}
		if g, w := strings.Join(got.Header.Values(k), ", "), strings.Join(want.Header.Values(k), ", "); g != w {
			t.Fatalf("%s: header %s = %q, ServeContent %q", label, k, g, w)
		}
	}
	if got.ContentLength != want.ContentLength {
		t.Fatalf("%s: ContentLength = %d, ServeContent %d", label, got.ContentLength, want.ContentLength)
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("%s: body differs from ServeContent\n got: %q\nwant: %q", label, clip(gotBody), clip(wantBody))
	}
}

func clip(b []byte) []byte {
	if len(b) > 400 {
		return b[:400]
	}
	return b
}

// recordBoth runs one in-process request through serveStored and the
// oracle and compares the recorded responses.
func recordBoth(t *testing.T, label string, r *http.Request, body []byte, inf storage.Info) {
	t.Helper()
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	serveStored(got, r, body, body, inf)
	oracleServe(want, r, body, inf)
	compareResponses(t, label, got.Result(), want.Result())
}

func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i/251)
	}
	return b
}

// manyParts is a Range header of n parts of partLen bytes, stride apart.
func manyParts(n, partLen, stride int) string {
	specs := make([]string, n)
	for i := range specs {
		specs[i] = fmt.Sprintf("%d-%d", i*stride, i*stride+partLen-1)
	}
	return "bytes=" + strings.Join(specs, ",")
}

type rangeCase struct {
	name   string
	size   int
	method string
	header map[string]string // values may use {mod}, {before}, {after}
}

var rangeCases = []rangeCase{
	{name: "full", size: 1000},
	{name: "single", size: 1000, header: map[string]string{"Range": "bytes=2-5"}},
	{name: "multi", size: 1000, header: map[string]string{"Range": "bytes=0-0,10-19,990-999"}},
	{name: "suffix", size: 1000, header: map[string]string{"Range": "bytes=-100"}},
	{name: "suffix-past-start", size: 1000, header: map[string]string{"Range": "bytes=-5000"}},
	{name: "suffix-zero", size: 1000, header: map[string]string{"Range": "bytes=-0"}},
	{name: "open-ended", size: 1000, header: map[string]string{"Range": "bytes=900-"}},
	{name: "open-ended-multi", size: 1000, header: map[string]string{"Range": "bytes=10-19,900-"}},
	{name: "overlapping", size: 1000, header: map[string]string{"Range": "bytes=0-99,50-149"}},
	{name: "unsorted", size: 1000, header: map[string]string{"Range": "bytes=900-909,0-9,500-509"}},
	{name: "whitespace", size: 1000, header: map[string]string{"Range": "bytes= 0 - 5 ,, 7-8 ,"}},
	{name: "end-past-eof", size: 1000, header: map[string]string{"Range": "bytes=990-2000"}},
	{name: "some-unsatisfiable", size: 1000, header: map[string]string{"Range": "bytes=0-9,5000-6000"}},
	{name: "all-unsatisfiable", size: 1000, header: map[string]string{"Range": "bytes=1000-1001,2000-"}},
	{name: "sum-over-size", size: 1000, header: map[string]string{"Range": "bytes=0-,0-"}},
	{name: "bad-unit", size: 1000, header: map[string]string{"Range": "items=0-5"}},
	{name: "bad-number", size: 1000, header: map[string]string{"Range": "bytes=abc-5"}},
	{name: "inverted", size: 1000, header: map[string]string{"Range": "bytes=5-3"}},
	{name: "double-dash", size: 1000, header: map[string]string{"Range": "bytes=--5"}},
	{name: "no-dash", size: 1000, header: map[string]string{"Range": "bytes=0-5,7"}},
	{name: "empty-spec", size: 1000, header: map[string]string{"Range": "bytes="}},
	{name: "empty-object", size: 0, header: map[string]string{"Range": "bytes=0-5"}},
	{name: "empty-object-suffix", size: 0, header: map[string]string{"Range": "bytes=-5"}},
	{name: "empty-object-multi", size: 0, header: map[string]string{"Range": "bytes=0-0,3-4"}},
	{name: "empty-object-full", size: 0},
	{name: "large-parts", size: 300000, header: map[string]string{"Range": "bytes=0-69999,70000-79999,80000-299999"}},
	{name: "many-small-parts", size: 200000, header: map[string]string{"Range": manyParts(600, 256, 300)}},
	{name: "head-full", size: 1000, method: http.MethodHead},
	{name: "head-single", size: 1000, method: http.MethodHead, header: map[string]string{"Range": "bytes=2-5"}},
	{name: "head-multi", size: 1000, method: http.MethodHead, header: map[string]string{"Range": "bytes=0-0,10-19"}},
	{name: "head-unsatisfiable", size: 1000, method: http.MethodHead, header: map[string]string{"Range": "bytes=5000-"}},
	{name: "if-match", size: 1000, header: map[string]string{"If-Match": `"nope"`, "Range": "bytes=0-1,5-6"}},
	{name: "if-match-star", size: 1000, header: map[string]string{"If-Match": "*", "Range": "bytes=0-1,5-6"}},
	{name: "if-none-match", size: 1000, header: map[string]string{"If-None-Match": "*"}},
	{name: "if-modified-since", size: 1000, header: map[string]string{"If-Modified-Since": "{after}"}},
	{name: "if-modified-since-stale", size: 1000, header: map[string]string{"If-Modified-Since": "{before}", "Range": "bytes=1-2"}},
	{name: "if-unmodified-since", size: 1000, header: map[string]string{"If-Unmodified-Since": "{before}"}},
	{name: "if-range-date", size: 1000, header: map[string]string{"If-Range": "{mod}", "Range": "bytes=0-1,5-6"}},
	{name: "if-range-etag", size: 1000, header: map[string]string{"If-Range": `"x"`, "Range": "bytes=0-1,5-6"}},
}

// request builds the case's request against url, expanding the time
// placeholders relative to modtime.
func (c rangeCase) request(t *testing.T, url string, modtime time.Time) *http.Request {
	t.Helper()
	method := c.method
	if method == "" {
		method = http.MethodGet
	}
	r, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	repl := strings.NewReplacer(
		"{mod}", modtime.UTC().Format(http.TimeFormat),
		"{before}", modtime.Add(-time.Hour).UTC().Format(http.TimeFormat),
		"{after}", modtime.Add(time.Hour).UTC().Format(http.TimeFormat))
	for k, v := range c.header {
		r.Header.Set(k, repl.Replace(v))
	}
	return r
}

func (c rangeCase) isConditional() bool {
	for k := range c.header {
		if strings.HasPrefix(k, "If-") {
			return true
		}
	}
	return false
}

// TestRangeWriterMatchesServeContent drives every table case over real
// sockets — httpserv.Server on one side, a ServeContent handler over the
// same stored object on the other — plain and under the CorruptXOR fault.
func TestRangeWriterMatchesServeContent(t *testing.T) {
	srv, ts, st := newTestServer(t, Options{})
	var corrupt atomic.Bool
	oracle := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		data, inf, err := st.Get(storage.Clean(r.URL.Path))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		if corrupt.Load() && r.Method == http.MethodGet {
			bad := bytes.Clone(data)
			bad[len(bad)/2] ^= 0xff
			data = bad
		}
		oracleServe(w, r, data, inf)
	}))
	t.Cleanup(oracle.Close)

	for _, c := range rangeCases {
		p := "/obj/" + c.name
		if err := st.Put(p, patterned(c.size)); err != nil {
			t.Fatal(err)
		}
		_, inf, err := st.Get(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, corrupted := range []bool{false, true} {
			if corrupted && c.size == 0 {
				continue
			}
			label := c.name
			corrupt.Store(corrupted)
			if corrupted {
				label += "/corrupt"
				srv.SetFault(p, Fault{CorruptXOR: 0xff, CorruptAt: int64(c.size / 2), Remaining: 1})
			}
			req := c.request(t, ts.URL+p, inf.ModTime)
			if got := conditional(req); got != c.isConditional() {
				t.Fatalf("%s: conditional = %v, want %v", label, got, c.isConditional())
			}
			got, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, err := http.DefaultClient.Do(c.request(t, oracle.URL+p, inf.ModTime))
			if err != nil {
				t.Fatalf("%s: oracle: %v", label, err)
			}
			compareResponses(t, label, got, want)
			got.Body.Close()
			want.Body.Close()
		}
	}
}

// randomRangeHeader builds a Range header of 1-20 parts mixing closed,
// open-ended and suffix specs, some reaching past size.
func randomRangeHeader(rng *rand.Rand, size int) string {
	n := 1 + rng.Intn(20)
	specs := make([]string, n)
	for i := range specs {
		a := rng.Intn(size + size/4 + 2)
		switch rng.Intn(6) {
		case 0:
			specs[i] = fmt.Sprintf("%d-", a)
		case 1:
			specs[i] = fmt.Sprintf("-%d", rng.Intn(size/2+2))
		default:
			specs[i] = fmt.Sprintf("%d-%d", a, a+rng.Intn(size/8+2))
		}
	}
	return "bytes=" + strings.Join(specs, ",")
}

// TestRangeWriterRandomRangeSets compares 300 seeded random range sets
// against ServeContent, in-process.
func TestRangeWriterRandomRangeSets(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	inf := storage.Info{ModTime: time.Date(2014, 9, 1, 12, 0, 0, 0, time.UTC), Checksum: "adler32:00000001"}
	for i := 0; i < 300; i++ {
		size := rng.Intn(5000)
		if i%10 == 0 {
			size = 70000 + rng.Intn(200000)
		}
		body := patterned(size)
		hdr := randomRangeHeader(rng, size)
		r := httptest.NewRequest(http.MethodGet, "/f", nil)
		r.Header.Set("Range", hdr)
		recordBoth(t, fmt.Sprintf("set %d size %d %q", i, size, hdr), r, body, inf)
	}
}

// FuzzServeRange checks arbitrary Range headers against ServeContent. The
// seed corpus in testdata/fuzz/FuzzServeRange holds the table cases.
func FuzzServeRange(f *testing.F) {
	inf := storage.Info{ModTime: time.Date(2014, 9, 1, 12, 0, 0, 0, time.UTC), Checksum: "adler32:00000001"}
	f.Fuzz(func(t *testing.T, rangeHeader string, size uint16) {
		r := httptest.NewRequest(http.MethodGet, "/f", nil)
		r.Header["Range"] = []string{rangeHeader}
		recordBoth(t, fmt.Sprintf("size %d %q", size, rangeHeader), r, patterned(int(size)), inf)
	})
}

// countingListener counts every Write on the connections it accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestMultipartSocketWrites is the deterministic companion of the
// vectored-read timings: a multi-range response reaches the socket in
// about body/stageSize writes however many parts it has, not two per
// part.
func TestMultipartSocketWrites(t *testing.T) {
	st := storage.NewMemStore()
	st.Put("/f", patterned(1<<20))
	srv := New(st, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	go srv.Serve(countingListener{Listener: ln, writes: &writes})
	t.Cleanup(func() { ln.Close() })

	for _, parts := range []int{128, 1024} {
		writes.Store(0)
		req, _ := http.NewRequest(http.MethodGet, "http://"+ln.Addr().String()+"/f", nil)
		req.Header.Set("Range", manyParts(parts, 256, 1000))
		req.Close = true
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusPartialContent || n != resp.ContentLength {
			t.Fatalf("%d parts: status %d, read %d of %d: %v", parts, resp.StatusCode, n, resp.ContentLength, err)
		}
		limit := (n+stageSize-1)/stageSize + 2
		if got := writes.Load(); got > limit {
			t.Errorf("%d parts, %d-byte body: %d socket writes, want at most %d", parts, n, got, limit)
		}
	}
}

// discardWriter is a ResponseWriter that keeps headers and drops bytes.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestMultipartAllocsIndependentOfParts: the writer's allocations are per
// response, never per part.
func TestMultipartAllocsIndependentOfParts(t *testing.T) {
	body := patterned(1 << 20)
	inf := storage.Info{ModTime: time.Date(2014, 9, 1, 12, 0, 0, 0, time.UTC), Checksum: "adler32:00000001"}
	allocs := func(parts int) float64 {
		r := httptest.NewRequest(http.MethodGet, "/f", nil)
		r.Header.Set("Range", manyParts(parts, 256, 1000))
		w := &discardWriter{h: http.Header{}}
		return testing.AllocsPerRun(50, func() {
			clear(w.h)
			serveStored(w, r, body, body, inf)
		})
	}
	a16, a128 := allocs(16), allocs(128)
	if a16 != a128 {
		t.Fatalf("allocations per response: %v with 16 parts, %v with 128", a16, a128)
	}
	t.Logf("%v allocations per multipart response", a128)
}
