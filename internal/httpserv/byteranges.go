package httpserv

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"io"
	"net/http"
	"net/textproto"
	"strconv"
	"strings"
	"time"

	"godavix/internal/bufpool"
	"godavix/internal/storage"
)

// This file is the server's ranged-GET body writer. It answers every
// unconditional GET/HEAD of a stored object with the same bytes
// http.ServeContent would put on the wire — status, Content-Length,
// Content-Range, Last-Modified, multipart/byteranges framing — apart from
// the random boundary. What it saves is ServeContent's machinery around
// those bytes: the multipart body is rendered straight into one pooled
// staging buffer instead of through an io.Pipe goroutine, a MIMEHeader map
// and a CopyN buffer per part, so the socket sees about body/stageSize
// writes rather than two per part; single ranges and full bodies are one
// Write from the stored slice.

// stageSize is the multipart staging buffer. Payloads at least this large
// skip the buffer and are written straight from the stored slice.
const stageSize = 64 << 10

// byteRange is one resolved span of a Range header.
type byteRange struct {
	start, length int64
}

var (
	errInvalidRange = errors.New("invalid range")
	errNoOverlap    = errors.New("invalid range: failed to overlap")
)

// conditional reports whether r carries an RFC 9110 precondition. Those
// requests are answered by http.ServeContent, which owns that logic.
func conditional(r *http.Request) bool {
	h := r.Header
	return h.Get("If-Match") != "" || h.Get("If-None-Match") != "" ||
		h.Get("If-Modified-Since") != "" || h.Get("If-Unmodified-Since") != "" ||
		h.Get("If-Range") != ""
}

// resolveRanges resolves a Range header against an object of size bytes
// exactly as http.ServeContent does: suffix and open-ended ranges are
// bound to the object, ends past EOF are clamped and parts starting past
// EOF are dropped. A header whose parts all start past EOF is
// errNoOverlap (except on an empty object, which is served whole); any
// syntax error is errInvalidRange. No ranges means the full body — also
// the answer when the parts add up to more than the object.
func resolveRanges(s string, size int64) ([]byteRange, error) {
	if s == "" {
		return nil, nil
	}
	spec, ok := strings.CutPrefix(s, "bytes=")
	if !ok {
		return nil, errInvalidRange
	}
	ranges := make([]byteRange, 0, strings.Count(spec, ",")+1)
	noOverlap := false
	for more := true; more; {
		var ra string
		ra, spec, more = strings.Cut(spec, ",")
		ra = textproto.TrimString(ra)
		if ra == "" {
			continue
		}
		lo, hi, ok := strings.Cut(ra, "-")
		if !ok {
			return nil, errInvalidRange
		}
		lo, hi = textproto.TrimString(lo), textproto.TrimString(hi)
		var br byteRange
		if lo == "" {
			// Suffix range: the last hi bytes.
			if hi == "" || hi[0] == '-' {
				return nil, errInvalidRange
			}
			n, err := strconv.ParseInt(hi, 10, 64)
			if err != nil || n < 0 {
				return nil, errInvalidRange
			}
			br.start = size - min(n, size)
			br.length = size - br.start
		} else {
			a, err := strconv.ParseInt(lo, 10, 64)
			if err != nil || a < 0 {
				return nil, errInvalidRange
			}
			if a >= size {
				noOverlap = true
				continue
			}
			br.start, br.length = a, size-a
			if hi != "" {
				b, err := strconv.ParseInt(hi, 10, 64)
				if err != nil || a > b {
					return nil, errInvalidRange
				}
				br.length = min(b, size-1) - a + 1
			}
		}
		ranges = append(ranges, br)
	}
	if noOverlap && len(ranges) == 0 {
		if size == 0 {
			return nil, nil
		}
		return nil, errNoOverlap
	}
	var sum int64
	for _, br := range ranges {
		sum += br.length
	}
	if sum > size {
		return nil, nil
	}
	return ranges, nil
}

// serveStored answers a GET or HEAD of a stored object. body is what goes
// on the wire; the integrity headers (X-Checksum, Digest) always describe
// pristine, so a corruption fault can serve damaged bytes under the
// digest they should have had.
func serveStored(w http.ResponseWriter, r *http.Request, body, pristine []byte, inf storage.Info) {
	h := w.Header()
	h.Set("Accept-Ranges", "bytes")
	h.Set("X-Checksum", inf.Checksum)
	h.Set("Content-Type", "application/octet-stream")
	if conditional(r) {
		http.ServeContent(w, r, "", inf.ModTime, bytes.NewReader(body))
		return
	}
	// Last-Modified goes on before the range is judged, so a 416 keeps
	// it, as ServeContent's does under this module's go 1.22 GODEBUG
	// defaults (httpservecontentkeepheaders=1).
	if !inf.ModTime.IsZero() && !inf.ModTime.Equal(time.Unix(0, 0)) {
		h.Set("Last-Modified", inf.ModTime.UTC().Format(http.TimeFormat))
	}
	ranges, err := resolveRanges(r.Header.Get("Range"), int64(len(body)))
	if err != nil {
		if err == errNoOverlap {
			h.Set("Content-Range", "bytes */"+strconv.FormatInt(int64(len(body)), 10))
		}
		http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
		return
	}
	setDigestHeader(w, r, pristine, ranges)
	writeRanges(w, r.Method == http.MethodHead, body, ranges)
}

// writeRanges writes a 200 (no ranges), 206 single-range or 206
// multipart/byteranges response of the resolved ranges of body. The
// caller has set Content-Type, which also labels each multipart part.
func writeRanges(w http.ResponseWriter, head bool, body []byte, ranges []byteRange) {
	h := w.Header()
	size := int64(len(body))
	switch len(ranges) {
	case 0:
		h.Set("Content-Length", strconv.FormatInt(size, 10))
		w.WriteHeader(http.StatusOK)
		if !head && size > 0 {
			w.Write(body)
		}
	case 1:
		br := ranges[0]
		h.Set("Content-Range", string(appendContentRange(nil, br, size)))
		h.Set("Content-Length", strconv.FormatInt(br.length, 10))
		w.WriteHeader(http.StatusPartialContent)
		if !head && br.length > 0 {
			w.Write(body[br.start : br.start+br.length])
		}
	default:
		writeMultipart(w, head, body, ranges, h.Get("Content-Type"))
	}
}

// writeMultipart streams the ranges as a multipart/byteranges body framed
// exactly like mime/multipart.Writer: "--B\r\n" before the first part,
// "\r\n--B\r\n" before every later one, headers in sorted order, and
// "\r\n--B--\r\n" to close.
func writeMultipart(w http.ResponseWriter, head bool, body []byte, ranges []byteRange, ctype string) {
	// The boundary is mime/multipart's: 30 random bytes in hex. A failing
	// crypto/rand is unrecoverable, and multipart.NewWriter panics too.
	var rnd [30]byte
	if _, err := io.ReadFull(rand.Reader, rnd[:]); err != nil {
		panic(err)
	}
	var boundary [2 * len(rnd)]byte
	hex.Encode(boundary[:], rnd[:])

	size := int64(len(body))
	sizeLen := decLen(size)
	// Each part: [CRLF] "--" B CRLF "Content-Range: bytes a-e/size" CRLF
	// "Content-Type: " ctype CRLF CRLF payload; then CRLF "--" B "--" CRLF.
	fixed := int64(2+len(boundary)+2+len("Content-Range: bytes ")+1+1+sizeLen+2+
		len("Content-Type: ")+len(ctype)+2+2) * int64(len(ranges))
	total := fixed + 2*int64(len(ranges)-1) + int64(2+2+len(boundary)+2+2)
	for _, br := range ranges {
		total += int64(decLen(br.start)+decLen(br.start+br.length-1)) + br.length
	}

	h := w.Header()
	h.Set("Content-Type", "multipart/byteranges; boundary="+string(boundary[:]))
	h.Set("Content-Length", strconv.FormatInt(total, 10))
	w.WriteHeader(http.StatusPartialContent)
	if head {
		return
	}

	st := stager{w: w, buf: bufpool.Get(stageSize)[:0]}
	var hdr [256]byte
	for i, br := range ranges {
		p := hdr[:0]
		if i > 0 {
			p = append(p, "\r\n"...)
		}
		p = append(p, "--"...)
		p = append(p, boundary[:]...)
		p = append(p, "\r\nContent-Range: "...)
		p = appendContentRange(p, br, size)
		p = append(p, "\r\nContent-Type: "...)
		p = append(p, ctype...)
		p = append(p, "\r\n\r\n"...)
		st.write(p)
		st.write(body[br.start : br.start+br.length])
	}
	p := append(hdr[:0], "\r\n--"...)
	p = append(p, boundary[:]...)
	st.write(append(p, "--\r\n"...))
	st.flush()
	bufpool.Put(st.buf)
}

// appendContentRange appends "bytes a-e/size" for br.
func appendContentRange(dst []byte, br byteRange, size int64) []byte {
	dst = append(dst, "bytes "...)
	dst = strconv.AppendInt(dst, br.start, 10)
	dst = append(dst, '-')
	dst = strconv.AppendInt(dst, br.start+br.length-1, 10)
	dst = append(dst, '/')
	return strconv.AppendInt(dst, size, 10)
}

// decLen is the length of v in decimal, sign included.
func decLen(v int64) int {
	n := 1
	if v < 0 {
		n, v = 2, -v
	}
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// stager batches small writes into one staging buffer, so the response
// writer sees full stageSize chunks; large payloads bypass it. After the
// first write error every later write is dropped.
type stager struct {
	w   io.Writer
	buf []byte
	err error
}

func (s *stager) write(p []byte) {
	if len(p) >= stageSize {
		s.flush()
		if s.err == nil {
			_, s.err = s.w.Write(p)
		}
		return
	}
	for len(p) > 0 {
		if len(s.buf) == cap(s.buf) {
			s.flush()
		}
		n := copy(s.buf[len(s.buf):cap(s.buf)], p)
		s.buf = s.buf[:len(s.buf)+n]
		p = p[n:]
	}
}

func (s *stager) flush() {
	if s.err == nil && len(s.buf) > 0 {
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
}
