package digest

import (
	"bytes"
	"crypto/md5"
	"errors"
	"hash/adler32"
	"hash/crc32"
	"math/rand"
	"testing"
)

func testBuf(n int) []byte {
	rng := rand.New(rand.NewSource(int64(n) + 7))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestCombineMatchesWholeBuffer(t *testing.T) {
	data := testBuf(1 << 20)
	splits := [][]int{
		{0},                        // empty A
		{len(data)},                // empty B
		{1}, {7}, {65536}, {65521}, // around the adler modulus
		{len(data) / 2}, {len(data) - 1},
	}
	for _, algo := range []string{Adler32, CRC32, CRC32C} {
		for _, s := range splits {
			cut := s[0]
			a, b := data[:cut], data[cut:]
			want := Sum32(algo, data)
			got := Combine(algo, Sum32(algo, a), Sum32(algo, b), int64(len(b)))
			if got != want {
				t.Errorf("%s split %d: combine=%08x whole=%08x", algo, cut, got, want)
			}
		}
	}
}

func TestCombineManyChunks(t *testing.T) {
	data := testBuf(777777)
	for _, algo := range []string{Adler32, CRC32, CRC32C} {
		r, err := NewRollup(algo)
		if err != nil {
			t.Fatal(err)
		}
		// Uneven chunking, added out of order.
		type span struct{ off, n int64 }
		var spans []span
		for off := int64(0); off < int64(len(data)); {
			n := int64(100000)
			if off+n > int64(len(data)) {
				n = int64(len(data)) - off
			}
			spans = append(spans, span{off, n})
			off += n
		}
		rand.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
		for _, sp := range spans {
			r.Add(sp.off, sp.n, Sum32(algo, data[sp.off:sp.off+sp.n]))
		}
		got, err := r.Sum(int64(len(data)))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if want := Sum32(algo, data); got != want {
			t.Errorf("%s: rollup=%08x whole=%08x", algo, got, want)
		}
	}
}

func TestRollupDetectsGapsAndOverlaps(t *testing.T) {
	r, _ := NewRollup(Adler32)
	r.Add(0, 10, 1)
	r.Add(20, 10, 1) // gap at 10
	if _, err := r.Sum(30); err == nil {
		t.Error("gap not detected")
	}
	r2, _ := NewRollup(Adler32)
	r2.Add(0, 10, 1)
	if _, err := r2.Sum(20); err == nil {
		t.Error("short coverage not detected")
	}
}

func TestStdlibAgreement(t *testing.T) {
	data := testBuf(12345)
	if Sum32(Adler32, data) != adler32.Checksum(data) {
		t.Error("adler32 disagrees with stdlib")
	}
	if Sum32(CRC32, data) != crc32.ChecksumIEEE(data) {
		t.Error("crc32 disagrees with stdlib")
	}
	if Sum32(CRC32C, data) != crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)) {
		t.Error("crc32c disagrees with stdlib")
	}
}

func TestParseStrict(t *testing.T) {
	good := []string{
		"adler32:00f8018d",
		"ADLER32:00F8018D",
		" crc32:deadbeef ",
		"crc32c:00000000",
		"md5:d41d8cd98f00b204e9800998ecf8427e",
	}
	for _, s := range good {
		if _, err := Parse(s); err != nil {
			t.Errorf("Parse(%q) = %v, want nil", s, err)
		}
	}
	malformed := []string{
		"",
		"adler32",            // no colon
		"adler32:",           // empty payload
		":deadbeef",          // empty algo
		"adler32:xyzw1234",   // non-hex
		"adler32:abcd",       // too short
		"adler32:0011223344", // too long
		"md5:deadbeef",       // md5 must be 16 bytes
	}
	for _, s := range malformed {
		if _, err := Parse(s); !errors.Is(err, ErrMalformed) {
			t.Errorf("Parse(%q) = %v, want ErrMalformed", s, err)
		}
	}
	if _, err := Parse("sha256:" + "00"[0:2] + "deadbeef"); !errors.Is(err, ErrUnsupported) {
		t.Errorf("unknown algo: got %v, want ErrUnsupported", err)
	}
}

func TestNewHashes(t *testing.T) {
	data := testBuf(999)
	for _, algo := range []string{Adler32, CRC32, CRC32C, MD5} {
		h, err := New(algo)
		if err != nil {
			t.Fatal(err)
		}
		// Feed in two writes to exercise incrementality.
		h.Write(data[:100])
		h.Write(data[100:])
		switch algo {
		case MD5:
			want := md5.Sum(data)
			if !bytes.Equal(h.Sum(nil), want[:]) {
				t.Error("md5 incremental mismatch")
			}
		default:
			var whole [4]byte
			w := Sum32(algo, data)
			whole[0], whole[1], whole[2], whole[3] = byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
			if !bytes.Equal(h.Sum(nil), whole[:]) {
				t.Errorf("%s incremental mismatch", algo)
			}
		}
	}
	if _, err := New("sha1"); !errors.Is(err, ErrUnsupported) {
		t.Errorf("New(sha1) = %v, want ErrUnsupported", err)
	}
}

func TestCombinable(t *testing.T) {
	if !Combinable("adler32") || !Combinable("CRC32") || !Combinable("crc32c") {
		t.Error("32-bit algos must be combinable")
	}
	if Combinable("md5") || Combinable("sha256") {
		t.Error("md5/sha256 must not be combinable")
	}
	if _, err := NewRollup("md5"); err == nil {
		t.Error("NewRollup(md5) must fail")
	}
}

func TestSum32SegmentedMatchesStdlib(t *testing.T) {
	data := testBuf(2*minSegment + 12345)
	want := map[string]uint32{
		Adler32: adler32.Checksum(data),
		CRC32:   crc32.ChecksumIEEE(data),
		CRC32C:  crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)),
	}
	for algo, w := range want {
		if got := Sum32(algo, data); got != w {
			t.Errorf("%s: Sum32=%08x stdlib=%08x", algo, got, w)
		}
		for _, segs := range []int{2, 3, 7} {
			if got := sumSegments(algo, data, segs); got != w {
				t.Errorf("%s in %d segments: %08x, stdlib %08x", algo, segs, got, w)
			}
		}
	}
}

func TestSum32SegmentedRejectsMD5(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("segmented md5 did not panic on the calling goroutine")
		}
	}()
	sumSegments(MD5, testBuf(64), 4)
}

// FuzzSum32 checks the segmented hash, with a small forced segment count so
// segmentation runs on fuzz-sized inputs, against the stdlib hashes, and
// Combine against hashing the concatenation directly.
func FuzzSum32(f *testing.F) {
	f.Add([]byte("Wikipedia"), uint8(3), uint16(4))
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, data []byte, segs uint8, split uint16) {
		want := map[string]uint32{
			Adler32: adler32.Checksum(data),
			CRC32:   crc32.ChecksumIEEE(data),
			CRC32C:  crc32.Checksum(data, castagnoli),
		}
		cut := int(split) % (len(data) + 1)
		a, b := data[:cut], data[cut:]
		for algo, w := range want {
			if got := sumSegments(algo, data, int(segs%17)); got != w {
				t.Errorf("%s in %d segments: %08x, stdlib %08x", algo, segs%17, got, w)
			}
			if got := Sum32(algo, data); got != w {
				t.Errorf("%s: Sum32=%08x stdlib=%08x", algo, got, w)
			}
			if got := Combine(algo, Sum32(algo, a), Sum32(algo, b), int64(len(b))); got != w {
				t.Errorf("%s split at %d: combine=%08x whole=%08x", algo, cut, got, w)
			}
		}
	})
}
