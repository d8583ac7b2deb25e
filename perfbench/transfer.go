package main

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	davix "godavix"
)

// transfer-loopback: one transfer at a time over real loopback TCP, as
// davix-get does it: a fresh client uploads a ~64 MiB file with
// UploadMultiStream, downloads it with DownloadMultiStreamTo into another
// file (2 streams), compares checksums and deletes the object. An op is
// one such round (upload plus download time); first_op_ms is each fresh
// client's first call, the upload, dial included.
const (
	transferPath     = "/store/xfer.bin"
	transferBaseSize = 64 << 20
	transferStreams  = 2
	transferDir      = ".bench_build/perfbench-tmp"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type transferInst struct {
	st       *stack
	src, dst string
	size     int64
	crc      uint32
}

func setupTransfer(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	// A small seeded size jitter: round latency scales with size, and the
	// runs of different seeds must compare like for like.
	data := make([]byte, transferBaseSize+rng.Int63n(256<<10))
	rng.Read(data)
	if err := os.MkdirAll(transferDir, 0o755); err != nil {
		return nil, err
	}
	t := &transferInst{
		src:  filepath.Join(transferDir, fmt.Sprintf("src-%d.bin", seed)),
		dst:  filepath.Join(transferDir, fmt.Sprintf("dst-%d.bin", seed)),
		size: int64(len(data)),
		crc:  crc32.Checksum(data, castagnoli),
	}
	if err := os.WriteFile(t.src, data, 0o644); err != nil {
		return nil, err
	}
	st, err := newStack(linkLoopback, false)
	if err != nil {
		os.Remove(t.src)
		return nil, err
	}
	t.st = st
	return t, nil
}

func (t *transferInst) stack() *stack { return t.st }

func (t *transferInst) close() {
	t.st.close()
	os.Remove(t.src)
	os.Remove(t.dst)
}

func (t *transferInst) run(deadline time.Time, res *result) error {
	src, err := os.Open(t.src)
	if err != nil {
		return err
	}
	defer src.Close()
	var upMs, downMs []float64
	// One unmeasured round warms the heap and the page cache.
	warm := newResult(0)
	if err := t.round(src, warm); err != nil {
		return err
	}
	res.addSnapshot(warm.snap)
	for rounds := 0; rounds == 0 || time.Now().Before(deadline); rounds++ {
		if err := t.round(src, res); err != nil {
			return err
		}
		res.mu.Lock()
		upMs = append(upMs, res.calls["UploadMultiStream"][len(res.calls["UploadMultiStream"])-1])
		downMs = append(downMs, res.calls["DownloadMultiStreamTo"][len(res.calls["DownloadMultiStreamTo"])-1])
		res.mu.Unlock()
	}
	mib := float64(t.size) / (1 << 20)
	res.opsPerS = ratio(float64(len(res.lat)), sum(res.lat)/1e3)
	res.mibPerS = 2 * mib * res.opsPerS
	res.figure("upload_MiBps", ratio(mib*float64(len(upMs)), sum(upMs)/1e3), "MiB/s")
	res.figure("download_MiBps", ratio(mib*float64(len(downMs)), sum(downMs)/1e3), "MiB/s")
	k := res.snap.Engine
	kernel := ratio(float64(k.KernelBytesUp+k.KernelBytesDown), float64(res.askedBytes))
	res.figure("kernel_bytes_ratio", kernel, "ratio")
	if kernel <= 0 {
		res.problem("self-check: no transfer byte moved by the kernel path (splice/sendfile) under the benchmark's instrumentation")
	}
	return nil
}

// round is one op: upload, download, verify, delete, on a fresh client.
func (t *transferInst) round(src *os.File, res *result) error {
	rec := t.st.rec.Load()
	opStart := rec.now()
	client, err := t.st.newClient(0, davix.Options{MaxStreams: transferStreams, UploadParallelism: transferStreams})
	if err != nil {
		return err
	}
	defer client.Close()
	ctx := context.Background()
	url := t.st.url(transferPath)

	cs := rec.now()
	t0 := time.Now()
	upErr := client.UploadMultiStream(ctx, url, src, t.size)
	up := sinceMs(t0)
	rec.add(0, levelCore, "core", "UploadMultiStream", cs, false)

	var down float64
	var n int64
	downErr := errors.New("skipped after failed upload")
	if upErr == nil {
		dst, err := os.Create(t.dst)
		if err != nil {
			return err
		}
		cs = rec.now()
		t1 := time.Now()
		n, downErr = client.DownloadMultiStreamTo(ctx, url, dst)
		down = sinceMs(t1)
		rec.add(0, levelCore, "core", "DownloadMultiStreamTo", cs, false)
		if err := dst.Close(); downErr == nil {
			downErr = err
		}
	}
	rec.add(0, levelOp, "bench", "round", opStart, false)

	problem := ""
	switch {
	case upErr != nil:
		problem = fmt.Sprintf("UploadMultiStream: %v", upErr)
	case downErr != nil:
		problem = fmt.Sprintf("DownloadMultiStreamTo: %v", downErr)
	case n != t.size:
		problem = fmt.Sprintf("downloaded %d bytes, uploaded %d", n, t.size)
	default:
		if crc, err := fileCRC(t.dst); err != nil {
			problem = err.Error()
		} else if crc != t.crc {
			problem = fmt.Sprintf("downloaded object checksum %08x, source %08x", crc, t.crc)
		}
	}
	if err := client.Delete(ctx, url); err != nil && problem == "" {
		problem = fmt.Sprintf("Delete: %v", err)
	}
	res.op(up+down, problem == "", problem)
	res.call("UploadMultiStream", up)
	res.call("DownloadMultiStreamTo", down)
	res.add(func(r *result) {
		r.firstOp = append(r.firstOp, up)
		r.askedBytes += 2 * t.size
		r.payload += 2 * t.size
	})
	res.addClient(client)
	return nil
}

// fileCRC checksums a file's contents.
func fileCRC(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	if _, err := io.Copy(h, f); err != nil {
		return 0, fmt.Errorf("checksum %s: %w", path, err)
	}
	return h.Sum32(), nil
}
