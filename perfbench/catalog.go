package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path"
	"sort"
	"sync"
	"time"

	davix "godavix"
)

// catalog-wan: one client with the stat cache, block cache and read-ahead
// on walks a tree of small files over the WAN, then reads every file
// (Stat, Open, sequential Read of the whole file) in two passes with two
// load goroutines; between the passes it rewrites one file in eight with
// Put. Each session starts from a fresh client. An op is one whole-file
// read; first_op_ms is a fresh client's first read of a median-size file,
// probed after the sessions.
const (
	catalogRoot     = "/cat"
	catalogTop      = 4  // top-level directories
	catalogSub      = 4  // subdirectories in each
	catalogPerDir   = 10 // files in each subdirectory
	catalogMinSize  = 16 << 10
	catalogMaxSize  = 1 << 20
	catalogReadBuf  = 64 << 10
	catalogLanes    = 2
	catalogRewrite  = 8 // one file in catalogRewrite is rewritten per session
	catalogProbes   = 20
	catalogStatTTL  = time.Minute
	catalogReadAhed = 4
)

type catalogInst struct {
	st     *stack
	seed   int64
	files  []string // sorted
	probes []string // cold-start probe files
	// want holds each file's current content; rewrites replace entries.
	mu      sync.Mutex
	want    map[string][]byte
	dirs    []string
	total   int64
	session int64
}

func setupCatalog(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	st, err := newStack(linkWAN, false)
	if err != nil {
		return nil, err
	}
	c := &catalogInst{st: st, seed: seed, want: map[string][]byte{}}
	c.dirs = append(c.dirs, catalogRoot)
	for i := 0; i < catalogTop; i++ {
		top := fmt.Sprintf("%s/run%d", catalogRoot, i)
		c.dirs = append(c.dirs, top)
		for j := 0; j < catalogSub; j++ {
			dir := fmt.Sprintf("%s/lumi%d", top, j)
			c.dirs = append(c.dirs, dir)
			for k := 0; k < catalogPerDir; k++ {
				c.files = append(c.files, fmt.Sprintf("%s/f%02d.dat", dir, k))
			}
		}
	}
	// Log-uniform sizes, stratified: file i of n draws from the i-th of n
	// equal slices of the log range and the seed shuffles which file gets
	// which, so every seed has the same size mix (many small files, a few
	// large ones) and only the layout and contents vary.
	lo, hi := math.Log(catalogMinSize), math.Log(catalogMaxSize)
	n := len(c.files)
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = int(math.Exp(lo + (float64(i)+rng.Float64())/float64(n)*(hi-lo)))
	}
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	for i, p := range c.files {
		data := make([]byte, sizes[i])
		rng.Read(data)
		if err := st.store.Put(p, data); err != nil {
			st.close()
			return nil, err
		}
		c.want[p] = data
		c.total += int64(len(data))
	}
	// Cold-start probes read the files nearest the median size, so the
	// probe figure does not depend on which sizes the seed placed where.
	mid := (lo + hi) / 2
	dist := func(p string) float64 { return math.Abs(math.Log(float64(len(c.want[p]))) - mid) }
	c.probes = append([]string(nil), c.files...)
	sort.Slice(c.probes, func(a, b int) bool { return dist(c.probes[a]) < dist(c.probes[b]) })
	c.probes = c.probes[:catalogProbes]
	return c, nil
}

func (c *catalogInst) stack() *stack { return c.st }
func (c *catalogInst) close()        { c.st.close() }

// newClient builds the session client both load goroutines share.
func (c *catalogInst) newClient() (*davix.Client, error) {
	return c.st.newClient(sharedLane, davix.Options{
		StatTTL:   catalogStatTTL,
		CacheSize: 2 * c.total,
		ReadAhead: catalogReadAhed,
	})
}

// readFile is one op: Stat, Open, sequential Read to EOF, compare.
func (c *catalogInst) readFile(client *davix.Client, lane int, p string, res *result) (float64, int64) {
	ctx := context.Background()
	rec := c.st.rec.Load()
	opStart := rec.now()
	t0 := time.Now()
	var buf []byte
	err := func() error {
		cs := rec.now()
		ts := time.Now()
		inf, err := client.Stat(ctx, c.st.url(p))
		res.call("Stat", sinceMs(ts))
		rec.add(lane, levelCore, "core", "Stat", cs, false)
		if err != nil {
			return fmt.Errorf("Stat: %w", err)
		}
		cs = rec.now()
		f, err := client.Open(ctx, c.st.url(p))
		rec.add(lane, levelCore, "core", "Open", cs, false)
		if err != nil {
			return fmt.Errorf("Open: %w", err)
		}
		defer f.Close()
		buf = make([]byte, 0, inf.Size)
		chunk := make([]byte, catalogReadBuf)
		for {
			cs = rec.now()
			tr := time.Now()
			n, err := f.Read(chunk)
			res.call("Read", sinceMs(tr))
			rec.add(lane, levelCore, "core", "Read", cs, false)
			buf = append(buf, chunk[:n]...)
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return fmt.Errorf("Read: %w", err)
			}
		}
	}()
	lat := sinceMs(t0)
	rec.add(lane, levelOp, "bench", "file", opStart, false)
	problem := ""
	if err != nil {
		problem = fmt.Sprintf("%s: %v", p, err)
	} else {
		c.mu.Lock()
		want := c.want[p]
		c.mu.Unlock()
		if !bytes.Equal(buf, want) {
			problem = fmt.Sprintf("%s: read %d bytes that differ from the %d current bytes", p, len(buf), len(want))
		}
	}
	res.op(lat, problem == "", problem)
	return lat, int64(len(buf))
}

// walk lists the tree and checks the entry set against the installed one.
func (c *catalogInst) walk(client *davix.Client, res *result) {
	rec := c.st.rec.Load()
	opStart := rec.now()
	t0 := time.Now()
	got := map[string]davix.Info{}
	err := client.Walk(context.Background(), c.st.url(catalogRoot), func(inf davix.Info) error {
		got[path.Clean(inf.Path)] = inf
		return nil
	})
	lat := sinceMs(t0)
	rec.add(0, levelCore, "core", "Walk", opStart, false)
	rec.add(0, levelOp, "bench", "walk", opStart, false)
	if err != nil {
		res.problem(fmt.Sprintf("Walk: %v", err))
		return
	}
	res.call("Walk", lat)
	res.timing("walk_entries_per_s", float64(len(got))/(lat/1e3))
	res.add(func(r *result) { r.walkEntries += int64(len(got)) })
	if len(got) != len(c.files)+len(c.dirs) {
		res.problem(fmt.Sprintf("Walk emitted %d entries, the tree has %d", len(got), len(c.files)+len(c.dirs)))
	}
	for _, d := range c.dirs {
		if inf, ok := got[d]; !ok || !inf.Dir {
			res.problem(fmt.Sprintf("Walk missed directory %s", d))
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.files {
		if inf, ok := got[p]; !ok || inf.Dir || inf.Size != int64(len(c.want[p])) {
			res.problem(fmt.Sprintf("Walk entry for %s missing or wrong (%+v)", p, inf))
		}
	}
}

// pass reads every file once, the two lanes taking alternate files.
func (c *catalogInst) pass(client *davix.Client, res *result, busy []float64, ops []int, bytesRead []int64) {
	var wg sync.WaitGroup
	for lane := 0; lane < catalogLanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := lane; i < len(c.files); i += catalogLanes {
				lat, n := c.readFile(client, lane, c.files[i], res)
				busy[lane] += lat / 1e3
				ops[lane]++
				bytesRead[lane] += n
			}
		}(lane)
	}
	wg.Wait()
}

// rewrite replaces one file in catalogRewrite with new bytes of the same
// size through the client, so its caches must drop the old content.
func (c *catalogInst) rewrite(client *davix.Client, rng *rand.Rand, res *result) {
	for i := rng.Intn(catalogRewrite); i < len(c.files); i += catalogRewrite {
		p := c.files[i]
		c.mu.Lock()
		data := make([]byte, len(c.want[p]))
		c.mu.Unlock()
		rng.Read(data)
		rec := c.st.rec.Load()
		cs := rec.now()
		t0 := time.Now()
		err := client.Put(context.Background(), c.st.url(p), data)
		res.call("Put", sinceMs(t0))
		rec.add(0, levelCore, "core", "Put", cs, false)
		rec.add(0, levelOp, "bench", "put", cs, false)
		if err != nil {
			res.problem(fmt.Sprintf("Put %s: %v", p, err))
			continue
		}
		c.mu.Lock()
		c.want[p] = data
		c.mu.Unlock()
		res.add(func(r *result) { r.askedBytes += int64(len(data)) })
	}
}

func (c *catalogInst) run(deadline time.Time, res *result) error {
	busy := make([]float64, catalogLanes)
	ops := make([]int, catalogLanes)
	bytesRead := make([]int64, catalogLanes)
	for sessions := 0; sessions == 0 || time.Now().Before(deadline); sessions++ {
		c.session++
		rng := rand.New(rand.NewSource(c.seed*1000 + c.session))
		client, err := c.newClient()
		if err != nil {
			return err
		}
		c.walk(client, res)
		c.pass(client, res, busy, ops, bytesRead)
		c.rewrite(client, rng, res)
		c.pass(client, res, busy, ops, bytesRead)
		res.addClient(client)
		client.Close()
	}
	var payload int64
	for lane := range busy {
		res.opsPerS += ratio(float64(ops[lane]), busy[lane])
		res.mibPerS += ratio(float64(bytesRead[lane])/(1<<20), busy[lane])
		payload += bytesRead[lane]
	}
	res.add(func(r *result) {
		r.payload += payload
		r.askedBytes += payload
	})
	res.figure("walk_entries_per_s", median(res.timings["walk_entries_per_s"]), "entries/s")

	// Cold starts: a fresh client's first whole-file read.
	for _, p := range c.probes {
		client, err := c.newClient()
		if err != nil {
			return err
		}
		probe := newResult(0)
		lat, _ := c.readFile(client, 0, p, probe)
		res.addClient(client)
		client.Close()
		if probe.failed > 0 {
			for _, p := range probe.problems {
				res.problem("cold read: " + p)
			}
			continue
		}
		res.add(func(r *result) { r.firstOp = append(r.firstOp, lat) })
	}
	return nil
}
