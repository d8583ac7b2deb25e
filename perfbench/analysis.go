package main

import (
	"context"
	"fmt"
	"time"

	davix "godavix"
	"godavix/internal/bench"
	"godavix/internal/rangev"
	"godavix/internal/rootio"
	"godavix/internal/xrootd"
)

// analysis-wan: one cold-cache analysis job at a time over the WAN. An op
// is one event: ops_per_s is events per second of event-loop time (the
// median over the run's jobs), op latency is one event's branch reads
// plus its compute, and first_op_ms is each job's time from Open to its
// first decoded event.
const (
	analysisPath = "/store/events.rnt"
	// analysisEvents is the paper's ~12000-event file; with 64 B mean
	// payloads one job takes well under a second on the WAN, so a run
	// holds a dozen jobs.
	analysisEvents      = 12000
	analysisTrainEvents = 100
	analysisWindow      = 256 // the synthetic basket size: windows never refetch a basket
	analysisDepth       = 3   // client PrefetchDepth
	// analysisComputeSteps is the light per-event compute of the analysis
	// experiment: the job stays transfer-bound on the WAN.
	analysisComputeSteps = 2000
)

// analysisBranches is the sparse 4-of-12 column subset the job reads.
var analysisBranches = []int{0, 3, 6, 9}

type analysisInst struct {
	st  *stack
	img []byte
	ref uint64 // physics sum over the local image
}

func setupAnalysis(seed int64) (instance, error) {
	img, err := rootio.Synthesize(rootio.SynthSpec{Events: analysisEvents, Branches: 12, MeanPayload: 64, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("synthesize: %w", err)
	}
	st, err := newStack(linkWAN, true)
	if err != nil {
		return nil, err
	}
	if err := st.store.Put(analysisPath, img); err != nil {
		st.close()
		return nil, err
	}
	return &analysisInst{st: st, img: img}, nil
}

// prepare computes the reference result: the same loop over the image in
// memory, read event by event without any cache.
func (a *analysisInst) prepare() error {
	r, err := rootio.OpenReader(rootio.BytesSource(a.img))
	if err != nil {
		return fmt.Errorf("reference reader: %w", err)
	}
	a.ref, err = eventLoop(r.Events(), func(ev uint64, bi int) ([]byte, error) {
		vals, err := r.ReadEvent(ev, []int{bi})
		if err != nil {
			return nil, err
		}
		return vals[0], nil
	}, nil, nil)
	if err != nil {
		return fmt.Errorf("reference loop: %w", err)
	}
	return nil
}

func (a *analysisInst) stack() *stack { return a.st }
func (a *analysisInst) close()        { a.st.close() }

// loopStats are one job's event-loop figures.
type loopStats struct {
	events  int
	bytes   int64
	loop    time.Duration // first event start to last event end
	first   time.Time     // when the first event was decoded
	lat     []float64     // per-event latency, ms (nil when not kept)
	waitDur time.Duration // time inside Branch
}

// eventLoop runs the analysis over get, folding every payload of the
// branch subset per event, and returns the physics sum. When st is non-nil
// it records per-event figures; rec, when non-nil, records each event's
// branch reads as one rootio span.
func eventLoop(events uint64, get func(ev uint64, bi int) ([]byte, error), st *loopStats, rec *recorder) (uint64, error) {
	var sum uint64
	payloads := make([][]byte, len(analysisBranches))
	var loopStart time.Time
	for ev := uint64(0); ev < events; ev++ {
		t0 := time.Now()
		if ev == 0 {
			loopStart = t0
		}
		rs := rec.now()
		for i, bi := range analysisBranches {
			p, err := get(ev, bi)
			if err != nil {
				return 0, fmt.Errorf("event %d branch %d: %w", ev, bi, err)
			}
			payloads[i] = p
		}
		rec.add(0, levelRootio, "rootio", "Branch", rs, false)
		t1 := time.Now()
		sum += fold(payloads, analysisComputeSteps)
		if st != nil {
			t2 := time.Now()
			if ev == 0 {
				st.first = t1
			}
			st.events++
			for _, p := range payloads {
				st.bytes += int64(len(p))
			}
			st.waitDur += t1.Sub(t0)
			st.lat = append(st.lat, float64(t2.Sub(t0))/1e6)
			st.loop = t2.Sub(loopStart)
		}
	}
	return sum, nil
}

// fold is the per-event physics: fold every payload byte into an FNV-1a
// hash, then a fixed reconstruction spin (the analysis experiment's
// kernel), so the result depends on every byte transferred.
func fold(payloads [][]byte, steps int) uint64 {
	var h uint64 = 14695981039346656037
	for _, p := range payloads {
		for _, b := range p {
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	for i := 0; i < steps; i++ {
		h = (h ^ uint64(i)) * 1099511628211
	}
	return h
}

func (a *analysisInst) run(deadline time.Time, res *result) error {
	var rates, waits []float64
	var fills, issued, wasted, payload int64
	var loopS float64
	jobs := 0
	for jobs == 0 || time.Now().Before(deadline) {
		j, err := a.job(res)
		jobs++
		if err != nil {
			res.add(func(r *result) {
				r.attempted += analysisEvents
				r.failed += analysisEvents
			})
			res.problem(fmt.Sprintf("analysis job: %v", err))
			continue
		}
		if j.events == 0 {
			continue
		}
		rates = append(rates, float64(j.events)/j.loop.Seconds())
		waits = append(waits, j.waitDur.Seconds())
		loopS += j.loop.Seconds()
		payload += j.bytes
		fills += j.fills
		issued += j.issued
		wasted += j.wasted
	}
	res.opsPerS = median(rates)
	res.mibPerS = float64(payload) / (1 << 20) / loopS
	res.add(func(r *result) {
		r.payload += payload
		r.timings["events_per_s_per_job"] = rates
	})
	res.figure("events_per_s", res.opsPerS, "events/s")
	res.figure("first_event_ms", median(res.firstOp), "ms")
	res.figure("jobs", float64(jobs), "count")
	res.figure("rootio.fills", float64(fills)/float64(jobs), "count")
	res.figure("rootio.wait_s", median(waits), "s")
	res.figure("rootio.prefetch_waste_ratio", ratio(float64(wasted), float64(issued)), "ratio")
	return nil
}

// jobFigures are one job's results.
type jobFigures struct {
	loopStats
	fills, issued, wasted int64
}

// job runs one cold-cache analysis: a fresh client, Open, OpenReader and
// the learned pipelined TreeCache over the file's cancellable
// asynchronous vectored reads.
func (a *analysisInst) job(res *result) (jobFigures, error) {
	rec := a.st.rec.Load()
	opStart := rec.now()
	client, err := a.st.newClient(0, davix.Options{PrefetchDepth: analysisDepth})
	if err != nil {
		return jobFigures{}, err
	}
	defer client.Close()
	ctx := context.Background()
	t0 := time.Now()
	cs := rec.now()
	f, err := client.Open(ctx, a.st.url(analysisPath))
	rec.add(0, levelCore, "core", "Open", cs, false)
	if err != nil {
		return jobFigures{}, fmt.Errorf("open: %w", err)
	}
	defer f.Close()
	src := bench.HTTPSourcePipelined(f)
	if rec != nil {
		src = tracedSource(src, rec, res)
	}
	rs := rec.now()
	r, err := rootio.OpenReader(src)
	rec.add(0, levelRootio, "rootio", "OpenReader", rs, false)
	if err != nil {
		return jobFigures{}, fmt.Errorf("open reader: %w", err)
	}
	t := rootio.NewTrainingCacheDepth(r, analysisTrainEvents, analysisWindow, -1)
	defer t.Close()
	st := &loopStats{lat: make([]float64, 0, analysisEvents)}
	sum, err := eventLoop(r.Events(), t.Branch, st, rec)
	rec.add(0, levelOp, "bench", "job", opStart, false)
	problem := ""
	switch {
	case err != nil:
		problem = fmt.Sprintf("analysis job: %v", err)
	case sum != a.ref:
		problem = fmt.Sprintf("analysis job: physics sum %d, reference %d", sum, a.ref)
	}
	var j jobFigures
	j.loopStats = *st
	j.fills = t.Fills()
	j.issued, j.wasted, _ = t.PrefetchStats()
	res.add(func(r *result) {
		r.attempted += int64(analysisEvents)
		r.ops += int64(st.events)
		if problem != "" {
			r.failed += int64(analysisEvents)
			if len(r.problems) < 10 {
				r.problems = append(r.problems, problem)
			}
		}
		r.lat = append(r.lat, st.lat...)
		if !st.first.IsZero() {
			r.firstOp = append(r.firstOp, float64(st.first.Sub(t0))/1e6)
		}
	})
	res.addClient(client)
	return j, nil
}

// tracedSource times every window fill from issue to completion as a core
// span (asynchronous fills are background work) and counts the fragments
// and bytes rootio asks for.
func tracedSource(src rootio.Source, rec *recorder, res *result) rootio.Source {
	count := func(ranges []rangev.Range) {
		var n int64
		for _, r := range ranges {
			n += r.Len
		}
		res.add(func(r *result) {
			r.fragments += int64(len(ranges))
			r.askedBytes += n
		})
	}
	readVec, async := src.ReadVec, src.ReadVecAsyncCtx
	src.ReadVec = func(ranges []rangev.Range, dsts [][]byte) error {
		count(ranges)
		start := rec.now()
		err := readVec(ranges, dsts)
		rec.add(0, levelCore, "core", "fill", start, false)
		return err
	}
	src.ReadVecAsyncCtx = func(ctx context.Context, ranges []rangev.Range, dsts [][]byte) <-chan error {
		count(ranges)
		start := rec.now()
		inner := async(ctx, ranges, dsts)
		out := make(chan error, 1)
		go func() {
			err := <-inner
			rec.add(0, levelCore, "core", "fill-async", start, true)
			out <- err
		}()
		return out
	}
	return src
}

// runXrd runs the same job over the xrootd baseline (native asynchronous
// readv with automatic depth) on the same link and dataset.
func (a *analysisInst) runXrd(deadline time.Time, res *result) error {
	var rates []float64
	for len(rates) == 0 || time.Now().Before(deadline) {
		client := xrootd.NewClient(a.st.sim, simXrdAddr)
		ctx := context.Background()
		f, err := client.Open(ctx, analysisPath)
		if err != nil {
			client.Close()
			return fmt.Errorf("xrootd open: %w", err)
		}
		r, err := rootio.OpenReader(bench.XrdSource(ctx, f))
		if err != nil {
			f.Close(ctx)
			client.Close()
			return fmt.Errorf("xrootd open reader: %w", err)
		}
		t := rootio.NewTrainingCacheDepth(r, analysisTrainEvents, analysisWindow, -1)
		st := &loopStats{}
		sum, err := eventLoop(r.Events(), t.Branch, st, nil)
		t.Close()
		f.Close(ctx)
		client.Close()
		res.add(func(r *result) {
			r.attempted += analysisEvents
			if err != nil || sum != a.ref {
				r.failed += analysisEvents
				r.problems = append(r.problems, fmt.Sprintf("xrootd job: sum %d, reference %d, err %v", sum, a.ref, err))
			}
		})
		if err != nil {
			break
		}
		rates = append(rates, float64(st.events)/st.loop.Seconds())
	}
	res.opsPerS = median(rates)
	return nil
}
