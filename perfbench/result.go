package main

import (
	"sync"

	davix "godavix"
)

// result collects one measured phase. Workloads add to it from their load
// goroutines, so every method locks.
type result struct {
	mu        sync.Mutex
	tailPct   float64 // the workload's op tail percentile
	attempted int64
	failed    int64
	problems  []string

	// lat is each op's latency in ms; a failed op is recorded too, so it
	// counts against every latency figure.
	lat []float64
	// firstOp is each cold client's time to its first completed op, ms.
	firstOp []float64
	// opsPerS and mibPerS are set by the workload once its loop ends.
	opsPerS float64
	mibPerS float64

	// calls holds per-public-call latencies in ms, keyed by call name.
	calls map[string][]float64
	// timings holds other distributions worth a summary in the record.
	timings map[string][]float64
	// figures are workload-specific named results.
	figures map[string]metric

	// Client-side counters, summed over every client of the phase.
	snap davix.Snapshot
	// Vectored-read demand: fragments and bytes the caller asked for.
	fragments  int64
	askedBytes int64
	// payload is the bytes the workload's ops delivered to the caller.
	payload int64
	// ops is the op count per-op figures divide by.
	ops int64
	// walkEntries counts entries emitted by Walk.
	walkEntries int64
}

func newResult(tailPct float64) *result {
	return &result{tailPct: tailPct, calls: map[string][]float64{}, timings: map[string][]float64{}, figures: map[string]metric{}}
}

// op records one op's outcome.
func (r *result) op(latMs float64, ok bool, problem string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.ops++
	r.lat = append(r.lat, latMs)
	if !ok {
		r.failed++
		if len(r.problems) < 10 {
			r.problems = append(r.problems, problem)
		}
	}
}

// problem records a correctness failure outside any single op.
func (r *result) problem(p string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 10 {
		r.problems = append(r.problems, p)
	}
}

// call records one public davix call's latency.
func (r *result) call(name string, latMs float64) {
	r.mu.Lock()
	r.calls[name] = append(r.calls[name], latMs)
	r.mu.Unlock()
}

// timing records one sample of a named distribution.
func (r *result) timing(name string, v float64) {
	r.mu.Lock()
	r.timings[name] = append(r.timings[name], v)
	r.mu.Unlock()
}

// figure sets a workload-specific figure.
func (r *result) figure(name string, v float64, unit string) {
	r.mu.Lock()
	r.figures[name] = metric{v, unit}
	r.mu.Unlock()
}

// add accumulates counters under the lock.
func (r *result) add(f func(r *result)) {
	r.mu.Lock()
	f(r)
	r.mu.Unlock()
}

// addClient folds a client's counters into the phase before it closes.
// Every client of a phase reports here, warm-up and probe clients too, so
// the client counters cover the same requests as the server's.
func (r *result) addClient(c *davix.Client) { r.addSnapshot(c.Snapshot()) }

// addSnapshot folds client counters into the phase.
func (r *result) addSnapshot(s davix.Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, a := &r.snap.Engine, s.Engine
	e.Requests += a.Requests
	e.Retries += a.Retries
	e.BytesUp += a.BytesUp
	e.BytesDown += a.BytesDown
	e.KernelBytesUp += a.KernelBytesUp
	e.KernelBytesDown += a.KernelBytesDown
	e.PooledBytesUp += a.PooledBytesUp
	e.PooledBytesDown += a.PooledBytesDown
	e.PrefetchIssued += a.PrefetchIssued
	e.PrefetchBytes += a.PrefetchBytes
	e.PrefetchCancelled += a.PrefetchCancelled
	ca, cb := &r.snap.Cache, s.Cache
	ca.Hits += cb.Hits
	ca.Misses += cb.Misses
	ca.StatHits += cb.StatHits
	ca.StatMisses += cb.StatMisses
	ca.PrefetchIssuedBytes += cb.PrefetchIssuedBytes
	ca.PrefetchUsefulBytes += cb.PrefetchUsefulBytes
	ca.PrefetchWastedBytes += cb.PrefetchWastedBytes
	ca.Prefetched += cb.Prefetched
	p, q := &r.snap.Pool, s.Pool
	p.Dials += q.Dials
	p.Reuses += q.Reuses
	p.Discards += q.Discards
}

// addTimings puts every distribution of the phase into the record.
func (r *result) addTimings(rec *record) {
	rec.Timings["op_ms"] = summarize(r.lat)
	rec.Timings["op_ms_at_op_tail_pct"] = summarizeAt(r.lat, r.tailPct)
	rec.Timings["first_op_ms"] = summarize(r.firstOp)
	for k, v := range r.calls {
		rec.Timings["call_ms."+k] = summarize(v)
	}
	for k, v := range r.timings {
		rec.Timings[k] = summarize(v)
	}
}
