package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// coreCalls are the public davix calls whose latency the traced run
// reports per call.
var coreCalls = []string{"ReadVec", "UploadMultiStream", "DownloadMultiStreamTo", "Stat", "Walk", "Read"}

// serverMethods are the request methods counted per method.
var serverMethods = []string{"GET", "HEAD", "PUT", "PROPFIND", "DELETE"}

// selfLayers are the layers self time is attributed to. "bench" is the
// workload's own code between library calls (the analysis job's
// per-event compute); "wire" is an engine request minus the dial and
// the server time inside it, so on netsim links it includes the
// simulated transit.
var selfLayers = []string{"bench", "rootio", "core", "wire", "pool", "httpserv", "webdav", "storage"}

// layerMetricUnits lists every per-layer metric a traced run reports, in
// print order. A metric the workload does not exercise reads 0. A *_tail_ms
// metric is the highest percentile of the tail ladder its own sample
// supports.
func layerMetricUnits() [][2]string {
	out := [][2]string{
		{"rootio.fills", "count"},
		{"rootio.fill_p50_ms", "ms"},
		{"rootio.fill_tail_ms", "ms"},
		{"rootio.wait_s", "s"},
		{"rootio.prefetch_waste_ratio", "ratio"},
		{"rootio.first_event_ms", "ms"},
		{"core.requests_per_op", "req/op"},
		{"core.retries", "count"},
		{"core.kernel_bytes_ratio", "ratio"},
		{"core.upload_MiBps", "MiB/s"},
		{"core.download_MiBps", "MiB/s"},
	}
	for _, c := range coreCalls {
		out = append(out, [2]string{"core.call_p50_ms." + c, "ms"}, [2]string{"core.call_tail_ms." + c, "ms"})
	}
	out = append(out,
		[2]string{"rangev.fragments_per_request", "frag/req"},
		[2]string{"rangev.overfetch_ratio", "ratio"},
		[2]string{"wire.overhead_bytes_per_request", "B/req"},
		[2]string{"pool.dials", "count"},
		[2]string{"pool.reuse_ratio", "ratio"},
		[2]string{"pool.dial_ms", "ms"},
		[2]string{"blockcache.hit_ratio", "ratio"},
		[2]string{"blockcache.stat_hit_ratio", "ratio"},
		[2]string{"blockcache.prefetch_useful_ratio", "ratio"},
		[2]string{"webdav.propfinds", "count"},
		[2]string{"webdav.entries_per_propfind", "entries"},
		[2]string{"webdav.propfind_p50_ms", "ms"},
		[2]string{"webdav.walk_entries_per_s", "entries/s"},
	)
	for _, m := range serverMethods {
		out = append(out, [2]string{"httpserv.requests." + m, "count"})
	}
	out = append(out,
		[2]string{"httpserv.busy_s", "s"},
		[2]string{"httpserv.get_p50_ms", "ms"},
		[2]string{"httpserv.get_tail_ms", "ms"},
		[2]string{"httpserv.put_p50_ms", "ms"},
		[2]string{"httpserv.shed", "count"},
		[2]string{"storage.get_s", "s"},
		[2]string{"storage.put_s", "s"},
		[2]string{"netsim.dials", "count"},
		[2]string{"netsim.bytes", "bytes"},
		[2]string{"runtime.cpu_ms_per_op", "ms/op"},
		[2]string{"runtime.alloc_bytes_per_op", "B/op"},
		[2]string{"runtime.gc_cycles", "count"},
		[2]string{"runtime.peak_heap_MiB", "MiB"},
		[2]string{"obs.trace_overhead_ratio", "ratio"},
		[2]string{"obs.self_sum_error_ratio", "ratio"},
		[2]string{"xrootd.events_per_s", "events/s"},
		[2]string{"xrootd.http_ratio", "ratio"},
	)
	for _, l := range selfLayers {
		out = append(out, [2]string{l + ".self_share", "ratio"})
	}
	return out
}

// xrdRunner is implemented by the workload that also runs its loop over
// the xrootd baseline.
type xrdRunner interface {
	runXrd(deadline time.Time, res *result) error
}

// runTraced measures the workload untraced, then traced, and derives the
// per-layer metrics. The untraced phase supplies the runtime figures and
// the base of the tracing overhead; everything else comes from the traced
// phase.
func runTraced(wl *workload, inst instance, seconds float64, rec *record) error {
	st := inst.stack()
	xr, hasXrd := inst.(xrdRunner)
	phases := 2.0
	if hasXrd {
		phases = 3
	}
	phase := dur(seconds / phases)

	plain := newResult(wl.tailPct)
	rt := startRuntimeProbe()
	if err := inst.run(time.Now().Add(phase), plain); err != nil {
		return err
	}
	rtm := rt.stop()

	before := serverCounts(st)
	r := newRecorder()
	st.rec.Store(r)
	traced := newResult(wl.tailPct)
	err := inst.run(time.Now().Add(phase), traced)
	st.rec.Store(nil)
	if err != nil {
		return err
	}
	after := serverCounts(st)
	spans := r.snapshot()
	resolveParents(spans)
	self, wall := selfTimes(spans)

	m := map[string]float64{}
	var xrdRes *result
	if hasXrd {
		xrdRes = newResult(wl.tailPct)
		if err := xr.runXrd(time.Now().Add(phase), xrdRes); err != nil {
			return err
		}
		m["xrootd.events_per_s"] = xrdRes.opsPerS
		m["xrootd.http_ratio"] = ratio(plain.opsPerS, xrdRes.opsPerS)
	}

	for _, res := range []*result{plain, traced, xrdRes} {
		if res == nil {
			continue
		}
		rec.Attempt += res.attempted
		rec.Failed += res.failed
		rec.Problems = append(rec.Problems, res.problems...)
	}
	traced.addTimings(rec)

	// runtime: whole process, untraced phase.
	ops := float64(plain.ops)
	m["runtime.cpu_ms_per_op"] = ratio(rtm.cpuMs, ops)
	m["runtime.alloc_bytes_per_op"] = ratio(rtm.allocBytes, ops)
	m["runtime.gc_cycles"] = rtm.gcCycles
	m["runtime.peak_heap_MiB"] = rtm.peakHeap / (1 << 20)
	m["obs.trace_overhead_ratio"] = ratio(traced.opsPerS, plain.opsPerS)

	// Client counters.
	e, c, p := traced.snap.Engine, traced.snap.Cache, traced.snap.Pool
	tops := float64(traced.ops)
	m["core.requests_per_op"] = ratio(float64(e.Requests), tops)
	m["core.retries"] = float64(e.Retries)
	for _, call := range coreCalls {
		s := summarize(traced.calls[call])
		m["core.call_p50_ms."+call] = s.Median
		m["core.call_tail_ms."+call] = s.Tail
	}
	if traced.fragments > 0 { // vectored reads only: other GETs carry no fragment list
		getReqs := float64(after["GET"] - before["GET"])
		m["rangev.fragments_per_request"] = ratio(float64(traced.fragments), getReqs)
		m["rangev.overfetch_ratio"] = ratio(float64(after["served"]-before["served"]), float64(traced.askedBytes))
	}
	// Wire overhead: request and response bytes beyond the bodies the
	// server sent and received, that is headers, per request.
	bodies := after["served"] - before["served"] + after["put"] - before["put"]
	m["wire.overhead_bytes_per_request"] = ratio(float64(e.BytesUp+e.BytesDown-bodies), float64(e.Requests))
	m["pool.dials"] = float64(p.Dials)
	m["pool.reuse_ratio"] = ratio(float64(p.Reuses), float64(p.Dials+p.Reuses))
	m["blockcache.hit_ratio"] = ratio(float64(c.Hits), float64(c.Hits+c.Misses))
	m["blockcache.stat_hit_ratio"] = ratio(float64(c.StatHits), float64(c.StatHits+c.StatMisses))
	m["blockcache.prefetch_useful_ratio"] = ratio(float64(c.PrefetchUsefulBytes), float64(c.PrefetchIssuedBytes))

	// Server counters.
	for _, meth := range serverMethods {
		m["httpserv.requests."+meth] = float64(after[meth] - before[meth])
	}
	m["webdav.propfinds"] = float64(after["PROPFIND"] - before["PROPFIND"])
	m["webdav.entries_per_propfind"] = ratio(float64(traced.walkEntries), m["webdav.propfinds"])
	m["httpserv.shed"] = float64(after["shed"] - before["shed"])
	m["netsim.dials"] = float64(after["simdials"] - before["simdials"])
	m["netsim.bytes"] = float64(after["simbytes"] - before["simbytes"])

	// Span-derived figures.
	byName := map[string][]float64{}
	busy := map[string]float64{}
	for _, s := range spans {
		d := float64(s.end-s.start) / 1e6
		byName[s.layer+"."+s.name] = append(byName[s.layer+"."+s.name], d)
		busy[s.layer] += d / 1e3
	}
	fills := append(append([]float64(nil), byName["core.fill"]...), byName["core.fill-async"]...)
	fs := summarize(fills)
	m["rootio.fill_p50_ms"], m["rootio.fill_tail_ms"] = fs.Median, fs.Tail
	m["pool.dial_ms"] = median(byName["pool.dial"])
	m["webdav.propfind_p50_ms"] = median(byName["webdav.PROPFIND"])
	gets := summarize(byName["httpserv.GET"])
	m["httpserv.get_p50_ms"], m["httpserv.get_tail_ms"] = gets.Median, gets.Tail
	m["httpserv.put_p50_ms"] = median(byName["httpserv.PUT"])
	m["httpserv.busy_s"] = busy["httpserv"] + busy["webdav"]
	m["storage.get_s"] = sum(byName["storage.Get"]) / 1e3
	m["storage.put_s"] = sum(byName["storage.Put"]) / 1e3
	var selfSum float64
	for _, l := range selfLayers {
		m[l+".self_share"] = ratio(self[l], wall)
		selfSum += self[l]
	}
	for l := range self {
		if !contains(selfLayers, l) {
			rec.Problems = append(rec.Problems, fmt.Sprintf("self time attributed to unknown layer %q", l))
		}
	}
	m["obs.self_sum_error_ratio"] = ratio(math.Abs(selfSum-wall), wall)
	rec.Figures["obs.spans"] = metric{float64(len(spans)), "count"}
	if wall == 0 {
		rec.Problems = append(rec.Problems, "traced phase recorded no op spans")
	} else if m["obs.self_sum_error_ratio"] > selfSumTolerance {
		rec.Problems = append(rec.Problems, fmt.Sprintf("layer self times sum to %.4f of op wall time, outside the %.2f tolerance",
			selfSum/wall, selfSumTolerance))
	}
	for k, v := range traced.figures {
		if layerName, ok := figureLayers[k]; ok {
			k = layerName
		}
		if hasUnit(k) {
			m[k] = v.Value
		} else {
			rec.Figures[k] = v
		}
	}
	rec.Figures["untraced.ops_per_s"] = metric{plain.opsPerS, "ops/s"}
	rec.Figures["traced.ops_per_s"] = metric{traced.opsPerS, "ops/s"}
	rec.Meta["self_sum_tolerance"] = selfSumTolerance
	rec.Meta["span_join_rule"] = "a span joins the unique covering span at the nearest level up (same client lane, any lane for a shared client; a server handler joins the unique covering request); otherwise it is unjoined and counts only toward its layer's busy time"

	for _, mu := range layerMetricUnits() {
		rec.Metrics[mu[0]] = metric{m[mu[0]], mu[1]}
	}
	return writeSpans(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace1.tsv", wl.name, rec.Seed)), spans)
}

// figureLayers maps the workload figures a traced run reports as
// per-layer metrics to their layer names.
var figureLayers = map[string]string{
	"first_event_ms":     "rootio.first_event_ms",
	"upload_MiBps":       "core.upload_MiBps",
	"download_MiBps":     "core.download_MiBps",
	"kernel_bytes_ratio": "core.kernel_bytes_ratio",
	"walk_entries_per_s": "webdav.walk_entries_per_s",
}

// hasUnit reports whether name is one of the per-layer metrics.
func hasUnit(name string) bool {
	for _, mu := range layerMetricUnits() {
		if mu[0] == name {
			return true
		}
	}
	return false
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// serverCounts snapshots the server-side counters the traced run diffs.
func serverCounts(st *stack) map[string]int64 {
	out := map[string]int64{"served": st.servedBytes.Load(), "put": st.putBytes.Load(), "simbytes": st.simBytes.Load()}
	for _, m := range serverMethods {
		out[m] = st.server.RequestsByMethod(m)
	}
	for _, c := range st.server.Snapshot().Counters {
		if c.Name == "shed_total" {
			out["shed"] = c.Value
		}
	}
	if st.sim != nil {
		out["simdials"] = st.sim.Dials()
	}
	return out
}

// runtimeProbe measures the whole process over a phase: CPU time from
// getrusage, allocation and GC counts from the runtime, and the peak live
// heap sampled every 20ms (the heap includes the in-process store).
type runtimeProbe struct {
	ru0   syscall.Rusage
	ms0   runtime.MemStats
	stop_ chan struct{}
	wg    sync.WaitGroup
	peak  float64
}

type runtimeFigures struct {
	cpuMs, allocBytes, gcCycles, peakHeap float64
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{stop_: make(chan struct{})}
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &p.ru0) // cannot fail for RUSAGE_SELF
	runtime.ReadMemStats(&p.ms0)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := float64(sample[0].Value.Uint64()); v > p.peak {
				p.peak = v
			}
			select {
			case <-p.stop_:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *runtimeProbe) stop() runtimeFigures {
	close(p.stop_)
	p.wg.Wait()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := func(r syscall.Rusage) float64 {
		return float64(r.Utime.Nano()+r.Stime.Nano()) / 1e6
	}
	return runtimeFigures{
		cpuMs:      cpu(ru) - cpu(p.ru0),
		allocBytes: float64(ms.TotalAlloc - p.ms0.TotalAlloc),
		gcCycles:   float64(ms.NumGC - p.ms0.NumGC),
		peakHeap:   p.peak,
	}
}
