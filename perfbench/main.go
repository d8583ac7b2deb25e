// Command perfbench is the repository benchmark: four closed-loop
// workloads against the in-process dpm-server stack (httpserv over a
// MemStore), two over the netsim WAN profile and two over real loopback
// TCP. It checks every output, prints each metric by name with its unit,
// and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation installed. With -trace 1 the run measures the workload
// untraced and then traced, and reports per-layer metrics from the spans
// recorded at each layer boundary (see trace.go and stack.go).
//
// Build and run from the repository root (perfbench/run.sh does both):
//
//	bash perfbench/run.sh --workload vecread-loopback --seed 1 --seconds 10 --trace 0
//
// The full record (run metadata, sample counts and quartiles of every
// timing, per-layer figures) is written to
// .bench_build/perfbench-out/<workload>-seed<N>-trace<T>.json and the
// spans of a traced run next to it as a .tsv file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Link kinds, as stated in every record.
const (
	linkLoopback = "loopback"
	linkWAN      = "netsim-wan"
)

// setupRepeats is how many times a run builds its set-up; setup_s is the
// median, so one slow build does not move it.
const setupRepeats = 5

// selfSumTolerance bounds |sum of layer self times - op wall| / op wall.
const selfSumTolerance = 0.01

// outDir holds records and span dumps, inside the build directory the
// checkout ignores.
const outDir = ".bench_build/perfbench-out"

// workload is one named traffic mix.
type workload struct {
	name string
	link string
	why  string
	// tailPct is the percentile op_tail_ms reports, fixed per workload so a
	// faster or slower program is compared at the same percentile: a rung
	// of the tail ladder with tailBeyond samples above it at the workload's
	// op count, low enough that hypervisor CPU steal on a shared host does
	// not swamp it (on a 2-vCPU guest, vecread's p99 nearly doubled at 8%
	// steal). The record's op_ms timing also gives the highest rung the
	// sample supports.
	tailPct float64
	// lanes is the number of load goroutines.
	lanes int
	// setup builds the inputs and the stack; a new instance per call.
	setup func(seed int64) (instance, error)
}

// preparer is implemented by a workload that computes its expected
// results after set-up, outside the timed set-up.
type preparer interface {
	prepare() error
}

// instance is one set-up workload, ready to run phases.
type instance interface {
	// stack returns the server stack the workload runs against.
	stack() *stack
	// run drives the closed loop until the deadline and records into res.
	run(deadline time.Time, res *result) error
	// close releases the stack and any temporary files.
	close()
}

var workloads = []workload{
	{name: "analysis-wan", link: linkWAN, setup: setupAnalysis, tailPct: 99.9, lanes: 1,
		why: "paper's headline job: latency- and round-trip-bound, so window pipelining and request counts show, CPU changes should not"},
	{name: "vecread-loopback", link: linkLoopback, setup: setupVecread, tailPct: 95, lanes: vecLanes,
		why: "multi-range reads bound by CPU on both sides: wire parsing, rangev scatter and the server's multipart writer"},
	{name: "transfer-loopback", link: linkLoopback, setup: setupTransfer, tailPct: 75, lanes: 1,
		why: "multi-stream upload and download through files: the only workload on the kernel byte path and ranged-PUT assembly"},
	{name: "catalog-wan", link: linkWAN, setup: setupCatalog, tailPct: 95, lanes: catalogLanes,
		why: "walk, stat and whole-file reads with the stat and block caches on: the only workload for PROPFIND and read-ahead"},
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed (drives every generated input)")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := run(wl, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full output of one run.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Meta     map[string]any     `json:"meta"`
	Correct  bool               `json:"correct"`
	Problems []string           `json:"problems,omitempty"`
	Attempt  int64              `json:"attempted"`
	Failed   int64              `json:"failed"`
	Metrics  map[string]metric  `json:"metrics"`
	Timings  map[string]Summary `json:"timings"`
	Figures  map[string]metric  `json:"figures"`
}

func run(wl *workload, seed int64, seconds float64, traced bool) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rec := &record{
		Workload: wl.name, Seed: seed, Trace: traced,
		Meta:    runMeta(wl, seconds),
		Metrics: map[string]metric{}, Timings: map[string]Summary{}, Figures: map[string]metric{},
	}

	steal0, total0 := cpuSteal()
	// Set-up: build it several times, keep the last, report the median.
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var inst instance
	var setupS []float64
	for i := 0; i < repeats; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = wl.setup(seed)
		if err != nil {
			return fmt.Errorf("%s setup: %w", wl.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer inst.close()
	rec.Timings["setup_s"] = summarize(setupS)
	if p, ok := inst.(preparer); ok {
		if err := p.prepare(); err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
	}

	var err error
	if traced {
		err = runTraced(wl, inst, seconds, rec)
	} else {
		err = runPlain(wl, inst, seconds, rec)
	}
	if err != nil {
		return err
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		// Time the hypervisor gave this machine's CPUs to other guests: on a
		// shared host it explains run-to-run drift of CPU-bound figures.
		rec.Meta["cpu_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	rec.Correct = len(rec.Problems) == 0 && rec.Failed == 0
	finite(rec.Metrics)
	finite(rec.Figures)

	if err := writeRecord(rec); err != nil {
		return err
	}
	printRecord(rec)
	line, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempt, "failed": rec.Failed, "metrics": rec.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runPlain is the end-to-end run: one untraced phase.
func runPlain(wl *workload, inst instance, seconds float64, rec *record) error {
	res := newResult(wl.tailPct)
	if err := inst.run(time.Now().Add(dur(seconds)), res); err != nil {
		return err
	}
	rec.Attempt, rec.Failed = res.attempted, res.failed
	rec.Problems = append(rec.Problems, res.problems...)
	e2e := endToEnd(res)
	e2e["setup_s"] = metric{rec.Timings["setup_s"].Median, "s"}
	rec.Metrics = e2e
	res.addTimings(rec)
	for k, v := range res.figures {
		rec.Figures[k] = v
	}
	return nil
}

// endToEnd derives the gated metrics from one phase. Every workload
// defines all of them (see the workload files for what an op is).
func endToEnd(res *result) map[string]metric {
	lat := summarizeAt(res.lat, res.tailPct)
	return map[string]metric{
		"ops_per_s":   {res.opsPerS, "ops/s"},
		"MiB_per_s":   {res.mibPerS, "MiB/s"},
		"op_p50_ms":   {lat.Median, "ms"},
		"op_tail_ms":  {lat.Tail, "ms"},
		"first_op_ms": {median(res.firstOp), "ms"},
	}
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// runMeta states what a reader needs to compare two records.
func runMeta(wl *workload, seconds float64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	link := map[string]any{"kind": wl.link}
	if wl.link == linkLoopback {
		link["path"] = "real TCP on 127.0.0.1, client and server in one process"
	}
	if wl.link == linkWAN {
		link["rtt_ms"] = 12
		link["bandwidth_MiBps"] = 32
		link["profile"] = "netsim.WAN (1:25 scaled 300 ms RTT, 32 MiB/s per connection, slow start)"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"link":       link,
		"seconds":    seconds,
		"why":        wl.why,
		"closed_loop": fmt.Sprintf("%d load goroutine(s), MaxPerHost %d per client, each caller waits for its reply",
			wl.lanes, maxPerHost),
		"tail_rule": fmt.Sprintf("op_tail_ms is p%g for this workload; every other tail is the highest of %v with >= %d samples beyond it",
			wl.tailPct, tailLadder, tailBeyond),
	}
}

func writeRecord(rec *record) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if rec.Trace {
		t = 1
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, t)), b, 0o644)
}

// printRecord prints the human-readable record before the result line.
func printRecord(rec *record) {
	fmt.Printf("workload %s seed %d trace %t: correct=%t attempted=%d failed=%d fail_ratio=%.6f\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Correct, rec.Attempt, rec.Failed, ratio(float64(rec.Failed), float64(rec.Attempt)))
	keys := make([]string, 0, len(rec.Meta))
	for k := range rec.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  meta %-12s %v\n", k, rec.Meta[k])
	}
	for _, p := range rec.Problems {
		fmt.Printf("  PROBLEM %s\n", p)
	}
	printMetrics("metric", rec.Metrics)
	printMetrics("figure", rec.Figures)
	keys = keys[:0]
	for k := range rec.Timings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := rec.Timings[k]
		fmt.Printf("  timing %-34s n=%d median=%.6g q1=%.6g q3=%.6g p%g=%.6g\n", k, s.N, s.Median, s.Q1, s.Q3, s.TailPct, s.Tail)
	}
}

func printMetrics(kind string, m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := m[k]
		fmt.Printf("  %s %-40s %.6g %s\n", kind, k, v.Value, v.Unit)
	}
}

// cpuSteal reads the machine-wide steal and total CPU time from
// /proc/stat, in clock ticks; zeros where it is unavailable.
func cpuSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// finite replaces NaN and Inf, which JSON cannot carry, with 0.
func finite(m map[string]metric) {
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			m[k] = v
		}
	}
}
