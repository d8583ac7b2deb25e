package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{9, 0},     // not even p50 has ten samples above it
		{19, 0},    // p50 leaves 9.5
		{20, 50},   // p50 leaves exactly 10
		{40, 75},   // p75 leaves 10
		{99, 75},   // p90 would leave 9.9
		{100, 90},  // p90 leaves 10
		{1000, 99}, // p99 leaves 10
		{99999, 99.9},
		{100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4},
	} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample quantile = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty sample quantile is not NaN")
	}
}

func TestSummarize(t *testing.T) {
	vals := make([]float64, 0, 100)
	for i := 100; i >= 1; i-- { // unsorted input
		vals = append(vals, float64(i))
	}
	s := summarize(vals)
	if s.N != 100 || s.Median != 50.5 || s.Q1 != 25.75 || s.Q3 != 75.25 {
		t.Errorf("summary = %+v", s)
	}
	if s.TailPct != 90 || math.Abs(s.Tail-90.1) > 1e-9 {
		t.Errorf("tail = p%v %v, want p90 90.1", s.TailPct, s.Tail)
	}
	if vals[0] != 100 {
		t.Error("summarize reordered its input")
	}
	small := summarize([]float64{3, 1, 2})
	if small.TailPct != 0 || small.Tail != 3 {
		t.Errorf("small sample tail = p%v %v, want the maximum", small.TailPct, small.Tail)
	}
	if z := summarize(nil); z.N != 0 || z.Median != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

func TestRatioZeroBase(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio(0, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

// sp builds a client span for the tests.
func sp(lane, level int, layer string, start, end int64) span {
	return span{lane: lane, level: level, layer: layer, start: start, end: end, op: -1, parent: -1}
}

func TestSelfTimeNested(t *testing.T) {
	// op [0,100) > core [10,90) > wire [20,60) > server [30,50) > store [35,40)
	spans := []span{
		sp(0, levelOp, "bench", 0, 100),
		sp(0, levelCore, "core", 10, 90),
		sp(0, levelWire, "wire", 20, 60),
		sp(serverLane, levelServer, "httpserv", 30, 50),
		sp(serverLane, levelStore, "storage", 35, 40),
	}
	resolveParents(spans)
	for i, want := range []int{-1, 0, 1, 2, 3} {
		if spans[i].parent != want {
			t.Errorf("span %d parent = %d, want %d", i, spans[i].parent, want)
		}
	}
	self, wall := selfTimes(spans)
	want := map[string]float64{"bench": 20, "core": 40, "wire": 20, "httpserv": 15, "storage": 5}
	for l, v := range want {
		if self[l] != v {
			t.Errorf("self[%s] = %v, want %v", l, self[l], v)
		}
	}
	if wall != 100 {
		t.Errorf("wall = %v, want 100", wall)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two concurrent requests of one transfer: [10,60) and [30,80) under
	// one core call [0,100) of op [0,100). Where both run they split the
	// time; the core call keeps only the uncovered [0,10) and [80,100).
	spans := []span{
		sp(0, levelOp, "bench", 0, 100),
		sp(0, levelCore, "core", 0, 100),
		sp(0, levelWire, "wire", 10, 60),
		sp(0, levelWire, "wire", 30, 80),
	}
	resolveParents(spans)
	self, wall := selfTimes(spans)
	if self["core"] != 30 || self["wire"] != 70 || self["bench"] != 0 {
		t.Errorf("self = %v, want core 30, wire 70, bench 0", self)
	}
	var sum float64
	for _, v := range self {
		sum += v
	}
	if sum != wall {
		t.Errorf("self times sum to %v, op wall is %v", sum, wall)
	}
}

func TestServerSpanJoinsOnlyUniqueRequest(t *testing.T) {
	// Two lanes each have a request in flight when the handler runs, so the
	// handler cannot be attributed and stays out of both ops.
	spans := []span{
		sp(0, levelOp, "bench", 0, 100),
		sp(1, levelOp, "bench", 0, 100),
		sp(0, levelWire, "wire", 10, 90),
		sp(1, levelWire, "wire", 20, 80),
		sp(serverLane, levelServer, "httpserv", 30, 40),
		sp(serverLane, levelServer, "httpserv", 82, 85), // only lane 0's request covers it
	}
	resolveParents(spans)
	if spans[4].parent != -1 || spans[4].op != -1 {
		t.Errorf("ambiguous handler joined span %d", spans[4].parent)
	}
	if spans[5].parent != 2 || spans[5].op != 0 {
		t.Errorf("unique handler parent = %d op = %d, want 2 and 0", spans[5].parent, spans[5].op)
	}
	self, wall := selfTimes(spans)
	if self["httpserv"] != 3 || wall != 200 {
		t.Errorf("self = %v wall = %v", self, wall)
	}
}

func TestBackgroundSpansLeaveBlockingPath(t *testing.T) {
	// An asynchronous fill and its request overlap the op's own compute;
	// they are not on the caller's blocking path, so the op keeps its time.
	spans := []span{
		sp(0, levelOp, "bench", 0, 100),
		sp(0, levelRootio, "rootio", 60, 70),
		sp(0, levelCore, "core", 10, 50),
		sp(0, levelWire, "wire", 15, 45),
	}
	spans[2].bg = true
	resolveParents(spans)
	if !spans[3].bg {
		t.Error("request under a background fill is not marked background")
	}
	self, _ := selfTimes(spans)
	if self["bench"] != 90 || self["rootio"] != 10 || self["core"] != 0 || self["wire"] != 0 {
		t.Errorf("self = %v, want bench 90, rootio 10", self)
	}
}
