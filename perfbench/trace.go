package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	davix "godavix"
)

// Span nesting levels, from the workload op down to the store. A span's
// parent is resolved after the run by time containment: the innermost
// span of a lower level that covers it (see resolveParents).
const (
	levelOp     = 0 // one workload op (an analysis job, a ReadVec, ...)
	levelRootio = 1 // rootio calls: OpenReader, one event's Branch reads
	levelCore   = 2 // public davix calls, rootio window fills
	levelWire   = 3 // one engine request, from the ClientTrace OpDone hook
	levelPool   = 4 // a Dialer.DialContext
	levelServer = 4 // one server handler call
	levelStore  = 5 // one storage.Store call
)

// serverLane marks spans recorded on the server side, which carry no
// client lane and join a client span only by unique containment.
const serverLane = -1

// sharedLane marks the engine spans of a client that several load
// goroutines share: they may join a span of any client lane.
const sharedLane = -2

// span is one timed call at a layer boundary. Times are nanoseconds since
// the recorder's epoch.
type span struct {
	lane   int
	level  int
	layer  string
	name   string
	start  int64
	end    int64
	op     int // index of the root op span, -1 when unjoined
	parent int // resolved post hoc, -1 for roots and unjoined spans
	// bg marks work issued asynchronously (pipelined window fills): it is
	// not on the caller's blocking path, so it and its subtree are left
	// out of the self-time attribution.
	bg bool
}

// recorder keeps spans in memory for one traced phase. A nil *recorder is
// the untraced mode: every method is a no-op.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is the recorder clock; 0 when tracing is off.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// add records a span that ran from start to now.
func (r *recorder) add(lane, level int, layer, name string, start int64, bg bool) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{lane: lane, level: level, layer: layer, name: name, start: start, end: end, op: -1, parent: -1, bg: bg})
	r.mu.Unlock()
}

// clientTrace records every engine request of a lane's client as a wire
// span. OpDone carries the caller-observed duration, so the span needs no
// start/done pairing across concurrent requests.
func (r *recorder) clientTrace(lane int) *davix.ClientTrace {
	if r == nil {
		return nil
	}
	return &davix.ClientTrace{
		OpDone: func(op, host, path string, d time.Duration, err error) {
			end := r.now()
			r.mu.Lock()
			r.spans = append(r.spans, span{lane: lane, level: levelWire, layer: "wire", name: op, start: end - int64(d), end: end, op: -1, parent: -1})
			r.mu.Unlock()
		},
	}
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// resolveParents links every span to its parent by time containment and
// marks the op each joined span belongs to. A client span's candidates are
// the spans of its own lane (of any client lane, for the engine spans of a
// shared client) at a lower level that cover it; a server
// handler's candidates are the wire spans of any lane that cover it; a
// store call's are the server handlers that cover it. Of the candidates at
// the deepest level, exactly one must exist for the span to join: with two
// requests in flight nothing says which one a handler served, so the span
// stays unjoined and only counts toward its layer's busy time.
func resolveParents(spans []span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := &spans[order[a]], &spans[order[b]]
		if sa.start != sb.start {
			return sa.start < sb.start
		}
		if sa.level != sb.level {
			return sa.level < sb.level
		}
		return sa.end > sb.end
	})
	active := make([][]int, levelStore+1)
	for _, i := range order {
		s := &spans[i]
		for l := range active {
			kept := active[l][:0]
			for _, j := range active[l] {
				if spans[j].end >= s.start {
					kept = append(kept, j)
				}
			}
			active[l] = kept
		}
		s.parent = -1
	levels:
		for l := s.level - 1; l >= 0; l-- {
			found := -1
			for _, j := range active[l] {
				c := &spans[j]
				if c.end < s.end || !canParent(c, s) {
					continue
				}
				if found >= 0 {
					break levels // ambiguous: unjoined
				}
				found = j
			}
			if found >= 0 {
				s.parent = found
				break
			}
			if s.lane == serverLane {
				break // server spans join only their direct level
			}
		}
		switch {
		case s.level == levelOp:
			s.op = i
		case s.parent >= 0:
			p := &spans[s.parent]
			s.op = p.op
			s.bg = s.bg || p.bg
		}
		active[s.level] = append(active[s.level], i)
	}
}

// canParent reports whether c may contain s by lane and level rules.
func canParent(c, s *span) bool {
	switch {
	case s.lane == sharedLane:
		return c.lane != serverLane
	case s.lane != serverLane:
		return c.lane == s.lane
	case s.level == levelServer:
		return c.level == levelWire
	default: // store call
		return c.lane == serverLane && c.level == levelServer
	}
}

// selfTimes attributes each op's wall time to layers. At every instant of
// an op, the time goes to the deepest spans of its blocking path that are
// running (those with no running child), split evenly when several run at
// once. With no concurrency this is each span's duration minus the part
// its children cover; with concurrent children it still sums exactly to
// the op's wall time, which the caller checks. Unjoined and background
// spans are excluded.
func selfTimes(spans []span) (byLayer map[string]float64, wall float64) {
	byLayer = map[string]float64{}
	members := map[int][]int{}
	for i := range spans {
		s := &spans[i]
		if s.op < 0 || s.bg {
			continue
		}
		members[s.op] = append(members[s.op], i)
	}
	for root, ids := range members {
		r := spans[root]
		wall += float64(r.end - r.start)
		type edge struct {
			t   int64
			id  int
			add bool
		}
		var edges []edge
		for _, id := range ids {
			s := spans[id]
			st, en := max(s.start, r.start), min(s.end, r.end)
			if en <= st && id != root {
				continue
			}
			edges = append(edges, edge{st, id, true}, edge{en, id, false})
		}
		sort.Slice(edges, func(a, b int) bool { return edges[a].t < edges[b].t })
		running := map[int]bool{}
		kids := map[int]int{}
		for k := 0; k < len(edges); {
			t := edges[k].t
			for ; k < len(edges) && edges[k].t == t; k++ {
				e := edges[k]
				p := spans[e.id].parent
				if e.add {
					running[e.id] = true
					if e.id != root {
						kids[p]++
					}
				} else {
					delete(running, e.id)
					if e.id != root {
						kids[p]--
					}
				}
			}
			if k == len(edges) {
				break
			}
			dt := float64(edges[k].t - t)
			if dt == 0 {
				continue
			}
			var frontier []int
			for id := range running {
				if kids[id] == 0 {
					frontier = append(frontier, id)
				}
			}
			for _, id := range frontier {
				byLayer[spans[id].layer] += dt / float64(len(frontier))
			}
		}
	}
	return byLayer, wall
}

// writeSpans writes the spans as tab-separated lines for offline study.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tlane\tlayer\tname\tstart_ns\tend_ns\tbg")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%s\t%d\t%d\t%t\n", i, s.parent, s.op, s.lane, s.layer, s.name, s.start, s.end, s.bg)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
