package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	davix "godavix"
)

// vecread-loopback: two lanes, each with its own client and one open
// File, issue random vectored reads in a closed loop over real loopback
// TCP. An op is one File.ReadVec of ~128 sorted fragments; first_op_ms is
// a fresh client's Open and first ReadVec, dial included, probed by lane 0
// every vecProbeEvery ops so the probes span the whole run.
const (
	vecPath       = "/store/vec.bin"
	vecBaseSize   = 64 << 20
	vecFragments  = 128
	vecMinFrag    = 256
	vecMaxFrag    = 4096
	vecLanes      = 2
	vecProbeEvery = 25
)

type vecInst struct {
	st   *stack
	data []byte
	seed int64
	// round advances per phase, so each phase draws fresh fragments.
	round int64
}

func setupVecread(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, vecBaseSize+rng.Int63n(8<<20))
	rng.Read(data)
	st, err := newStack(linkLoopback, false)
	if err != nil {
		return nil, err
	}
	if err := st.store.Put(vecPath, data); err != nil {
		st.close()
		return nil, err
	}
	return &vecInst{st: st, data: data, seed: seed}, nil
}

func (v *vecInst) stack() *stack { return v.st }
func (v *vecInst) close()        { v.st.close() }

// fragments draws ~vecFragments sorted, non-overlapping ranges, with
// destinations carved from buf (vecFragments*vecMaxFrag bytes), so the
// benchmark's own allocations do not add garbage-collector work.
func (v *vecInst) fragments(rng *rand.Rand, buf []byte) ([]davix.Range, [][]byte) {
	offs := make([]int64, vecFragments)
	span := int64(len(v.data)) - vecMaxFrag
	for i := range offs {
		offs[i] = rng.Int63n(span)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	ranges := make([]davix.Range, 0, vecFragments)
	next := int64(0)
	for _, off := range offs {
		if off < next {
			continue // would overlap the previous fragment
		}
		n := vecMinFrag + rng.Int63n(vecMaxFrag-vecMinFrag+1)
		ranges = append(ranges, davix.Range{Off: off, Len: n})
		next = off + n
	}
	dsts := make([][]byte, len(ranges))
	for i, r := range ranges {
		dsts[i] = buf[i*vecMaxFrag : i*vecMaxFrag+int(r.Len)]
	}
	return ranges, dsts
}

// check compares every fragment with the source bytes.
func (v *vecInst) check(ranges []davix.Range, dsts [][]byte) string {
	for i, r := range ranges {
		if !bytes.Equal(dsts[i], v.data[r.Off:r.Off+r.Len]) {
			return fmt.Sprintf("ReadVec fragment [%d,+%d) differs from the source", r.Off, r.Len)
		}
	}
	return ""
}

// readVec is one timed op on f.
func (v *vecInst) readVec(f *davix.File, lane int, rng *rand.Rand, buf []byte, res *result) float64 {
	ranges, dsts := v.fragments(rng, buf)
	rec := v.st.rec.Load()
	opStart := rec.now()
	t0 := time.Now()
	err := f.ReadVec(ranges, dsts)
	lat := sinceMs(t0)
	rec.add(lane, levelCore, "core", "ReadVec", opStart, false)
	rec.add(lane, levelOp, "bench", "op", opStart, false)
	problem := ""
	if err != nil {
		problem = fmt.Sprintf("ReadVec: %v", err)
	} else {
		problem = v.check(ranges, dsts)
	}
	var n int64
	for _, r := range ranges {
		n += r.Len
	}
	res.op(lat, problem == "", problem)
	res.call("ReadVec", lat)
	res.add(func(r *result) {
		r.fragments += int64(len(ranges))
		r.askedBytes += n
		r.payload += n
	})
	return lat
}

func (v *vecInst) run(deadline time.Time, res *result) error {
	v.round++
	var wg sync.WaitGroup
	busy := make([]float64, vecLanes)
	ops := make([]int, vecLanes)
	errs := make([]error, vecLanes)
	for lane := 0; lane < vecLanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(v.seed*1000 + v.round*10 + int64(lane)))
			buf := make([]byte, vecFragments*vecMaxFrag)
			client, err := v.st.newClient(lane, davix.Options{})
			if err != nil {
				errs[lane] = err
				return
			}
			defer client.Close()
			f, err := client.Open(context.Background(), v.st.url(vecPath))
			if err != nil {
				errs[lane] = fmt.Errorf("open: %w", err)
				return
			}
			defer f.Close()
			// Warm the connection and the heap before timing.
			for i := 0; i < 20; i++ {
				v.readVec(f, lane, rng, buf, newResult(0))
			}
			for time.Now().Before(deadline) {
				busy[lane] += v.readVec(f, lane, rng, buf, res) / 1e3
				ops[lane]++
				if lane == 0 && ops[lane]%vecProbeEvery == 0 {
					if err := v.coldProbe(rng, buf, res); err != nil {
						errs[lane] = err
						return
					}
				}
			}
			res.addClient(client)
		}(lane)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Each lane's rate is its ops over its time inside ReadVec; the lanes
	// run concurrently, so the workload's rate is their sum.
	for lane := range busy {
		res.opsPerS += ratio(float64(ops[lane]), busy[lane])
	}
	res.mibPerS = ratio(float64(res.payload)/(1<<20)*res.opsPerS, float64(res.ops))
	return nil
}

// coldProbe times a fresh client's Open and first ReadVec, dial included.
func (v *vecInst) coldProbe(rng *rand.Rand, buf []byte, res *result) error {
	client, err := v.st.newClient(0, davix.Options{})
	if err != nil {
		return err
	}
	defer client.Close()
	ranges, dsts := v.fragments(rng, buf)
	t0 := time.Now()
	f, err := client.Open(context.Background(), v.st.url(vecPath))
	if err == nil {
		err = f.ReadVec(ranges, dsts)
		f.Close()
	}
	lat := sinceMs(t0)
	res.addClient(client)
	switch {
	case err != nil:
		res.problem(fmt.Sprintf("cold ReadVec: %v", err))
	case v.check(ranges, dsts) != "":
		res.problem("cold " + v.check(ranges, dsts))
	default:
		res.add(func(r *result) { r.firstOp = append(r.firstOp, lat) })
	}
	return nil
}
