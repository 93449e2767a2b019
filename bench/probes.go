package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"tagmatch"
	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
	"tagmatch/internal/core"
	"tagmatch/internal/gpu"
	"tagmatch/internal/httpserver"
	"tagmatch/internal/obs"
)

// Probes time one public function of one package in isolation, on inputs
// taken from the run's dataset. Each is the median of probeReps
// repetitions and is wrapped in a span.
const probeReps = 5

func (l *spanLog) probe(name string, rep func() float64) float64 {
	vals := make([]float64, probeReps)
	l.time(name, "probes", func() {
		for i := range vals {
			vals[i] = rep()
		}
	})
	return median(vals)
}

// perOp times n calls of f and returns nanoseconds per call.
func perOp(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

var sink uint64 // keeps probe results alive

// globalProbes are the probes that need no engine.
func globalProbes(ds *dataset, l *spanLog, m metrics) error {
	sigs := ds.oracle.sigs
	rng := rand.New(rand.NewSource(ds.seed ^ 0x9e37))
	qtags := ds.queries(512, -1)
	queries := make([]bitvec.Vector, len(qtags))
	for i, t := range qtags {
		queries[i] = bloom.Signature(t)
	}

	five := ds.pool[0].tags
	for _, s := range ds.pool {
		if len(s.tags) == 5 {
			five = s.tags
			break
		}
	}
	m["bloom.signature_ns"] = l.probe("bloom.Signature", func() float64 {
		return perOp(100_000, func(int) { sink += bloom.Signature(five)[0] })
	})

	sorted := slices.Clone(sigs[:min(len(sigs), 1<<16)])
	slices.SortFunc(sorted, bitvec.Compare)
	var groups []bitvec.SlicedGroup
	m["bitvec.build_sliced_ns_per_set"] = l.probe("bitvec.BuildSlicedGroups", func() float64 {
		t0 := time.Now()
		groups = bitvec.BuildSlicedGroups(sorted)
		return float64(time.Since(t0)) / float64(len(sorted))
	})
	m["bitvec.subset_lanes_ns"] = l.probe("bitvec.LaneBlock.SubsetLanesCols", func() float64 {
		return perOp(200_000, func(i int) {
			hits, _ := groups[i%len(groups)].SubsetLanesCols(queries[i%len(queries)])
			sink += hits
		})
	})

	// Both core benchmarks partition their input first, which costs more
	// than what they time, so they get a sample of the signatures at the
	// paper's partition ratio: one in four keeps stream_fanout's ~1,900
	// partitions, and the kernel's untimed parity pass is a brute-force
	// scan, so it gets one in eight.
	every := func(k int) []bitvec.Vector {
		out := make([]bitvec.Vector, 0, len(sigs)/k+1)
		for i := 0; i < len(sigs); i += k {
			out = append(out, sigs[i])
		}
		return out
	}
	quarter, eighth := every(4), every(8)
	m["core.preprocess.route_ns_per_query"] = l.probe("core.RoutingBenchmark", func() float64 {
		_, sliced, _ := core.RoutingBenchmark(quarter, max(len(quarter)/1000, minPartition), queries, 2)
		return sliced
	})
	parity := true
	m["core.kernel.isolated_ns_per_query"] = l.probe("core.KernelBenchmark", func() float64 {
		r := core.KernelBenchmark(eighth, max(len(eighth)/1000, minPartition), queries, 256, 256, 2, fixedGPUWorkers)
		parity = parity && r.Parity
		return r.SlicedNs
	})
	if !parity {
		return fmt.Errorf("core.KernelBenchmark: kernel flavors disagree with the reference")
	}

	rt, err := gpuRoundTrip(l)
	if err != nil {
		return err
	}
	m["gpu.roundtrip_p50_us"] = rt

	var h obs.Histogram
	m["obs.observe_ns"] = l.probe("obs.Histogram.Observe", func() float64 {
		return perOp(1_000_000, func(int) { h.Observe(rng.Int63n(1 << 30)) })
	})
	return nil
}

// gpuRoundTrip is the simulator's own cost per batch: H2D 6 KB, a
// one-block launch and D2H 4 KB on one stream of a device with the
// realistic cost model, minus what the model charges for them.
func gpuRoundTrip(l *spanLog) (float64, error) {
	dev := gpu.New(gpu.Config{Workers: fixedGPUWorkers, Cost: gpu.DefaultCost})
	defer dev.Close()
	stream, err := dev.OpenStream()
	if err != nil {
		return 0, err
	}
	defer stream.Close()
	in, err := gpu.Alloc[byte](dev, 6<<10)
	if err != nil {
		return 0, err
	}
	defer in.Free()
	out, err := gpu.Alloc[byte](dev, 4<<10)
	if err != nil {
		return 0, err
	}
	defer out.Free()
	src, dst := make([]byte, 6<<10), make([]byte, 4<<10)
	c := gpu.DefaultCost
	modeled := 2*float64(c.CopyOverhead) + float64(len(src)+len(dst))/c.CopyBytesPerSec*1e9 + float64(c.LaunchOverhead)

	var syncErr error
	us := l.probe("gpu.roundtrip", func() float64 {
		took := make([]float64, 200)
		for i := range took {
			t0 := time.Now()
			gpu.CopyToDeviceAsync(stream, in, 0, src)
			stream.LaunchAsync(gpu.Grid{Blocks: 1, BlockDim: 32}, func(*gpu.BlockCtx) {})
			gpu.CopyFromDeviceAsync(stream, out, dst, 0)
			if err := stream.SynchronizeErr(); err != nil {
				syncErr = err
			}
			took[i] = (float64(time.Since(t0)) - modeled) / 1e3
		}
		slices.Sort(took)
		return quantile(took, 0.5)
	})
	return us, syncErr
}

// engineProbes time the blocking entry points on an idle, loaded engine:
// sequential MatchUnique calls, one per query given, and as many POST
// /match through the HTTP handler in process. The queries are split over
// the repetitions; each repetition's value is its p50.
func engineProbes(eng *tagmatch.Engine, queries [][]string, l *spanLog, m metrics) error {
	var firstErr error
	per := len(queries) / probeReps
	rep := 0
	m["tagmatch.blocking_match_p50_us"] = l.probe("tagmatch.MatchUnique", func() float64 {
		took := make([]float64, per)
		for i := range took {
			t0 := time.Now()
			if _, err := eng.MatchUnique(queries[rep*per+i]); err != nil && firstErr == nil {
				firstErr = err
			}
			took[i] = float64(time.Since(t0)) / 1e3
		}
		rep++
		slices.Sort(took)
		return quantile(took, 0.5)
	})
	handler := httpserver.Handler(eng)
	bodies := make([][]byte, len(queries))
	for i := range bodies {
		bodies[i], _ = json.Marshal(httpserver.MatchRequest{Tags: queries[i]}) // strings always marshal
	}
	rep = 0
	m["httpserver.match_p50_us"] = l.probe("httpserver.Handler", func() float64 {
		took := make([]float64, per)
		for i, body := range bodies[rep*per : (rep+1)*per] {
			req := httptest.NewRequest(http.MethodPost, "/match", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			t0 := time.Now()
			handler.ServeHTTP(rec, req)
			took[i] = float64(time.Since(t0)) / 1e3
			if rec.Code != http.StatusOK && firstErr == nil {
				firstErr = fmt.Errorf("POST /match: status %d", rec.Code)
			}
		}
		rep++
		slices.Sort(took)
		return quantile(took, 0.5)
	})
	return firstErr
}
