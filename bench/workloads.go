package main

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"tagmatch"
	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
)

// workloadSpec is one named traffic mix. The names are fixed: later
// issues refer to them.
type workloadSpec struct {
	name      string
	unique    bool // SubmitUnique instead of Submit
	extra     int  // extra tags per query; < 0 draws 2 to 4
	partDiv   int  // MaxPartitionSize = unique sets / partDiv
	rate      int  // open loop at this many queries/s; 0 = closed loop
	churnRate int  // writer operations/s; 0 = read-only
}

var workloads = []workloadSpec{
	{name: "stream_fanout", extra: -1, partDiv: 1000},
	{name: "paced_latency", extra: -1, partDiv: 1000, rate: 2000},
	{name: "scan_heavy", unique: true, extra: 8, partDiv: 16},
	{name: "churn_mix", extra: -1, partDiv: 1000, churnRate: 4000},
}

// The fixed engine configuration, the same on every host.
const (
	fixedGPUs       = 2
	fixedGPUWorkers = 2
	fixedThreads    = 2
	traceEvery      = 64
	minPartition    = 16 // floor for the smoke scale
)

func engineConfig(w workloadSpec, sets, trace int) tagmatch.Config {
	cfg := tagmatch.Config{
		GPUs: fixedGPUs, GPUWorkers: fixedGPUWorkers, RealisticGPUCosts: true,
		Threads: fixedThreads, BatchSize: 256, StreamsPerGPU: 10,
		BatchTimeout:     time.Millisecond,
		MaxPartitionSize: max(sets/w.partDiv, minPartition),
		TraceEvery:       trace,
	}
	if w.churnRate > 0 {
		cfg.DeltaMaxSets, cfg.DeltaMaxRatio = 2048, 1e-9
	}
	return cfg
}

// plan says how long each part of one workload's run lasts.
type plan struct {
	setupReps  int
	warmup     time.Duration
	segments   int
	measure    time.Duration // measured phase, tracing off
	traced     time.Duration // traced phase; 0 skips it
	probes     bool
	probeCalls int // blocking calls per engine probe, over all repetitions
	rateScale  int // divides the fixed rates (smoke scale only)
	// sharedSpans is how many leading spans of the log (dataset probes)
	// belong in every workload's trace file.
	sharedSpans int
	outDir      string
}

// result is one workload's outcome.
type result struct {
	Workload  string  `json:"workload"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	ErrorRate float64 `json:"error_rate"`
	// Checked counts the results compared with the oracle: sampled
	// queries completing during the measured phase plus the pass after it.
	Checked int64 `json:"oracle_checked"`

	E2E metrics `json:"end_to_end"`
	// Spread is (max-min)/median of a metric over the measured segments.
	Spread map[string]float64 `json:"segment_spread"`
	// Samples is the number of samples behind each percentile metric: per
	// segment (median) for the end-to-end ones, over the traced segment for
	// the per-layer ones.
	Samples map[string]int `json:"samples"`
	Layers  metrics        `json:"per_layer,omitempty"`

	UniqueSets int `json:"unique_sets"`
	Partitions int `json:"partitions"`
	loadS      []float64
}

func (r *result) count(attempted, failed int64) {
	r.Attempted += attempted
	r.Failed += failed
}

// setUp is tagmatch.New + LoadSnapshot until ready.
func setUp(cfg tagmatch.Config, snapshot []byte, l *spanLog, res *result) (*tagmatch.Engine, float64, error) {
	var eng *tagmatch.Engine
	var err error
	total := l.time("setup", "", func() {
		l.time("tagmatch.New", "setup", func() { eng, err = tagmatch.New(cfg) })
		if err != nil {
			return
		}
		res.loadS = append(res.loadS, l.time("tagmatch.LoadSnapshot", "setup", func() {
			err = eng.LoadSnapshot(bytes.NewReader(snapshot))
		}))
	})
	if err != nil {
		if eng != nil {
			eng.Close()
		}
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return eng, total, nil
}

// run is the state one workload's two phases share.
type run struct {
	ds  *dataset
	w   workloadSpec
	p   plan
	l   *spanLog
	res *result
	e2e []metricDecl // the declared end-to-end metrics, for their direction
	// firstSpan is where this workload's spans start in the log.
	firstSpan int
	queries   [][]string
	sampled   []int                  // query indices checked against the oracle
	qsigs     []bitvec.Vector        // their signatures
	want      [][]tagmatch.Key       // the oracle's answers on the loaded database
	expect    map[int][]tagmatch.Key // want by query index; nil while a writer runs
	ops       []churnOp              // the writer's plan
}

// runWorkload runs one workload end to end: set-up, warm-up and the
// measured segments with tracing off, the oracle check, then the traced
// phase on a second engine. End-to-end metrics come only from the first.
func runWorkload(ds *dataset, w workloadSpec, p plan, l *spanLog, probes metrics, e2e []metricDecl) (*result, error) {
	w.rate /= p.rateScale
	w.churnRate /= p.rateScale
	r := &run{ds: ds, w: w, p: p, l: l, e2e: e2e, firstSpan: l.len(), queries: ds.queries(distinctQueries, w.extra),
		res: &result{Workload: w.name, E2E: metrics{}, Spread: map[string]float64{}, Samples: map[string]int{}}}

	rng := rand.New(rand.NewSource(ds.seed ^ 0x0a11))
	r.sampled = rng.Perm(len(r.queries))[:oracleSamples]
	for _, qi := range r.sampled {
		r.qsigs = append(r.qsigs, bloom.Signature(r.queries[qi]))
	}
	r.want = ds.oracle.match(r.qsigs, w.unique, nil)
	if w.churnRate == 0 {
		r.expect = make(map[int][]tagmatch.Key, len(r.sampled))
		for i, qi := range r.sampled {
			r.expect[qi] = r.want[i]
		}
	} else {
		r.ops = ds.churnPlan(w.churnRate * int(max(p.measure, p.traced)/time.Second+2))
	}

	measuredQPS, err := r.measuredPhase(probes)
	if err != nil {
		return nil, err
	}
	if p.traced > 0 {
		r.res.Layers = metrics{}
		if err := r.tracedPhase(measuredQPS); err != nil {
			return nil, err
		}
		r.res.Layers["core.snapshot.load_s"] = median(r.res.loadS)
		for name, v := range probes {
			r.res.Layers[name] = v
		}
	}
	r.res.Correct = r.res.Failed == 0
	r.res.ErrorRate = ratio(float64(r.res.Failed), float64(r.res.Attempted))
	return r.res, nil
}

// measuredPhase fills every end-to-end metric and checks the oracle. It
// returns the phase's overall queries/s, the base of the tracing
// overhead.
func (r *run) measuredPhase(probes metrics) (float64, error) {
	ds, w, p, res := r.ds, r.w, r.p, r.res
	cfg := engineConfig(w, len(ds.oracle.sigs), 0)
	var eng *tagmatch.Engine
	var setups []float64
	for range p.setupReps {
		if eng != nil {
			eng.Close()
		}
		runtime.GC()
		e, took, err := setUp(cfg, ds.snapshot, r.l, res)
		if err != nil {
			return 0, err
		}
		eng, setups = e, append(setups, took)
	}
	defer eng.Close()
	res.E2E["setup_s"] = median(setups)
	st := eng.Stats()
	res.UniqueSets, res.Partitions = st.UniqueSets, st.Partitions

	g, err := newLoadgen(eng, cfg, w, r.queries, r.expect)
	if err != nil {
		return 0, err
	}
	var wr *writer
	hooks := phaseHooks{}
	if w.churnRate > 0 {
		hooks.atBoundary = func(k int) {
			if k == 0 {
				wr = startWriter(eng, w.churnRate, r.ops)
			}
		}
	}
	var marks []mark
	r.l.time("measured_phase", "", func() {
		marks, err = g.run(p.warmup, p.measure/time.Duration(p.segments), p.segments, hooks)
	})
	var applied []churnOp
	if wr != nil {
		applied = wr.halt()
	}
	if err != nil {
		return 0, err
	}
	recs := g.records()
	res.count(int64(len(recs)), g.rejected.Load()+g.errored.Load()+g.mismatches.Load())
	res.Checked = g.checked.Load()
	measuredQPS := endToEnd(recs, marks, res, r.e2e)

	// Oracle: the sampled queries once more through the same entry point,
	// on churn_mix against db ⊕ applied ops after a Consolidate.
	want := r.want
	if wr != nil {
		if err := eng.Consolidate(); err != nil {
			return 0, fmt.Errorf("consolidate before oracle: %w", err)
		}
		want = ds.oracle.match(r.qsigs, w.unique, ds.oracle.patch(applied))
	}
	mismatches, err := checkOracle(eng, w.unique, r.queries, r.sampled, want)
	if err != nil {
		return 0, err
	}
	res.count(int64(len(r.sampled)), mismatches)
	res.Checked += int64(len(r.sampled))

	// Heap before the idle probes touch the engine, and without the
	// harness's records.
	recs, g = nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.E2E["heap_mb"] = float64(ms.HeapAlloc) / 1e6
	var devBytes int64
	for _, d := range eng.DeviceStats() {
		devBytes += d.Stats.MemInUse
	}
	res.E2E["device_mem_mb"] = float64(devBytes) / 1e6

	if p.probes {
		if err := engineProbes(eng, r.queries[:p.probeCalls], r.l, probes); err != nil {
			return 0, err
		}
	}
	return measuredQPS, nil
}

// endToEnd computes the per-segment end-to-end values and stores the
// steady value of each with its spread. A query belongs to the segment
// its callback ran in. It returns the phase's overall queries/s.
func endToEnd(recs []queryRec, marks []mark, res *result, decls []metricDecl) float64 {
	n := len(marks) - 1
	lat := make([][]int64, n)
	for _, r := range recs {
		if k, ok := segmentOf(marks, r.done); ok {
			lat[k] = append(lat[k], r.done-r.due)
		}
	}
	per := map[string][]float64{}
	var samples []float64
	for k := range n {
		a, b := marks[k], marks[k+1]
		done := float64(b.completed - a.completed)
		per["qps"] = append(per["qps"], done/(float64(b.t-a.t)/1e9))
		per["cpu_us_per_query"] = append(per["cpu_us_per_query"], ratio(float64(b.cpu-a.cpu)/1e3, done))
		slices.Sort(lat[k])
		per["latency_p50_ms"] = append(per["latency_p50_ms"], float64(quantile(lat[k], 0.50))/1e6)
		per["latency_p95_ms"] = append(per["latency_p95_ms"], float64(quantile(lat[k], 0.95))/1e6)
		samples = append(samples, float64(len(lat[k])))
	}
	for _, d := range decls {
		if vals, ok := per[d.Name]; ok {
			res.E2E[d.Name] = steady(vals, d.Better == "higher")
			res.Spread[d.Name] = spread(vals)
		}
	}
	res.Samples["latency_p50_ms"], res.Samples["latency_p95_ms"] = int(median(samples)), int(median(samples))
	first, last := marks[0], marks[n]
	return float64(last.completed-first.completed) / (float64(last.t-first.t) / 1e9)
}

// steady is the value reported for a metric's segment values: the one a
// quarter of the way in from the best, the third best of ten. A
// neighbour taking the host only ever makes a segment worse, so this
// holds until more than seven segments in ten are disturbed, where the
// median gives way at five.
func steady(vals []float64, higherIsBetter bool) float64 {
	s := slices.Sorted(slices.Values(vals))
	if higherIsBetter {
		slices.Reverse(s)
	}
	return s[len(s)/4]
}

func segmentOf(marks []mark, t int64) (int, bool) {
	for k := 0; k+1 < len(marks); k++ {
		if t > marks[k].t && t <= marks[k+1].t {
			return k, true
		}
	}
	return 0, false
}

// checkOracle submits the sampled queries and compares each result, as
// a sorted key list, with the oracle's. It returns the mismatch count.
func checkOracle(eng *tagmatch.Engine, unique bool, queries [][]string, sampled []int, want [][]tagmatch.Key) (int64, error) {
	submit := eng.Submit
	if unique {
		submit = eng.SubmitUnique
	}
	got := make([][]tagmatch.Key, len(sampled))
	errs := make([]error, len(sampled))
	var wg sync.WaitGroup
	for i, qi := range sampled {
		wg.Add(1)
		err := submit(queries[qi], func(r tagmatch.MatchResult) {
			got[i], errs[i] = slices.Clone(r.Keys), r.Err
			wg.Done()
		})
		if err != nil {
			errs[i] = err
			wg.Done()
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(stallLimit):
		return 0, fmt.Errorf("oracle: %d queries did not complete within %v", len(sampled), stallLimit)
	}
	var bad int64
	for i := range sampled {
		slices.Sort(got[i])
		if errs[i] != nil || !slices.Equal(got[i], want[i]) {
			bad++
		}
	}
	return bad, nil
}

// tracedPhase repeats the workload on a fresh engine with TraceEvery 64
// and fills the per-layer table from the difference of two captures
// around its one segment, the harness's own records, and the engine's
// sampled spans.
func (r *run) tracedPhase(measuredQPS float64) error {
	ds, w, p, res := r.ds, r.w, r.p, r.res
	cfg := engineConfig(w, len(ds.oracle.sigs), traceEvery)
	eng, _, err := setUp(cfg, ds.snapshot, r.l, res)
	if err != nil {
		return err
	}
	defer eng.Close()
	g, err := newLoadgen(eng, cfg, w, r.queries, r.expect)
	if err != nil {
		return err
	}
	sink := newTraceSink()
	var a, b capture
	var wr *writer
	var liveMax int64
	type fanout struct{ parts, queries int64 }
	var series []fanout
	hooks := phaseHooks{
		atBoundary: func(k int) {
			if k == 1 {
				b = takeCapture(eng, g.completed.Load())
				return
			}
			if w.churnRate > 0 {
				wr = startWriter(eng, w.churnRate, r.ops)
			}
			a = takeCapture(eng, g.completed.Load())
		},
		onTick: func() {
			sink.drain(eng.Obs().Tracer)
			st := eng.Stats()
			liveMax = max(liveMax, st.DeltaAdds+st.DeltaTombstones)
			if a.t != 0 {
				series = append(series, fanout{st.PartitionsSearched, st.QueriesCompleted})
			}
		},
	}
	var marks []mark
	r.l.time("traced_phase", "", func() { marks, err = g.run(p.warmup, p.traced, 1, hooks) })
	if wr != nil {
		wr.halt()
	}
	if err != nil {
		return err
	}
	sink.drain(eng.Obs().Tracer)
	recs := g.records()
	res.count(int64(len(recs)), g.rejected.Load()+g.errored.Load()+g.mismatches.Load())
	res.Checked += g.checked.Load()

	m := res.Layers
	layerMetrics(a, b, m, res.Samples)
	lo, hi := marks[0].t, marks[1].t
	wall := float64(hi - lo)
	var lat, call, late []int64
	var keys, inflight float64
	for _, q := range recs {
		if q.done <= lo || q.done > hi {
			continue
		}
		lat = append(lat, q.done-q.due)
		call = append(call, q.sent-q.submit)
		late = append(late, q.submit-q.due)
		keys += float64(q.keys)
		inflight += float64(q.done - q.submit)
	}
	// pct stores a percentile of the samples, in units of scale
	// nanoseconds, with the sample count.
	pct := func(name string, samples []int64, q, scale float64) {
		slices.Sort(samples)
		m[name] = float64(quantile(samples, q)) / scale
		res.Samples[name] = len(samples)
	}
	pct("tagmatch.submit_call_p50_us", call, 0.50, 1e3)
	pct("tagmatch.latency_p99_ms", lat, 0.99, 1e6)
	pct("tagmatch.latency_p999_ms", lat, 0.999, 1e6)
	pct("loadgen.lateness_p50_ms", late, 0.50, 1e6)
	pct("loadgen.lateness_p99_ms", late, 0.99, 1e6)
	m["tagmatch.stall_max_ms"] = float64(longestStall(recs, lo, hi)) / 1e6
	m["tagmatch.keys_per_query"] = ratio(keys, float64(len(lat)))
	m["loadgen.inflight_mean"] = inflight / wall // Little's law over the segment
	tracedQPS := float64(len(lat)) / (wall / 1e9)
	m["obs.tracing_overhead_pct"] = 100 * ratio(measuredQPS-tracedQPS, measuredQPS)

	m["core.delta.live_entries_max"] = float64(liveMax)
	var took []int64
	if wr != nil {
		took = slices.Clone(wr.took)
	}
	pct("core.delta.update_call_p50_us", took, 0.50, 1e3)
	pct("core.delta.update_call_p95_us", took, 0.95, 1e3)
	pct("core.delta.update_call_p99_us", took, 0.99, 1e3)
	// Partitions per query in the last quarter of the segment over the
	// first: extents appended by incremental folds widen the fan-out.
	m["core.consolidator.fanout_growth"] = 1
	if q := len(series) / 4; q >= 1 {
		per := func(x, y fanout) float64 { return ratio(float64(y.parts-x.parts), float64(y.queries-x.queries)) }
		first, last := per(series[0], series[q]), per(series[len(series)-1-q], series[len(series)-1])
		if first > 0 && last > 0 {
			m["core.consolidator.fanout_growth"] = last / first
		}
	}

	hdr := traceFile{Workload: w.name, Seed: ds.seed, Epoch: epoch,
		SampledQueries: len(sink.seen), SelfTime: sink.selfTimes(), EngineTraces: sink.traces}
	return writeTrace(p.outDir, hdr, r.l.workload(p.sharedSpans, r.firstSpan), recs, wr)
}

// longestStall is the longest time within (lo, hi] with at least one
// request outstanding and no completion.
func longestStall(recs []queryRec, lo, hi int64) int64 {
	type event struct {
		at   int64
		done bool
	}
	events := make([]event, 0, 2*len(recs))
	for _, r := range recs {
		events = append(events, event{r.due, false}, event{r.done, true})
	}
	slices.SortFunc(events, func(x, y event) int { return cmp.Compare(x.at, y.at) })
	var longest, since int64
	outstanding := 0
	for _, e := range events {
		if e.done {
			if e.at > lo && e.at <= hi {
				longest = max(longest, e.at-max(since, lo))
			}
			outstanding--
			since = e.at
		} else {
			if outstanding == 0 {
				since = e.at
			}
			outstanding++
		}
	}
	return longest
}
