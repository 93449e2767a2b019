package experiments

import (
	"encoding/json"
	"io"

	"tagmatch/internal/core"
)

// ObsOverheadResult is the JSON shape of the obs-overhead comparison
// (BENCH_obs.json): throughput with the observability layer enabled vs.
// disabled, and the relative cost. The instrumentation budget is 2%;
// this comparison is its only measurement until the canonical benchmark
// runs a traced/untraced pair.
type ObsOverheadResult struct {
	QPSOn       float64   `json:"qps_on"`
	QPSOff      float64   `json:"qps_off"`
	OverheadPct float64   `json:"overhead_pct"`
	RunsOn      []float64 `json:"runs_on"`
	RunsOff     []float64 `json:"runs_off"`
	Queries     int       `json:"queries"`
	GPUs        int       `json:"gpus"`
	Threads     int       `json:"threads"`
}

// ObsOverhead measures the throughput cost of the internal/obs
// instrumentation: the same engine and query stream with observability
// on (the default, plus the production 1-in-1000 span tracing to
// include the tracer's cost) and with DisableObservability set. The
// effect is a few percent, well inside single-run scheduler noise, so
// the measurement is paired: runs alternate on/off (adjacent runs share
// whatever drift the host is under — frequency scaling, background
// load — so their ratio cancels it) and the overhead is the median of
// per-pair ratios, after a discarded warmup pair.
func ObsOverhead(p Params) (*Table, *ObsOverheadResult) {
	ds := BuildDataset(p)
	sigs, keys := ds.Slice(0.5)
	queries := ds.Queries(4096, 0.5, -1, p.Seed+2000)

	const reps = 21
	build := func(mutate func(*core.Config)) *core.Engine {
		eng, err := BuildEngine(EngineSpec{
			Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: p.GPUs,
			MaxP: ds.BaseMaxP(), Mutate: mutate,
		})
		if err != nil {
			panic(err)
		}
		return eng
	}
	engOn := build(func(c *core.Config) { c.TraceEvery = 1000 })
	engOff := build(func(c *core.Config) { c.DisableObservability = true })

	// Warmup pair: first runs pay page faults, allocator growth, and
	// branch-predictor training; discard them.
	MeasureEngine(engOn, queries, p.Queries, false)
	MeasureEngine(engOff, queries, p.Queries, false)

	// Position within a pair is itself a bias on a loaded host (the
	// second run pays the first run's GC debt), so pairs alternate
	// on-first / off-first.
	var runsOn, runsOff, ratios []float64
	for rep := 0; rep < reps; rep++ {
		var on, off float64
		if rep%2 == 0 {
			on = MeasureEngine(engOn, queries, p.Queries, false).QPS
			off = MeasureEngine(engOff, queries, p.Queries, false).QPS
		} else {
			off = MeasureEngine(engOff, queries, p.Queries, false).QPS
			on = MeasureEngine(engOn, queries, p.Queries, false).QPS
		}
		runsOn = append(runsOn, on)
		runsOff = append(runsOff, off)
		ratios = append(ratios, on/off)
	}
	engOn.Close()
	engOff.Close()

	r := &ObsOverheadResult{
		QPSOn:   SortedCopy(runsOn)[reps/2],
		QPSOff:  SortedCopy(runsOff)[reps/2],
		RunsOn:  runsOn,
		RunsOff: runsOff,
		Queries: p.Queries,
		GPUs:    p.GPUs,
		Threads: p.Threads,
	}
	r.OverheadPct = (1 - SortedCopy(ratios)[reps/2]) * 100

	t := &Table{
		ID:    "obs-overhead",
		Title: "Observability overhead, match (K queries/s)",
		Cols:  []string{"throughput"},
	}
	t.Add("obs on (histograms+counters+1/1000 traces)", r.QPSOn/1e3)
	t.Add("obs off (DisableObservability)", r.QPSOff/1e3)
	t.Note("overhead: %.1f%% (budget <2%%); median of %d paired on/off ratios", r.OverheadPct, reps)
	return t, r
}

// WriteJSON writes the result as indented JSON.
func (r *ObsOverheadResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
