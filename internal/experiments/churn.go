package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
	"tagmatch/internal/core"
	"tagmatch/internal/gpu"
)

// ChurnCell is one measured configuration of the live-update experiment:
// the no-churn baseline, the shipping delta-overlay + background
// consolidation path, and the stop-the-world ablation that drains the
// pipeline and rebuilds synchronously after every update batch.
type ChurnCell struct {
	Config string `json:"config"` // "no_churn", "live_bg", "stw"

	QPS    float64 `json:"qps"`
	KeysPS float64 `json:"keys_ps"`
	Keys   int64   `json:"keys"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`

	ChurnOps int64 `json:"churn_ops"`

	// Pause percentiles: for live_bg the device-upload critical section
	// of each background swap; for stw the full synchronous Consolidate
	// (drain + rebuild + upload), which stalls every query for its
	// duration.
	PauseP50Ms float64 `json:"pause_p50_ms,omitempty"`
	PauseP99Ms float64 `json:"pause_p99_ms,omitempty"`
	PauseMaxMs float64 `json:"pause_max_ms,omitempty"`

	// Update-visibility latency: time from AddSignature returning to the
	// added key appearing in a match answer.
	VisibilityP50Us float64 `json:"visibility_p50_us,omitempty"`
	VisibilityP99Us float64 `json:"visibility_p99_us,omitempty"`

	AutoConsolidations    int64 `json:"auto_consolidations,omitempty"`
	Consolidations        int64 `json:"consolidations,omitempty"`
	DeltaMatches          int64 `json:"delta_matches,omitempty"`
	TombstoneSuppressions int64 `json:"tombstone_suppressions,omitempty"`
}

// ChurnResult is the JSON shape of the live-update experiment
// (BENCH_churn.json): the three cells plus the derived metrics the CI
// gate asserts on. QPSRatio is query throughput under background
// consolidation over the no-churn baseline (the gate requires >= 0.9:
// live updates must cost at most 10% of steady-state throughput).
// PauseImprovement is the stop-the-world pause p99 over the background
// swap pause p99 (the gate requires >= 5). ResultsMatch reports the
// differential parity phase: an interleaved add/remove/match sequence
// answered through the overlay must be byte-identical (sorted keys) to
// an oracle engine consolidated before every match.
type ChurnResult struct {
	Cells []ChurnCell `json:"cells"`

	QPSRatio         float64 `json:"qps_ratio"`
	PauseImprovement float64 `json:"pause_improvement"`
	SwapPauseP99Ms   float64 `json:"swap_pause_p99_ms"`
	StwPauseP99Ms    float64 `json:"stw_pause_p99_ms"`
	VisibilityP99Ms  float64 `json:"visibility_p99_ms"`
	ResultsMatch     bool    `json:"churn_results_match"`
	ParityProbes     int     `json:"parity_probes"`

	Queries        int   `json:"queries"`
	ChurnOps       int   `json:"churn_ops"`
	DeltaThreshold int   `json:"delta_threshold"`
	GPUs           int   `json:"gpus"`
	Threads        int   `json:"threads"`
	Seed           int64 `json:"seed"`
}

// churnOp is one pre-generated live update, shared verbatim by the
// live_bg and stw cells so both fold the same work.
type churnOp struct {
	add bool
	sig bitvec.Vector
	key core.Key
}

// churnVisibilityProbes is the number of AddSignature→matchable latency
// samples taken per churn cell.
const churnVisibilityProbes = 16

// churnInflight bounds the closed measurement loop: deep enough to keep
// every stream of every device busy, shallow enough that the latency
// percentiles measure service time plus bounded queueing rather than an
// arbitrary backlog. churnBatchTimeout turns the batch flusher on — a
// bounded closed loop leaves the last partial batches waiting for
// traffic that cannot arrive until they complete, so they must age out
// on the timeout.
const (
	churnInflight     = 64
	churnBatchTimeout = time.Millisecond
)

// Churn measures what live updates cost and buy (the paper's §3.4
// update path, extended with the match-visible delta overlay): the same
// query stream runs with no updates, with updates folded by the
// background consolidator, and with the stop-the-world ablation that
// synchronously consolidates after every update batch. Each cell
// records throughput, latency percentiles, pause percentiles, and
// update-visibility latency; a separate differential phase pins overlay
// answers to a consolidate-before-every-match oracle.
func Churn(p Params) (*Table, *ChurnResult) {
	ds := BuildDataset(p)
	sigs, keys := ds.Slice(0.5)

	distinct := min(p.Queries, 2048)
	if distinct < 1 {
		distinct = 1
	}
	queries := ds.Queries(distinct, 0.5, -1, p.Seed+6000)

	// Churn volume and fold threshold: one update per four queries, with
	// the threshold sized for ~8 background folds per run.
	churnN := p.Queries / 4
	if churnN < 256 {
		churnN = 256
	}
	thr := churnN / 8
	if thr < 64 {
		thr = 64
	}
	ops := makeChurnOps(churnN, sigs, keys, p.Seed+6100)

	r := &ChurnResult{
		Queries:        p.Queries,
		ChurnOps:       churnN,
		DeltaThreshold: thr,
		GPUs:           p.GPUs,
		Threads:        p.Threads,
		Seed:           p.Seed,
	}

	// The live_bg cell needs a small fold threshold at churn time but
	// must not thrash the consolidator during the bulk load, so the
	// database is transplanted through a snapshot: LoadSnapshot stages
	// everything in one append and consolidates once.
	var snap bytes.Buffer
	{
		src, devs, err := BuildEngine(EngineSpec{
			Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: 0,
		})
		if err != nil {
			panic(err)
		}
		if err := src.SaveSnapshot(&snap); err != nil {
			panic(err)
		}
		src.Close()
		closeDevices(devs)
	}
	maxP := len(sigs) / 1000
	if maxP < 64 {
		maxP = 64
	}

	for _, mode := range []string{"no_churn", "live_bg", "stw"} {
		// The throughput comparison (no_churn vs live_bg) runs each cell
		// twice and keeps the higher-qps run: on a small host a single
		// 8-second window is at the mercy of unrelated scheduling and GC
		// timing, and best-of-N under identical inputs is the standard
		// defense — applied symmetrically, so the ratio stays honest.
		// The stw ablation is not part of a tight ratio and runs once.
		runs := 2
		if mode == "stw" {
			runs = 1
		}
		var cell ChurnCell
		for i := 0; i < runs; i++ {
			c := runChurnCell(p, sigs, keys, snap.Bytes(), maxP, queries, ops, thr, mode)
			if i == 0 || c.QPS > cell.QPS {
				cell = c
			}
		}
		r.Cells = append(r.Cells, cell)
	}
	base, live, stw := &r.Cells[0], &r.Cells[1], &r.Cells[2]

	if base.QPS > 0 {
		r.QPSRatio = live.QPS / base.QPS
	}
	r.SwapPauseP99Ms = live.PauseP99Ms
	r.StwPauseP99Ms = stw.PauseP99Ms
	if live.PauseP99Ms > 0 {
		r.PauseImprovement = stw.PauseP99Ms / live.PauseP99Ms
	}
	r.VisibilityP99Ms = live.VisibilityP99Us / 1e3
	r.ResultsMatch, r.ParityProbes = churnParity(p, ds)

	t := &Table{
		ID:    "churn",
		Title: "Live updates: delta overlay + background consolidation vs stop-the-world",
		Cols:  []string{"qps", "keys/s", "p99 ms", "pause p99 ms", "vis p99 ms"},
	}
	for _, c := range r.Cells {
		t.Add(c.Config, c.QPS, c.KeysPS, c.P99Us/1e3, c.PauseP99Ms, c.VisibilityP99Us/1e3)
	}
	t.Note("qps ratio (live_bg vs no_churn): %.3f; pause improvement (stw p99 / swap p99): %.1fx",
		r.QPSRatio, r.PauseImprovement)
	t.Note("live_bg: %d churn ops, %d background folds, %d overlay matches, %d tombstone suppressions",
		live.ChurnOps, live.AutoConsolidations, live.DeltaMatches, live.TombstoneSuppressions)
	t.Note("update visibility p99: live %.2fms (overlay), stw %.2fms (next batch consolidate)",
		live.VisibilityP99Us/1e3, stw.VisibilityP99Us/1e3)
	if r.ResultsMatch {
		t.Note("parity: overlay answers byte-identical to the consolidate-every-match oracle (%d probes)", r.ParityProbes)
	} else {
		t.Note("PARITY VIOLATION: overlay diverged from the consolidation oracle")
	}
	return t, r
}

// makeChurnOps pre-generates the shared update stream: 70% adds of new
// associations (fresh keys on sampled database signatures) and 30%
// removes, split between tombstoning existing database entries and
// cancelling earlier churned adds.
func makeChurnOps(n int, sigs []bitvec.Vector, keys []core.Key, seed int64) []churnOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]churnOp, 0, n)
	next := core.Key(50_000_000)
	var pool []churnOp
	for len(ops) < n {
		switch {
		case len(pool) > 8 && rng.Float64() < 0.15:
			// Cancel a churned add: the add-then-remove pair must never
			// surface (exactly-once).
			i := rng.Intn(len(pool))
			ops = append(ops, churnOp{add: false, sig: pool[i].sig, key: pool[i].key})
			pool[i] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
		case rng.Float64() < 0.18:
			// Tombstone a real database entry.
			i := rng.Intn(len(sigs))
			ops = append(ops, churnOp{add: false, sig: sigs[i], key: keys[i]})
		default:
			op := churnOp{add: true, sig: sigs[rng.Intn(len(sigs))], key: next}
			next++
			ops = append(ops, op)
			pool = append(pool, op)
		}
	}
	return ops
}

// runChurnCell builds an engine for one mode, runs the closed query
// loop with the update stream applied inline at its paced rate, and
// collects throughput, pause, and visibility numbers.
func runChurnCell(p Params, sigs []bitvec.Vector, keys []core.Key, snap []byte, maxP int,
	queries []bitvec.Vector, ops []churnOp, thr int, mode string) ChurnCell {
	var eng *core.Engine
	var devs []*gpu.Device
	var err error
	switch mode {
	case "live_bg":
		// Empty build + snapshot load: the small threshold must not see
		// the bulk load (see Churn).
		eng, devs, err = BuildEngine(EngineSpec{
			Threads: p.Threads, GPUs: p.GPUs, MaxP: maxP,
			Mutate: func(cfg *core.Config) {
				cfg.BatchTimeout = churnBatchTimeout
				cfg.DeltaMaxSets = thr
				cfg.DeltaMaxRatio = 1e-9 // threshold fully owned by DeltaMaxSets
			},
		})
		if err == nil {
			err = eng.LoadSnapshot(bytes.NewReader(snap))
		}
	case "stw":
		eng, devs, err = BuildEngine(EngineSpec{
			Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: p.GPUs, MaxP: maxP,
			Mutate: func(cfg *core.Config) {
				cfg.BatchTimeout = churnBatchTimeout
				cfg.DisableDeltaOverlay = true
			},
		})
	default: // no_churn
		eng, devs, err = BuildEngine(EngineSpec{
			Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: p.GPUs, MaxP: maxP,
			Mutate: func(cfg *core.Config) {
				cfg.BatchTimeout = churnBatchTimeout
			},
		})
	}
	if err != nil {
		panic(err)
	}
	defer func() {
		eng.Close()
		closeDevices(devs)
	}()

	// Warmup cycle over the distinct query set.
	var warmWg sync.WaitGroup
	warmWg.Add(len(queries))
	for _, q := range queries {
		if err := eng.SubmitSignature(q, false, func(core.MatchResult) {
			warmWg.Done()
		}); err != nil {
			panic(err)
		}
	}
	eng.Drain()
	warmWg.Wait()

	st0 := eng.Stats()

	n := p.Queries
	churn := mode != "no_churn"
	churnEvery := 1
	if churn && len(ops) > 0 {
		churnEvery = n / len(ops)
		if churnEvery < 1 {
			churnEvery = 1
		}
	}
	probeEvery := 0
	if churn {
		probeEvery = n / churnVisibilityProbes
		if probeEvery < 1 {
			probeEvery = 1
		}
	}

	var stwPauses []time.Duration
	var vis visRecorder
	var pendingProbe struct {
		sig bitvec.Vector
		key core.Key
		t0  time.Time
	}
	probeSeq := 0
	opIdx := 0
	sinceConsolidate := 0

	sem := make(chan struct{}, churnInflight)
	lat := make([]time.Duration, n)
	starts := make([]time.Time, n)
	var matched int64
	var wg sync.WaitGroup
	wg.Add(n)
	begin := time.Now()
	for i := 0; i < n; i++ {
		if churn && opIdx < len(ops) && i%churnEvery == 0 {
			op := ops[opIdx]
			opIdx++
			if op.add {
				eng.AddSignature(op.sig, op.key)
			} else {
				eng.RemoveSignature(op.sig, op.key)
			}
			sinceConsolidate++
			if mode == "stw" && sinceConsolidate >= thr {
				// The ablation: drain the pipeline and rebuild
				// synchronously, the whole duration a stop-the-world pause
				// for every in-flight and queued query.
				t0 := time.Now()
				if err := eng.Consolidate(); err != nil {
					panic(err)
				}
				stwPauses = append(stwPauses, time.Since(t0))
				sinceConsolidate = 0
				if pendingProbe.key != 0 {
					vis.submit(eng, pendingProbe.sig, pendingProbe.key, pendingProbe.t0)
					pendingProbe.key = 0
				}
			}
		}
		if churn && probeEvery > 0 && i%probeEvery == probeEvery/2 && probeSeq < churnVisibilityProbes {
			sig, key := probeSignature(p.Seed, probeSeq)
			probeSeq++
			if mode == "stw" {
				// Not visible until the next batch consolidate: stamp now,
				// confirm there.
				if pendingProbe.key == 0 {
					pendingProbe.sig, pendingProbe.key, pendingProbe.t0 = sig, key, time.Now()
					eng.AddSignature(sig, key)
				}
			} else {
				t0 := time.Now()
				eng.AddSignature(sig, key)
				vis.submit(eng, sig, key, t0)
			}
		}
		sem <- struct{}{}
		i := i
		starts[i] = time.Now()
		if err := eng.SubmitSignature(queries[i%len(queries)], false, func(res core.MatchResult) {
			lat[i] = time.Since(starts[i])
			atomic.AddInt64(&matched, int64(len(res.Keys)))
			<-sem
			wg.Done()
		}); err != nil {
			panic(err)
		}
	}
	eng.Drain()
	wg.Wait()
	vis.wg.Wait()
	el := time.Since(begin)
	st1 := eng.Stats()

	cell := ChurnCell{
		Config:   mode,
		QPS:      float64(n) / el.Seconds(),
		KeysPS:   float64(matched) / el.Seconds(),
		Keys:     matched,
		P50Us:    quantileUs(lat, 0.50),
		P99Us:    quantileUs(lat, 0.99),
		ChurnOps: int64(opIdx),

		AutoConsolidations:    st1.AutoConsolidations - st0.AutoConsolidations,
		DeltaMatches:          st1.DeltaMatches - st0.DeltaMatches,
		TombstoneSuppressions: st1.TombstoneSuppressed - st0.TombstoneSuppressed,
	}
	switch mode {
	case "live_bg":
		hs := eng.Obs().Delta.SwapPause.Snapshot()
		cell.PauseP50Ms = float64(hs.QuantileDuration(0.50)) / 1e6
		cell.PauseP99Ms = float64(hs.QuantileDuration(0.99)) / 1e6
		cell.PauseMaxMs = float64(hs.Max) / 1e6
	case "stw":
		cell.Consolidations = int64(len(stwPauses))
		cell.PauseP50Ms = quantileUs(stwPauses, 0.50) / 1e3
		cell.PauseP99Ms = quantileUs(stwPauses, 0.99) / 1e3
		var mx time.Duration
		for _, d := range stwPauses {
			if d > mx {
				mx = d
			}
		}
		cell.PauseMaxMs = float64(mx) / 1e6
	}
	if samples := vis.take(); len(samples) > 0 {
		cell.VisibilityP50Us = quantileUs(samples, 0.50)
		cell.VisibilityP99Us = quantileUs(samples, 0.99)
	}
	return cell
}

// visRecorder measures update-visibility latency without stalling the
// feeder: each probe is one extra asynchronous query whose answer must
// already contain the freshly added key (the overlay guarantees this;
// for stw the probe is submitted right after the batch consolidate).
type visRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
	wg      sync.WaitGroup
}

func (v *visRecorder) submit(eng *core.Engine, sig bitvec.Vector, key core.Key, t0 time.Time) {
	v.wg.Add(1)
	if err := eng.SubmitSignature(sig, false, func(res core.MatchResult) {
		defer v.wg.Done()
		for _, k := range res.Keys {
			if k == key {
				v.mu.Lock()
				v.samples = append(v.samples, time.Since(t0))
				v.mu.Unlock()
				return
			}
		}
		panic(fmt.Sprintf("churn: probe key %d missing from the first answer after its add", key))
	}); err != nil {
		panic(err)
	}
}

func (v *visRecorder) take() []time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.samples
}

// probeSignature builds a fresh signature outside the workload's tag
// vocabulary for visibility probes, with a key outside every other key
// range.
func probeSignature(seed int64, seq int) (bitvec.Vector, core.Key) {
	var sig bitvec.Vector
	for t := 0; t < 5; t++ {
		bloom.AddTag(&sig, fmt.Sprintf("__vis-probe-%d-%d-%d", seed, seq, t))
	}
	return sig, core.Key(90_000_000 + seq)
}

// churnParity is the differential phase: a deterministic interleaved
// add/remove/match sequence runs against a live engine answering through
// the overlay and an oracle engine consolidated before every match;
// sorted answers must be byte-identical at every probe. Returns whether
// all probes matched and how many ran.
func churnParity(p Params, ds *Dataset) (bool, int) {
	n := min(len(ds.Sigs), 2000)
	sigs, keys := ds.Sigs[:n], ds.Keys[:n]
	build := func(disableOverlay bool) *core.Engine {
		eng, _, err := BuildEngine(EngineSpec{
			Sigs: sigs, Keys: keys, Threads: 2, GPUs: 0,
			Mutate: func(cfg *core.Config) {
				cfg.BatchSize = 16
				cfg.DisableDeltaOverlay = disableOverlay
			},
		})
		if err != nil {
			panic(err)
		}
		return eng
	}
	live := build(false)
	defer live.Close()
	oracle := build(true)
	defer oracle.Close()

	rng := rand.New(rand.NewSource(p.Seed + 6200))
	probeQueries := ds.Queries(64, 0.2, -1, p.Seed+6300)
	next := core.Key(70_000_000)
	var pool []churnOp
	probes, ok := 0, true
	for step := 0; step < 400 && ok; step++ {
		switch {
		case step%8 == 7:
			q := probeQueries[rng.Intn(len(probeQueries))]
			got, err := live.MatchSignature(q, false)
			if err != nil {
				panic(err)
			}
			if err := oracle.Consolidate(); err != nil {
				panic(err)
			}
			want, err := oracle.MatchSignature(q, false)
			if err != nil {
				panic(err)
			}
			probes++
			if !sameKeyMultiset(got, want) {
				ok = false
			}
		case len(pool) > 4 && rng.Float64() < 0.2:
			i := rng.Intn(len(pool))
			live.RemoveSignature(pool[i].sig, pool[i].key)
			oracle.RemoveSignature(pool[i].sig, pool[i].key)
			pool[i] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
		case rng.Float64() < 0.25:
			i := rng.Intn(n)
			live.RemoveSignature(sigs[i], keys[i])
			oracle.RemoveSignature(sigs[i], keys[i])
		default:
			// Bias adds toward signatures the probe queries can cover.
			sig := sigs[rng.Intn(n)]
			live.AddSignature(sig, next)
			oracle.AddSignature(sig, next)
			pool = append(pool, churnOp{sig: sig, key: next})
			next++
		}
	}
	// Final cross-check: consolidating the live engine must not change
	// its answers.
	if ok {
		if err := live.Consolidate(); err != nil {
			panic(err)
		}
		if err := oracle.Consolidate(); err != nil {
			panic(err)
		}
		for _, q := range probeQueries[:8] {
			got, err := live.MatchSignature(q, false)
			if err != nil {
				panic(err)
			}
			want, err := oracle.MatchSignature(q, false)
			if err != nil {
				panic(err)
			}
			probes++
			if !sameKeyMultiset(got, want) {
				ok = false
				break
			}
		}
	}
	return ok, probes
}

// sameKeyMultiset compares two answers as multisets.
func sameKeyMultiset(a, b []core.Key) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[core.Key]int, len(a))
	for _, k := range a {
		counts[k]++
	}
	for _, k := range b {
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// WriteJSON writes the result as indented JSON.
func (r *ChurnResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
