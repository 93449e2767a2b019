package experiments

import (
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/core"
	"tagmatch/internal/gpu"
	"tagmatch/internal/gpuonly"
)

// AblationPipeline measures the effect of each engineered mechanism the
// paper calls out in §3.3 that the engine still carries as a switch: the
// thread-block pre-filter (Algorithm 4) and the balanced partitioning
// (Algorithm 1) — each toggled against the full configuration. (The
// split result layout and the size-then-copy transfer were measured and
// retired; their verdicts are in EXPERIMENTS.md.)
func AblationPipeline(p Params) *Table {
	ds := BuildDataset(p)
	sigs, keys := ds.Slice(0.5)
	queries := ds.Queries(4096, 0.5, -1, p.Seed+1000)

	t := &Table{
		ID:    "ablation-pipeline",
		Title: "TagMatch design ablations, match (K queries/s)",
		Cols:  []string{"throughput"},
	}

	// Large partitions (dbSize/20 instead of the throughput-optimal
	// dbSize/1000) so each spans many thread blocks: the Algorithm 4
	// pre-filter only has leverage when a block's 256 sorted sets share
	// a prefix much longer than the partition mask, which requires
	// partitions of hundreds of blocks — the regime of the paper's
	// 200K-set partitions.
	maxP := len(sigs) / 20
	if maxP < 1024 {
		maxP = 1024
	}
	run := func(label string, mutate func(*core.Config)) {
		eng, devs, err := BuildEngine(EngineSpec{
			Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: p.GPUs, MaxP: maxP, Mutate: mutate,
		})
		if err != nil {
			panic(err)
		}
		// Median of three runs: single-run noise on small hosts is
		// larger than some of the effects being measured.
		var qps []float64
		for rep := 0; rep < 3; rep++ {
			qps = append(qps, MeasureEngine(eng, queries, p.Queries, false).QPS)
		}
		eng.Close()
		closeDevices(devs)
		t.Add(label, SortedCopy(qps)[1]/1e3)
	}

	run("full TagMatch", nil)
	run("no block pre-filter (Alg 4 off)", func(c *core.Config) { c.DisablePrefilter = true })
	run("first-fit partitioning (Alg 1 off)", func(c *core.Config) { c.FirstFitPartitioning = true })
	t.Note("each row toggles one mechanism against the full configuration on 50%% of the database")
	t.Note("median of 3 runs; MAX_P=%d (dbSize/20) so partitions span many thread blocks", maxP)
	return t
}

// AblationGPUOnly reproduces the §4.5 study: the dynamic-parallelism
// GPU-only architecture against hybrid TagMatch, as the fraction of
// queries surviving pre-processing grows (driven by query breadth).
func AblationGPUOnly(p Params) *Table {
	ds := BuildDataset(p)
	sigs, keys := ds.Slice(0.25)
	uniqueSigs, keysBySet := KeysBySet(sigs, keys)

	t := &Table{
		ID:    "ablation-gpuonly",
		Title: "GPU-only dynamic parallelism vs hybrid TagMatch (K queries/s)",
		Cols:  []string{"+2 tags", "+6 tags", "+12 tags"},
	}
	extras := []int{2, 6, 12}

	// GPU-only with device-side pre-processing (§4.5).
	dev := gpu.New(gpu.Config{Workers: simWorkersPerGPU(1), Cost: gpu.DefaultCost})
	maxP := len(uniqueSigs) / 100
	if maxP < 64 {
		maxP = 64
	}
	dp, err := gpuonly.NewDynPar(dev, uniqueSigs, keysBySet, maxP, 256, 1<<20)
	if err != nil {
		panic(err)
	}
	var dpVals []float64
	for _, e := range extras {
		queries := ds.Queries(2048, 0.25, e, p.Seed+1100+int64(e))
		n := 2048
		start := time.Now()
		for off := 0; off < n; off += 256 {
			batch := make([]bitvec.Vector, 0, 256)
			for i := off; i < off+256; i++ {
				batch = append(batch, queries[i%len(queries)])
			}
			dp.MatchBatch(batch, func(int, uint32) {})
		}
		dpVals = append(dpVals, float64(n)/time.Since(start).Seconds()/1e3)
	}
	dp.Close()
	dev.Close()
	t.Add("GPU-only dynamic parallelism", dpVals...)

	// Hybrid TagMatch on the same database and queries.
	eng, devs, err := BuildEngine(EngineSpec{Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: p.GPUs, MaxP: ds.BaseMaxP()})
	if err != nil {
		panic(err)
	}
	var tmVals []float64
	for _, e := range extras {
		queries := ds.Queries(2048, 0.25, e, p.Seed+1100+int64(e))
		tmVals = append(tmVals, MeasureEngine(eng, queries, p.Queries/2, false).QPS/1e3)
	}
	eng.Close()
	closeDevices(devs)
	t.Add("TagMatch (hybrid)", tmVals...)
	t.Note("paper finding (§4.5): the GPU-only design degrades as more queries survive pre-processing — atomic queue appends and scattered global-memory writes dominate")
	return t
}
