package experiments

import (
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
	"tagmatch/internal/gpuonly"
	"tagmatch/internal/icn"
	"tagmatch/internal/trie"
)

// table1Fracs maps the paper's 20M / 40M / 212M databases onto fractions
// of the scaled full database.
var table1Fracs = []struct {
	label string
	frac  float64
}{
	{"20M-equiv (9.4%)", 0.094},
	{"40M-equiv (18.9%)", 0.189},
	{"212M-equiv (100%)", 1.0},
}

// Table1 reproduces the summary comparison: throughput (thousands of
// match queries per second) of GPU-only plain, GPU-only batched,
// CPU prefix tree, CPU ICN matcher, CPU-only TagMatch, and TagMatch.
func Table1(p Params) *Table {
	ds := BuildDataset(p)
	t := &Table{
		ID:    "table1",
		Title: "summary throughput, match (K queries/s)",
		Cols:  []string{},
	}
	rows := map[string][]float64{}
	order := []string{
		"GPU-only, plain",
		"GPU-only, plain with batching",
		"CPU-only, prefix tree",
		"CPU-only, ICN matcher",
		"CPU-only, TagMatch",
		"TagMatch",
	}

	for _, fc := range table1Fracs {
		t.Cols = append(t.Cols, fc.label)
		sigs, keys := ds.Slice(fc.frac)
		unique, keysBySet := KeysBySet(sigs, keys)
		queries := ds.Queries(4096, fc.frac, -1, p.Seed+100)

		// GPU-only, plain: one query per kernel over the whole table.
		func() {
			dev := gpu.New(gpu.Config{Workers: simWorkersPerGPU(1), Cost: gpu.DefaultCost})
			defer dev.Close()
			pl, err := gpuonly.NewPlain(dev, unique, keysBySet, 1<<20)
			if err != nil {
				panic(err)
			}
			defer pl.Close()
			n := 60
			r := timeRun(func() int64 {
				var k int64
				for i := 0; i < n; i++ {
					pl.Match(queries[i%len(queries)], func(uint32) { k++ })
				}
				return k
			}, n)
			rows["GPU-only, plain"] = append(rows["GPU-only, plain"], r.QPS/1e3)
		}()

		// GPU-only, plain with batching.
		func() {
			dev := gpu.New(gpu.Config{Workers: simWorkersPerGPU(1), Cost: gpu.DefaultCost})
			defer dev.Close()
			bt, err := gpuonly.NewBatched(dev, unique, keysBySet, 256, 1<<20)
			if err != nil {
				panic(err)
			}
			defer bt.Close()
			n := 4096
			r := timeRun(func() int64 {
				var k int64
				for off := 0; off < n; off += 256 {
					end := min(off+256, n)
					batch := make([]bitvec.Vector, 0, 256)
					for i := off; i < end; i++ {
						batch = append(batch, queries[i%len(queries)])
					}
					bt.MatchBatch(batch, func(int, uint32) { k++ })
				}
				return k
			}, n)
			rows["GPU-only, plain with batching"] = append(rows["GPU-only, plain with batching"], r.QPS/1e3)
		}()

		// CPU prefix tree.
		tr := trie.New()
		for i, s := range unique {
			for _, k := range keysBySet[i] {
				tr.Add(s, k)
			}
		}
		tr.Freeze()
		r := MeasureMatcher(matcherAdapter{tr}, queries, 3000, p.Threads, false)
		rows["CPU-only, prefix tree"] = append(rows["CPU-only, prefix tree"], r.QPS/1e3)

		// CPU ICN matcher.
		ib := icn.NewBuilder()
		for i, s := range unique {
			for _, k := range keysBySet[i] {
				ib.Add(s, k)
			}
		}
		im := ib.Build()
		r = MeasureMatcher(matcherAdapter{im}, queries, 3000, p.Threads, false)
		rows["CPU-only, ICN matcher"] = append(rows["CPU-only, ICN matcher"], r.QPS/1e3)

		// CPU-only TagMatch (same pipeline, no devices).
		func() {
			eng, err := BuildEngine(EngineSpec{Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: 0, MaxP: ds.BaseMaxP()})
			if err != nil {
				panic(err)
			}
			defer eng.Close()
			r := MeasureEngine(eng, queries, p.Queries/4, false)
			rows["CPU-only, TagMatch"] = append(rows["CPU-only, TagMatch"], r.QPS/1e3)
		}()

		// TagMatch (hybrid).
		func() {
			eng, err := BuildEngine(EngineSpec{Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: p.GPUs, MaxP: ds.BaseMaxP()})
			if err != nil {
				panic(err)
			}
			defer eng.Close()
			r := MeasureEngine(eng, queries, p.Queries, false)
			rows["TagMatch"] = append(rows["TagMatch"], r.QPS/1e3)
		}()
	}

	for _, label := range order {
		t.Add(label, rows[label]...)
	}
	t.Note("scale %.4g of the paper's workload: full database = %d interests (%d unique sets)",
		p.Scale, len(ds.Sigs), ds.Unique)
	return t
}

// matcherAdapter adapts trie/icn matchers (visit func(uint32)) to the
// shared matcher interface.
type matcherAdapter struct {
	m interface {
		Match(bitvec.Vector, func(uint32))
		MatchUnique(bitvec.Vector, func(uint32))
	}
}

func (a matcherAdapter) Match(q bitvec.Vector, visit func(uint32)) { a.m.Match(q, visit) }
func (a matcherAdapter) MatchUnique(q bitvec.Vector, visit func(uint32)) {
	a.m.MatchUnique(q, visit)
}

// timeRun measures one synchronous run.
func timeRun(run func() int64, n int) ThroughputResult {
	start := time.Now()
	keys := run()
	el := time.Since(start)
	return ThroughputResult{
		QPS:     float64(n) / el.Seconds(),
		KeysPS:  float64(keys) / el.Seconds(),
		Keys:    keys,
		Elapsed: el,
	}
}

// Table3 compares TagMatch, the prefix tree and the ICN matcher at 10%
// and 20% of the full database for match and match-unique.
func Table3(p Params) *Table {
	ds := BuildDataset(p)
	t := &Table{
		ID:    "table3",
		Title: "TagMatch vs prefix tree vs ICN matcher (K queries/s)",
		Cols:  []string{"10% match", "20% match", "10% m-unique", "20% m-unique"},
	}
	type cell struct{ frac float64 }
	fracs := []cell{{0.10}, {0.20}}

	var tm, pt, ic [4]float64
	var icnPeak, icnResident int64
	for fi, fc := range fracs {
		sigs, keys := ds.Slice(fc.frac)
		uniqueSigs, keysBySet := KeysBySet(sigs, keys)
		queries := ds.Queries(4096, fc.frac, -1, p.Seed+300)

		tr := trie.New()
		ib := icn.NewBuilder()
		for i, s := range uniqueSigs {
			for _, k := range keysBySet[i] {
				tr.Add(s, k)
				ib.Add(s, k)
			}
		}
		tr.Freeze()
		im := ib.Build()
		icnPeak = im.BuildPeakBytes()
		icnResident = im.MemoryBytes()

		eng, err := BuildEngine(EngineSpec{Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: p.GPUs, MaxP: ds.BaseMaxP()})
		if err != nil {
			panic(err)
		}
		for ui, unique := range []bool{false, true} {
			col := fi + 2*ui
			tm[col] = MeasureEngine(eng, queries, p.Queries, unique).QPS / 1e3
			pt[col] = MeasureMatcher(matcherAdapter{tr}, queries, 3000, p.Threads, unique).QPS / 1e3
			ic[col] = MeasureMatcher(matcherAdapter{im}, queries, 3000, p.Threads, unique).QPS / 1e3
		}
		eng.Close()
	}
	t.Add("TagMatch", tm[:]...)
	t.Add("Prefix tree", pt[:]...)
	t.Add("ICN matcher", ic[:]...)
	t.Note("ICN build-time peak memory at 20%%: %d bytes (%.1fx resident) — the trait that capped the paper's ICN runs at 20%%",
		icnPeak, float64(icnPeak)/float64(icnResident))
	return t
}
