package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
	"tagmatch/internal/core"
	"tagmatch/internal/minidb"
)

// smallDocs synthesizes the scaled-down workload of §4.4: nDocs sets of
// exactly tagsPerSet tags from a modest vocabulary, "with a similar
// selectivity" to the Twitter workload.
func smallDocs(nDocs, tagsPerSet int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	vocab := nDocs / 10
	if vocab < 100 {
		vocab = 100
	}
	docs := make([][]string, nDocs)
	for i := range docs {
		tags := make([]string, 0, tagsPerSet)
		seen := map[int]bool{}
		for len(tags) < tagsPerSet {
			t := rng.Intn(vocab)
			if seen[t] {
				continue
			}
			seen[t] = true
			tags = append(tags, fmt.Sprintf("t%d", t))
		}
		docs[i] = tags
	}
	return docs
}

// smallQueries builds queries as a document's tags plus extra tags, the
// same construction as the main workload.
func smallQueries(docs [][]string, n, extra int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]string, n)
	for i := range out {
		base := docs[rng.Intn(len(docs))]
		q := make([]string, len(base), len(base)+extra)
		copy(q, base)
		for j := 0; j < extra; j++ {
			q = append(q, fmt.Sprintf("xq%d_%d", rng.Intn(1000), rng.Intn(1<<20)))
		}
		out[i] = q
	}
	return out
}

// Fig10 reproduces the MongoDB comparison: single-instance minidb
// throughput across database sizes, tags per set and extra tags per
// query, against TagMatch on the same data. The paper's db sizes
// (1M..5M) map to 10K..50K documents at benchmark scale.
func Fig10(p Params) *Table {
	t := &Table{
		ID:    "fig10",
		Title: "minidb (MongoDB stand-in) vs TagMatch (queries/s; db scaled 100:1)",
		Cols:  []string{"+2 tags", "+6 tags", "+10 tags"},
	}
	extras := []int{2, 6, 10}

	type cfg struct {
		docs int
		tps  int // tags per set
	}
	base := p.smallDocsBase()
	for _, c := range []cfg{{base, 2}, {3 * base, 3}, {5 * base, 3}} {
		docs := smallDocs(c.docs, c.tps, p.Seed+900)
		srv, err := minidb.NewServer("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		for i, d := range docs {
			if err := srv.Store().Insert(uint32(i), d); err != nil {
				panic(err)
			}
		}
		cl, err := minidb.Dial(srv.Addr())
		if err != nil {
			panic(err)
		}
		var vals []float64
		for _, e := range extras {
			queries := smallQueries(docs, 64, e, p.Seed+901)
			n := 30
			start := time.Now()
			for i := 0; i < n; i++ {
				if _, err := cl.Query(queries[i%len(queries)]); err != nil {
					panic(err)
				}
			}
			vals = append(vals, float64(n)/time.Since(start).Seconds())
		}
		t.Add(fmt.Sprintf("minidb %d docs, %d tags/set", c.docs, c.tps), vals...)
		cl.Close()
		srv.Close()
	}

	// TagMatch on the largest small database, same query shapes.
	docs := smallDocs(5*base, 3, p.Seed+900)
	dbSigs := make([]bitvec.Vector, len(docs))
	dbKeys := make([]core.Key, len(docs))
	for i, d := range docs {
		dbSigs[i] = bloom.Signature(d)
		dbKeys[i] = core.Key(i)
	}
	var vals []float64
	eng, err := BuildEngine(EngineSpec{
		Sigs: dbSigs, Keys: dbKeys, Threads: p.Threads, GPUs: p.GPUs,
	})
	if err != nil {
		panic(err)
	}
	for _, e := range extras {
		queries := smallQueries(docs, 1024, e, p.Seed+902)
		qsigs := make([]bitvec.Vector, len(queries))
		for i, q := range queries {
			qsigs[i] = bloom.Signature(q)
		}
		vals = append(vals, MeasureEngine(eng, qsigs, p.Queries/2, false).QPS)
	}
	eng.Close()
	t.Add(fmt.Sprintf("TagMatch %d docs, 3 tags/set", 5*base), vals...)
	t.Note("paper db sizes 1M/3M/5M map to %d/%d/%d docs here", base, 3*base, 5*base)
	t.Note("paper shape: minidb throughput is flat in query/set width, degrades linearly with db size, and sits orders of magnitude below TagMatch")
	return t
}

// Fig11 reproduces the sharding experiment: minidb throughput as the
// cluster grows, on a 30K-document database (the paper's 3M at scale),
// 3 tags per set, 6-tag queries.
func Fig11(p Params) *Table {
	t := &Table{
		ID:    "fig11",
		Title: "minidb sharding scalability (queries/s)",
	}
	instances := []int{1, 2, 4, 8, 16, 24}
	docs := smallDocs(3*p.smallDocsBase(), 3, p.Seed+950)
	queries := smallQueries(docs, 64, 3, p.Seed+951)

	var vals []float64
	for _, ni := range instances {
		t.Cols = append(t.Cols, fmt.Sprintf("%d inst", ni))
		cluster, err := minidb.NewCluster(ni)
		if err != nil {
			panic(err)
		}
		for i, d := range docs {
			if err := cluster.InsertLocal(uint32(i), d); err != nil {
				panic(err)
			}
		}
		n := 30
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := cluster.Query(queries[i%len(queries)]); err != nil {
				panic(err)
			}
		}
		vals = append(vals, float64(n)/time.Since(start).Seconds())
		cluster.Close()
	}
	t.Add("minidb cluster", vals...)
	t.Note("paper shape: near-linear up to ~8 instances, then flattening (~3x total at 24)")
	return t
}
