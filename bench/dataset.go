package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"tagmatch"
	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
	"tagmatch/internal/workload"
)

const (
	// distinctQueries is 16x the 4,096-entry per-device query window, so
	// window hits come from fan-out, not from replaying the cycle.
	distinctQueries = 65536
	// oracleSamples is the number of distinct queries checked against the
	// brute-force oracle per workload.
	oracleSamples = 256
	// storedEvery keeps one generated interest in eight as the pool that
	// queries are built on and that the churn writer adds to and removes.
	storedEvery = 8
	// freshKeyBase is above every generated user id.
	freshKeyBase = 1 << 30
)

// stored is one database association kept by the harness.
type stored struct {
	tags []string
	sig  bitvec.Vector
	key  tagmatch.Key
}

// dataset is everything a run derives from -seed before an engine
// exists: the database as a snapshot, the oracle's copy of it, and the
// pool of stored associations.
type dataset struct {
	gen      *workload.Generator
	seed     int64
	snapshot []byte
	oracle   oracle
	pool     []stored

	interests int
	generateS float64 // workload.dataset_s
	saveS     float64 // core.snapshot.save_s
}

// buildDataset generates the interests of users [0, users), feeds them
// to a CPU-only engine through AddSet and saves that engine's snapshot.
// The oracle is built beside it from the same tags and never sees the
// engine.
func buildDataset(users int, seed int64) (*dataset, error) {
	gen, err := workload.New(workload.NewConfig(users, seed))
	if err != nil {
		return nil, err
	}
	ds := &dataset{gen: gen, seed: seed}

	// Interests are a pure function of (seed, user), so two halves
	// generate concurrently and are consumed in user order.
	t0 := time.Now()
	var halves [2][]workload.Interest
	var wg sync.WaitGroup
	for h := range halves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := h*users/2, (h+1)*users/2
			for u := lo; u < hi; u++ {
				halves[h] = append(halves[h], gen.InterestsOf(uint32(u))...)
			}
		}()
	}
	wg.Wait()
	ds.generateS = time.Since(t0).Seconds()

	// Live updates off: a bulk AddSet would otherwise trip the background
	// consolidator. SaveSnapshot includes staged operations.
	builder, err := tagmatch.New(tagmatch.Config{DisableLiveUpdates: true, DisableObservability: true})
	if err != nil {
		return nil, err
	}
	defer builder.Close()
	bySig := make(map[bitvec.Vector][]tagmatch.Key)
	var firstSeen []bitvec.Vector // map order would vary from run to run
	for _, half := range halves {
		for _, in := range half {
			key := tagmatch.Key(in.User)
			builder.AddSet(in.Tags, key)
			sig := bloom.Signature(in.Tags)
			if _, seen := bySig[sig]; !seen {
				firstSeen = append(firstSeen, sig)
			}
			bySig[sig] = append(bySig[sig], key)
			if ds.interests%storedEvery == 0 {
				ds.pool = append(ds.pool, stored{tags: in.Tags, sig: sig, key: key})
			}
			ds.interests++
		}
	}
	ds.oracle = newOracle(firstSeen, bySig)
	pooled := make([][]string, len(ds.pool))
	for i := range ds.pool {
		pooled[i] = ds.pool[i].tags
	}
	for i, tags := range compactTags(pooled) {
		ds.pool[i].tags = tags
	}

	t0 = time.Now()
	var buf bytes.Buffer
	if err := builder.SaveSnapshot(&buf); err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	ds.saveS = time.Since(t0).Seconds()
	ds.snapshot = buf.Bytes()
	return ds, nil
}

// queries builds the distinct queries of §4.2.2: the tags of a stored
// interest plus extra tags (extra < 0 draws 2 to 4).
func (ds *dataset) queries(n, extra int) [][]string {
	rng := rand.New(rand.NewSource(ds.seed ^ int64(extra)<<32 ^ 0x51ed))
	out := make([][]string, n)
	for i := range out {
		out[i] = ds.gen.Query(rng, ds.pool[rng.Intn(len(ds.pool))].tags, extra)
	}
	return compactTags(out)
}

// compactTags copies tag sets into one string and one slice. What the
// harness keeps for the whole run is then a few large objects, not
// millions of small ones pinning the heap spans the generator's garbage
// shared with them: heap_mb is the engine's, not the harness's.
func compactTags(sets [][]string) [][]string {
	var text strings.Builder
	n := 0
	for _, tags := range sets {
		n += len(tags)
		for _, t := range tags {
			text.WriteString(t)
		}
	}
	all, flat := text.String(), make([]string, 0, n)
	out := make([][]string, len(sets))
	for i, tags := range sets {
		start := len(flat)
		for _, t := range tags {
			flat = append(flat, all[:len(t)])
			all = all[len(t):]
		}
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// oracle is the brute-force reference: every unique signature with its
// key multiset, in flat arrays.
type oracle struct {
	sigs []bitvec.Vector
	off  []uint32 // keys of sigs[i] are keys[off[i]:off[i+1]]
	keys []tagmatch.Key
}

func newOracle(sigs []bitvec.Vector, bySig map[bitvec.Vector][]tagmatch.Key) oracle {
	o := oracle{sigs: sigs, off: make([]uint32, 1, len(sigs)+1)}
	for _, sig := range sigs {
		o.keys = append(o.keys, bySig[sig]...)
		o.off = append(o.off, uint32(len(o.keys)))
	}
	return o
}

// match returns, for each query, the sorted keys of every stored set
// that is a subset of it: the multiset, or the deduplicated set. patched
// replaces the key list of the signatures the churn writer touched.
func (o *oracle) match(queries []bitvec.Vector, unique bool, patched map[bitvec.Vector][]tagmatch.Key) [][]tagmatch.Key {
	out := make([][]tagmatch.Key, len(queries))
	for i, sig := range o.sigs {
		keys, isPatched := patched[sig]
		if !isPatched {
			keys = o.keys[o.off[i]:o.off[i+1]]
		}
		for qi := range queries {
			if sig.SubsetOf(queries[qi]) {
				out[qi] = append(out[qi], keys...)
			}
		}
	}
	for qi := range out {
		slices.Sort(out[qi])
		if unique {
			out[qi] = slices.Compact(out[qi])
		}
	}
	return out
}

// churnOp is one writer operation: add the association, or remove it.
type churnOp struct {
	stored
	add bool
}

// patch replays the applied writer operations over the oracle's copy of
// the signatures they touch: the oracle of db ⊕ ops.
func (o *oracle) patch(ops []churnOp) map[bitvec.Vector][]tagmatch.Key {
	patched := make(map[bitvec.Vector][]tagmatch.Key)
	for _, op := range ops {
		patched[op.sig] = nil
	}
	for i, sig := range o.sigs {
		if _, touched := patched[sig]; touched {
			patched[sig] = slices.Clone(o.keys[o.off[i]:o.off[i+1]])
		}
	}
	for _, op := range ops {
		keys := patched[op.sig]
		if op.add {
			keys = append(keys, op.key)
		} else if i := slices.Index(keys, op.key); i >= 0 {
			keys = slices.Delete(keys, i, i+1)
		}
		patched[op.sig] = keys
	}
	return patched
}

// churnPlan is the writer's operation stream: 60% AddSet of a fresh key
// on a stored tag set, 40% RemoveSet of a stored association, each
// association removed at most once.
func (ds *dataset) churnPlan(n int) []churnOp {
	rng := rand.New(rand.NewSource(ds.seed ^ 0xc4a7))
	victims := rng.Perm(len(ds.pool))
	ops := make([]churnOp, n)
	for i := range ops {
		if rng.Float64() < 0.6 || len(victims) == 0 {
			s := ds.pool[rng.Intn(len(ds.pool))]
			s.key = tagmatch.Key(freshKeyBase + i)
			ops[i] = churnOp{stored: s, add: true}
			continue
		}
		ops[i] = churnOp{stored: ds.pool[victims[0]]}
		victims = victims[1:]
	}
	return ops
}
