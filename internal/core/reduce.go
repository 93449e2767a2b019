package core

import (
	"context"
	"runtime/pprof"
	"slices"
	"time"

	"tagmatch/internal/obs"
)

// This file is the key lookup/reduce stage and the merge helpers of
// match-unique (§3.4).

// reduceWorker implements the key lookup/reduce stage (§3.4): decode
// (query, set) pairs, look up the keys of each set, and append them to
// the owning query, completing queries whose last batch this was.
func (e *Engine) reduceWorker() {
	defer e.reduceWg.Done()
	pprof.Do(context.Background(), pprof.Labels("stage", "reduce"), func(context.Context) {
		var sc reduceScratch
		for b := range e.reduceCh {
			e.reduceOne(&sc, b)
		}
	})
}

// reduceScratch is a reduce worker's accumulation state for the batch it
// reduces: keys collected per query slot (slot = the query's dense uint8
// index within the batch) and the list of touched slots in first-touch
// order. Key capacities persist from batch to batch, so a warmed-up
// scratch absorbs a typical batch without allocating.
type reduceScratch struct {
	keys    [][]Key     // per batch slot; appended to under no lock
	touched []uint8     // slots with at least one key, in first-touch order
	span    spanScratch // cpuMatchBatchSliced's surviving-entry lists
	pairs   []int32     // per batch slot: pairs decoded, then entries per distinct query
}

// reset sizes the scratch for a batch of n entries. The previous batch's
// flush left every touched slot empty.
func (sc *reduceScratch) reset(n int) {
	for len(sc.keys) < n {
		sc.keys = append(sc.keys, nil)
	}
	sc.pairs = slices.Grow(sc.pairs[:0], n)[:n]
	clear(sc.pairs)
}

// reduceOne reduces one batch whose subset match has completed, on the
// device or (b.host) about to run on the host, and recycles it.
func (e *Engine) reduceOne(sc *reduceScratch, b *openBatch) {
	idx := b.idx
	t0 := time.Now()
	matchDur := t0.Sub(b.dispatched)
	e.obs.Flow.MatchNs.Add(int64(matchDur))
	if e.obs.On {
		e.obs.SubsetMatch.ObserveDuration(matchDur)
	}
	defer func() {
		reduceDur := time.Since(t0)
		e.obs.Flow.ReduceNs.Add(int64(reduceDur))
		if e.obs.On {
			e.obs.Reduce.ObserveDuration(reduceDur)
		}
	}()

	// Batch-local reduce: keys accumulate lock-free in per-entry scratch
	// (query ids are dense uint8 entry indices), then flush to each
	// touched query under ONE lock acquisition per (query, entry) — not
	// one per (query, set) pair. With selective queries matching hundreds
	// of sets in a partition, per-pair locking made the query mutex the
	// reduce stage's contention point.
	sc.reset(len(b.queries))
	// Live tombstones from the delta overlay suppress removed keys in
	// the batch output; the fast path (no tombstones pending) is one
	// atomic load. The overlay read lock, when taken, is released right
	// after the payload decode below — before any query completes.
	tombs := e.tombsForReduce()
	visit := func(qi uint8, setID uint32) {
		sc.pairs[qi]++
		lo, hi := idx.keyOff[setID], idx.keyOff[setID+1]
		rowKeys := idx.keys[lo:hi]
		exact := idx.keyTags != nil && b.queries[qi].tags != nil
		var rowTags [][]string
		if exact {
			rowTags = idx.keyTags[lo:hi]
		}
		ks := sc.keys[qi]
		if tombs == nil && !exact {
			ks = append(ks, rowKeys...)
		} else {
			// Exact verification (§3) — dropping Bloom false positives by
			// re-checking the stored tags against the query's tag set
			// (immutable after submit, so no lock needed here) — and
			// tombstone suppression share the per-entry walk.
			for j := range rowKeys {
				if tombs != nil && e.tombSuppressed(idx.sets[setID], rowKeys, j, tombs) {
					continue
				}
				if exact && !tagsContained(rowTags[j], b.queries[qi].tags) {
					continue
				}
				ks = append(ks, rowKeys[j])
			}
		}
		if len(ks) > 0 && len(sc.keys[qi]) == 0 {
			sc.touched = append(sc.touched, qi)
		}
		sc.keys[qi] = ks
	}

	if b.host {
		// CPU-only mode, a fallback or an overflowed result buffer: run
		// the batch's subset match on the host, segment by segment — the
		// device kernel's matchSpan, so counters and pairs hold across
		// fallbacks.
		if b.overflow {
			e.obs.Flow.Overflows.Add(1)
		}
		e.obs.Kernel.SlicedBatches.Add(1)
		for _, sg := range b.segs {
			p := &idx.parts[sg.pid]
			pc := e.partCounters(sg.pid)
			if b.overflow && pc != nil {
				pc.Overflows.Add(1)
			}
			groups, runs := idx.slicedPart(sg.pid)
			cpuMatchBatchSliced(groups, runs, int(p.off), b.sigs[sg.first:sg.first+sg.n], uint8(sg.first),
				!e.cfg.DisablePrefilter, &sc.span, pc, &e.obs.Kernel, visit)
		}
	} else {
		decodePacked(b.packed, b.count, visit)
	}
	if tombs != nil {
		e.delta.mu.RUnlock()
	}

	// Flush the scratch: one lock acquisition per touched entry.
	for _, qi := range sc.touched {
		q := b.queries[qi]
		ks := sc.keys[qi]
		q.mu.Lock()
		q.keys = append(q.keys, ks...)
		q.mu.Unlock()
		sc.keys[qi] = ks[:0]
	}
	e.queryLockAcqs.Add(int64(len(sc.touched)))
	sc.touched = sc.touched[:0]

	// Pairs per segment, from the per-entry counts.
	var nPairs int64
	for _, sg := range b.segs {
		var n int64
		for _, c := range sc.pairs[sg.first : sg.first+sg.n] {
			n += int64(c)
		}
		nPairs += n
		if pc := e.partCounters(sg.pid); pc != nil && n > 0 {
			pc.Pairs.Add(n)
		}
	}
	e.obs.Flow.Pairs.Add(nPairs)

	// A query holds one pending reference per entry; count each distinct
	// query's entries (reusing the per-entry scratch) so its countdown —
	// and its trace — is touched once per batch.
	held := sc.pairs[:len(b.queries)]
	clear(held)
	for _, d := range b.dup {
		held[d]++
	}
	if e.obs.Tracing() {
		reduceSoFar := time.Since(t0)
		for i, q := range b.queries {
			if q.trace != nil && held[i] > 0 {
				pid := int32(b.segOf(i).pid)
				q.trace.Event("batch-done", pid, nPairs)
				// Spans must attach before finish() below publishes the
				// trace; the reduce span therefore measures up to here,
				// missing only the batch-recycle tail.
				q.trace.Span(obs.StageSubsetMatch, "query", b.dispatched, 0, matchDur,
					pid, "", -1, nPairs)
				q.trace.Span(obs.StageReduce, "query", t0, 0, reduceSoFar,
					pid, "", -1, nPairs)
			}
		}
	}
	for i, q := range b.queries {
		if n := held[i]; n > 0 {
			q.finish(e, n)
		}
	}
	e.pools.putBatch(b)
	e.inflightBatches.Add(-1)
	e.notifyProgress()
}

// tagsContained reports whether every stored tag is present in the query
// tag set. Entries stored without tags (AddSignature) cannot be verified
// and are accepted.
func tagsContained(tags []string, qset map[string]struct{}) bool {
	if tags == nil {
		return true
	}
	for _, t := range tags {
		if _, ok := qset[t]; !ok {
			return false
		}
	}
	return true
}

// dedupKeys sorts and compacts a key slice in place (merge stage of
// match-unique).
func dedupKeys(keys []Key) []Key {
	if len(keys) < 2 {
		return keys
	}
	sortKeys(keys)
	out := keys[:1]
	for _, k := range keys[1:] {
		if k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}

func sortKeys(keys []Key) {
	// Insertion sort for the short slices typical of selective queries;
	// stdlib pdqsort for large fan-out results.
	if len(keys) < 24 {
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		return
	}
	slices.Sort(keys)
}
