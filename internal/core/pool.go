package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tagmatch/internal/bitvec"
)

// Hot-path buffer recycling. At steady state the submit→complete path
// allocates the same handful of objects for every query and batch —
// query structs, openBatch slice pairs, batchResult carriers, result
// staging buffers, and the reduce stage's per-batch scratch. All of them
// have a clear last-touch point (the final finish for queries, the end
// of reduceOne for batches/results/scratch), so they are recycled
// through sync.Pools instead of being re-allocated per batch, keeping
// the steady-state pipeline allocation-flat (TestSteadyStateAllocsPerQuery
// holds a no-match burst under a quarter of an allocation per query).
type enginePools struct {
	query   sync.Pool // *query
	batch   sync.Pool // *openBatch
	result  sync.Pool // *batchResult
	scratch sync.Pool // *reduceScratch
	pass    sync.Pool // *passScratch

	// liveQueries, liveBatches and liveResults count the queries, batches
	// and result carriers handed out and not yet returned: each is zero on
	// a drained engine, or one was leaked.
	liveQueries, liveBatches, liveResults atomic.Int64
}

func (ep *enginePools) getQuery() *query {
	ep.liveQueries.Add(1)
	if q, ok := ep.query.Get().(*query); ok {
		return q
	}
	return &query{}
}

// putQuery recycles a query struct. Only the goroutine that drove
// pending to zero (and has run the done callback) may call it: at that
// point every batch holding the query has performed its last access.
// The keys slice is never recycled — its ownership passed to the done
// callback with the MatchResult.
func (ep *enginePools) putQuery(q *query) {
	ep.liveQueries.Add(-1)
	q.sig = bitvec.Vector{}
	q.unique = false
	q.start = time.Time{}
	q.idx = nil
	q.tags = nil
	q.pending.Store(0)
	q.keys = nil
	q.done = nil
	q.trace = nil
	q.deadline = time.Time{}
	q.ctx = nil
	q.expired.Store(false)
	ep.query.Put(q)
}

func (ep *enginePools) getBatch(batchSize int, created time.Time) *openBatch {
	ep.liveBatches.Add(1)
	b, _ := ep.batch.Get().(*openBatch)
	if b == nil {
		b = &openBatch{
			queries: make([]*query, 0, batchSize),
			sigs:    make([]bitvec.Vector, 0, batchSize),
		}
	}
	b.created = created
	return b
}

// putBatch recycles a batch: at the end of its reduce, or when the
// dispatch-time sweep cancels it.
func (ep *enginePools) putBatch(b *openBatch) {
	ep.liveBatches.Add(-1)
	clear(b.queries) // drop query refs: they are recycled independently
	b.queries = b.queries[:0]
	b.sigs = b.sigs[:0]
	b.segs = b.segs[:0]
	b.dup = b.dup[:0]
	b.deadlined = false
	ep.batch.Put(b)
}

func (ep *enginePools) getResult() *batchResult {
	ep.liveResults.Add(1)
	if r, ok := ep.result.Get().(*batchResult); ok {
		return r
	}
	return &batchResult{}
}

// putResult recycles a result carrier, retaining the capacity of its
// payload buffer for the next batch.
func (ep *enginePools) putResult(r *batchResult) {
	ep.liveResults.Add(-1)
	r.idx = nil
	r.batch = nil
	r.count = 0
	r.overflow = false
	r.kind = payloadCPU
	r.packed = r.packed[:0]
	ep.result.Put(r)
}

// reduceScratch is the per-batch accumulation state of the batch-local
// reduce: keys collected per query slot (slot = the query's dense uint8
// index within the batch) and the list of touched slots in first-touch
// order. Key capacities persist across reuse, so a warmed-up scratch
// absorbs a typical batch without allocating.
type reduceScratch struct {
	keys    [][]Key     // per batch slot; appended to under no lock
	touched []uint8     // slots with at least one key, in first-touch order
	span    spanScratch // cpuMatchBatchSliced's surviving-entry lists
	pairs   []int32     // per batch slot: pairs decoded, then entries per distinct query
}

func (ep *enginePools) getScratch(batchSize int) *reduceScratch {
	sc, _ := ep.scratch.Get().(*reduceScratch)
	if sc == nil {
		sc = &reduceScratch{}
	}
	for len(sc.keys) < batchSize {
		sc.keys = append(sc.keys, nil)
	}
	sc.pairs = slices.Grow(sc.pairs[:0], batchSize)[:batchSize]
	clear(sc.pairs)
	return sc
}

// putScratch recycles a reduce scratch. The caller must have drained
// every touched slot (flushScratch leaves them empty).
func (ep *enginePools) putScratch(sc *reduceScratch) {
	ep.scratch.Put(sc)
}

// passScratch is a flush pass's working memory: the log it took — whose
// buffer, emptied, the next pass to get this scratch gives back to the
// log — and the counting sort's arrays.
type passScratch struct {
	entries []routedEntry // the taken log, in hand-over order
	ends    []int32       // per partition: where its run ends in queries
	queries []*query      // the taken log's queries, partition-major
}

func (ep *enginePools) getPass() *passScratch {
	if sc, ok := ep.pass.Get().(*passScratch); ok {
		return sc
	}
	return &passScratch{}
}

func (ep *enginePools) putPass(sc *passScratch) {
	ep.pass.Put(sc)
}

// growBytes returns a length-n byte slice, reusing buf's backing array
// when it is large enough.
func growBytes(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// growU32 is growBytes for uint32 slices.
func growU32(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	return buf[:n]
}
