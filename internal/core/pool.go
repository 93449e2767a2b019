package core

import (
	"sync"
	"sync/atomic"
	"time"

	"tagmatch/internal/bitvec"
)

// Hot-path buffer recycling. At steady state the submit→complete path
// allocates the same handful of objects for every query and batch —
// query structs, openBatch slices with their packed-pair payload, and a
// flush pass's scratch. Each has a clear last-touch point (the final
// finish for a query, the end of reduceOne for a batch, the end of its
// pass for a pass scratch), so they are recycled through sync.Pools
// instead of being re-allocated, keeping the steady-state pipeline
// allocation-flat (TestSteadyStateAllocsPerQuery holds a no-match burst
// under a quarter of an allocation per query). A reduce worker owns its
// scratch, as a pre-process worker owns its routeState.
type enginePools struct {
	query sync.Pool // *query
	batch sync.Pool // *openBatch
	pass  sync.Pool // *passScratch

	// liveQueries and liveBatches count the queries and batches handed out
	// and not yet returned: each is zero on a drained engine, or one was
	// leaked.
	liveQueries, liveBatches atomic.Int64
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
	b.idx, b.fault = nil, nil
	ep.batch.Put(b)
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
