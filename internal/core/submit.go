package core

import (
	"context"
	"errors"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/obs"
)

// This file is the way in and the pre-process stage: a Request becomes a
// query, and a pre-process worker routes it (Algorithm 2) and hands its
// entries to the index's entry log (entrylog.go).

// query is one match operation flowing through the pipeline.
type query struct {
	sig    bitvec.Vector
	unique bool
	start  time.Time
	idx    *index

	// tags holds the query's tag set in ExactVerify mode; nil queries
	// (submitted by signature) skip exact verification.
	tags map[string]struct{}

	// pending counts the batches this query still has in flight, plus a
	// +1 guard held during pre-processing so the query cannot complete
	// while it is still being routed.
	pending atomic.Int32

	mu   sync.Mutex
	keys []Key

	done func(MatchResult)

	// trace is non-nil for the sampled 1-in-N queries when tracing is
	// configured; all event methods are nil-safe.
	trace *obs.Trace

	// deadline and ctx carry the submitter's cancellation state into the
	// pipeline (both zero when the context never ends): batches check
	// them at dispatch, completing already-expired queries with
	// ErrDeadlineExceeded instead of spending device time on answers
	// nobody is waiting for. ctx is stored only when cancellable.
	deadline time.Time
	ctx      context.Context

	// stamp names the dispatched batch that last listed the query and the
	// query's first entry in it (dispatch sequence number << 8 | entry);
	// see dispatch.
	stamp atomic.Uint64

	// expired marks a query completed early with ErrDeadlineExceeded.
	// The CAS in expire elects exactly one deliverer no matter how many
	// of the query's batches sweep it concurrently; finish() sees the
	// flag and only recycles.
	expired atomic.Bool
}

// finish decrements the outstanding-batch counter and runs the merge
// stage (§3.4) when it reaches zero. The goroutine that reaches zero
// owns the query exclusively — every batch's last access to a query is
// its finish call — so it also recycles the struct.
func (q *query) finish(e *Engine, n int32) {
	if q.pending.Add(-n) != 0 {
		return
	}
	if q.expired.Load() {
		// expire() already delivered the ErrDeadlineExceeded result and
		// counted the completion; the last batch reference only recycles.
		e.pools.putQuery(q)
		e.notifyProgress()
		return
	}
	q.mu.Lock()
	keys := q.keys
	q.keys = nil
	q.mu.Unlock()
	if q.unique {
		if e.obs.On {
			t0 := time.Now()
			keys = dedupKeys(keys)
			spent := time.Since(t0)
			e.obs.Merge.ObserveDuration(spent)
			if q.trace != nil {
				q.trace.Span(obs.StageMerge, "query", t0, 0, spent, -1, "", -1, int64(len(keys)))
			}
		} else {
			keys = dedupKeys(keys)
		}
	}
	e.obs.Flow.KeysDelivered.Add(int64(len(keys)))
	latency := time.Since(q.start)
	if e.obs.On {
		e.obs.E2E.ObserveDuration(latency)
	}
	q.trace.Done(int64(len(keys)))
	done := q.done
	e.pools.putQuery(q)
	if done != nil {
		done(MatchResult{Keys: keys, Latency: latency})
	}
	// Counted only once done has returned: Drain's promise is that every
	// callback has.
	e.obs.Flow.Completed.Add(1)
	e.notifyProgress()
}

// lapsed reports whether the query can no longer meet its caller's
// deadline: the deadline passed or the submitting context was cancelled.
func (q *query) lapsed(now time.Time) bool {
	if !q.deadline.IsZero() && now.After(q.deadline) {
		return true
	}
	return q.ctx != nil && q.ctx.Err() != nil
}

// expiryCause builds the terminal error for a lapsed query: always
// matchable with ErrDeadlineExceeded, with the context's own error
// joined in so callers can also distinguish cancellation from timeout.
// lapsed can see the context's deadline pass a moment before the
// context's timer fires; the cause is then context.DeadlineExceeded.
func (q *query) expiryCause() error {
	err := q.ctx.Err()
	if err == nil {
		err = context.DeadlineExceeded
	}
	return errors.Join(ErrDeadlineExceeded, err)
}

// expire completes a query early with ErrDeadlineExceeded. The CAS
// elects exactly one deliverer; losers (other batches holding the same
// query) return immediately. The query struct is NOT recycled here — it
// may still sit in other in-flight batches — the last batch reference
// does that via finish, which sees the expired flag and skips delivery.
func (q *query) expire(e *Engine, cause error) {
	if !q.expired.CompareAndSwap(false, true) {
		return
	}
	e.obs.Faults.DeadlineExpired.Add(1)
	latency := time.Since(q.start)
	if q.trace != nil {
		q.trace.Fail("deadline_exceeded")
		q.trace.Done(0)
	}
	if done := q.done; done != nil {
		done(MatchResult{Err: cause, Latency: latency})
	}
	e.obs.Flow.Completed.Add(1) // after done, as in finish
	e.notifyProgress()
}

// Request is one query of the paper's Table 2: match(q), or
// match-unique(q) when Unique is set. Sig is what gets matched. Tags, when
// non-nil, is the query's tag set, which ExactVerify checks every match
// against; a request built from a pre-computed signature leaves it nil and
// matches as a plain Bloom query.
type Request struct {
	Sig    bitvec.Vector
	Tags   []string
	Unique bool
}

// Submit enqueues r; done is invoked exactly once with the matching keys.
// It returns ErrClosed after Close and ErrOverloaded when the
// Config.MaxInFlight admission gate sheds the query (done is not called in
// either case). A cancellable ctx rides along on the query: its deadline
// and cancellation are observed at dispatch, completing the query early
// with ErrDeadlineExceeded instead of launching device work for it. A ctx
// that never ends (context.Background) costs nothing.
func (e *Engine) Submit(ctx context.Context, r Request, done func(MatchResult)) error {
	e.submitMu.RLock()
	// Close sets closed before it closes inputCh under the write lock, so a
	// submitter that finds the engine open here sends before the close.
	if e.closed.Load() {
		e.submitMu.RUnlock()
		return ErrClosed
	}
	// Admission gate: counting this submission, more than MaxInFlight
	// queries would be in flight — shed it. submitted is incremented
	// before the capacity check (and before the channel send, which
	// Drain's completed>=submitted test relies on) so concurrent
	// submitters each see their own claim; a rejected claim is rolled
	// back and progress is signalled for SubmitWait's waiters.
	if max := int64(e.cfg.MaxInFlight); max > 0 {
		if e.obs.Flow.Submitted.Add(1)-e.obs.Flow.Completed.Load() > max {
			e.obs.Flow.Submitted.Add(-1)
			e.submitMu.RUnlock()
			e.obs.Faults.QueriesShed.Add(1)
			// Shed queries never enter the pipeline, so finish() never
			// publishes a trace for them; sample and finalize here so the
			// trace ring reflects shedding instead of silently skipping
			// the rejected 1-in-N queries.
			if tr := e.obs.Tracer.Maybe(); tr != nil {
				tr.Abort("overloaded")
			}
			e.notifyProgress()
			return ErrOverloaded
		}
	} else {
		e.obs.Flow.Submitted.Add(1)
	}
	q := e.pools.getQuery()
	q.sig, q.tags, q.unique, q.done = r.Sig, e.tagSet(r.Tags), r.Unique, done
	q.start = time.Now()
	q.idx = e.idx.Load()
	q.trace = e.obs.Tracer.Maybe()
	if ctx.Done() != nil {
		q.ctx = ctx
		if d, ok := ctx.Deadline(); ok {
			q.deadline = d
		}
	}
	q.pending.Store(1) // pre-processing guard
	e.inputCh <- q
	e.submitMu.RUnlock()
	return nil
}

// tagSet builds the exact-verification set for a query, or nil when the
// engine does not verify or the query has no tags to verify against.
func (e *Engine) tagSet(tags []string) map[string]struct{} {
	if !e.cfg.ExactVerify || tags == nil {
		return nil
	}
	set := make(map[string]struct{}, len(tags))
	for _, t := range tags {
		set[t] = struct{}{}
	}
	return set
}

// SubmitWait is Submit that waits for admission capacity instead of
// returning ErrOverloaded, until ctx ends; it then returns an error
// matching both ErrOverloaded and the context error.
func (e *Engine) SubmitWait(ctx context.Context, r Request, done func(MatchResult)) error {
	for {
		err := e.Submit(ctx, r, done)
		if !errors.Is(err, ErrOverloaded) {
			return err
		}
		if !e.await(ctx, e.admits) {
			return errors.Join(ErrOverloaded, ctx.Err())
		}
	}
}

// admits reports whether the admission gate has room for one more query.
func (e *Engine) admits() bool {
	return e.obs.Flow.Submitted.Load()-e.obs.Flow.Completed.Load() < int64(e.cfg.MaxInFlight)
}

// Match is the blocking Submit: it returns the matching keys of r, or the
// query's error. It flushes the entry log while it waits, so it completes
// promptly even without traffic; use Submit for throughput. The admission
// gate sheds it with ErrOverloaded. When ctx ends first, Match returns an
// error matching ErrDeadlineExceeded and the context error at once; the
// query itself is expired at its next stage boundary.
func (e *Engine) Match(ctx context.Context, r Request) ([]Key, error) {
	ch := make(chan MatchResult, 1)
	if err := e.Submit(ctx, r, func(res MatchResult) { ch <- res }); err != nil {
		return nil, err
	}
	if !e.await(ctx, func() bool { return len(ch) > 0 }) {
		return nil, errors.Join(ErrDeadlineExceeded, ctx.Err())
	}
	res := <-ch
	return res.Keys, res.Err
}

// routeMergeAppends caps how many routed entries a pre-process worker
// buffers locally before handing them over to the index's entry log. A
// worker also hands over whenever the input channel is momentarily
// empty, so the cap only bounds buffering (and thus added latency) under
// sustained load, where the wait for a stream dominates latency anyway.
const routeMergeAppends = 1024

// routeState is the per-worker scratch of the pre-process stage.
type routeState struct {
	pids  []uint32 // routed partition ids, reused across queries
	ones  []int    // the query signature's one-bit positions, computed once
	dkeys []Key    // delta-overlay hits, reused across queries

	// run buffers a burst's routed entries until mergeRoutes hands them
	// to the log of idx, the generation they were routed against.
	idx *index
	run []routedEntry
}

// preprocessWorker implements the pre-process stage (Algorithm 2): find
// the partitions whose mask is a subset of the query and log one routed
// entry per partition. Routing uses the bit-sliced partition table, and
// entries accumulate worker-locally across a burst of queries — as many
// as are immediately available on the input channel, up to
// routeMergeAppends entries — before one append hands them to the
// index's log. A worker hands over before blocking for more input, so no
// query ever waits in a local run while the pipeline is idle.
func (e *Engine) preprocessWorker() {
	defer e.workerWg.Done()
	pprof.Do(context.Background(), pprof.Labels("stage", "preprocess"), func(context.Context) {
		var w routeState
		for q := range e.inputCh {
			e.routeOne(&w, q)
		collect:
			for len(w.run) < routeMergeAppends {
				select {
				case q2, ok := <-e.inputCh:
					if !ok {
						break collect // hand over below; the outer range exits next
					}
					e.routeOne(&w, q2)
				default:
					break collect
				}
			}
			e.mergeRoutes(&w)
			e.notifyProgress()
		}
	})
}

// routeOne runs Algorithm 2 for one query and buffers its routed entries
// in the worker's run. The routing guard (+1 pending) drops here: the
// buffered entries hold their own pending references, so a query routed
// nowhere completes at once and any other when its last batch reduces.
func (e *Engine) routeOne(w *routeState, q *query) {
	idx := q.idx
	if w.idx != idx {
		// Index generation changed under the run (Consolidate swapped it):
		// hand the old generation's entries to its own log first.
		e.mergeRoutes(w)
		w.idx = idx
	}
	t0 := time.Now()
	// One pass over the signature serves both the bin walk (the lookup
	// takes the one-bit positions) and the trace below.
	w.ones = q.sig.Ones(w.ones[:0])
	w.pids = idx.pt.lookupSliced(q.sig, w.ones, w.pids[:0])
	e.obs.Routing.SlicedQueries.Add(1)
	w.pids = append(w.pids, idx.maskless...)
	e.obs.Flow.PartitionsSearched.Add(int64(len(w.pids)))
	q.pending.Add(int32(len(w.pids)))
	for _, pid := range w.pids {
		w.run = append(w.run, routedEntry{pid, q})
	}
	spent := time.Since(t0)
	e.obs.Flow.PreprocessNs.Add(int64(spent))
	if e.obs.On {
		// Per-query routing time; the hand-over time is accounted to
		// Flow.PreprocessNs by mergeRoutes but not attributed per query.
		e.obs.Preprocess.ObserveDuration(spent)
		// Input-queue wait: submit to pre-process pickup.
		e.obs.InputWait.ObserveDuration(t0.Sub(q.start))
	}
	if q.trace != nil {
		q.trace.Event("route-bins", -1, int64(len(w.ones)))
		q.trace.Event(obs.StagePreprocess, -1, int64(len(w.pids)))
		q.trace.Span(obs.StagePreprocess, "query", q.start, t0.Sub(q.start), spent,
			-1, "", -1, int64(len(w.pids)))
		if !q.deadline.IsZero() {
			// Deadline slack remaining after the pre-process stage; the
			// dispatch sweep records the pre-launch counterpart, giving
			// traced queries a per-stage slack attribution.
			q.trace.Event("deadline-slack-routed", -1, int64(time.Until(q.deadline)))
		}
	}
	// Merge the delta overlay's hits before the routing guard drops:
	// staged-but-unconsolidated adds match alongside the main index.
	e.deltaMatch(w, q)
	q.finish(e, 1)
}

// mergeRoutes hands the worker's run over to its generation's entry log:
// one mutex acquisition and one append for the whole burst. A hand-over
// that leaves the log full kicks the flusher, and blocks while an earlier
// kick is still waiting for the flusher to finish a pass: that is what
// bounds the log, and with it the input channel and Submit, when
// submitters outrun the devices.
func (e *Engine) mergeRoutes(w *routeState) {
	if len(w.run) == 0 {
		return
	}
	idx := w.idx
	t0 := time.Now()
	lg := &idx.log
	lg.mu.Lock()
	if len(lg.entries) == 0 {
		lg.opened = t0
	}
	if cap(lg.entries)-len(lg.entries) < len(w.run) {
		// Double: append's 1.25× would copy a filling log six times over.
		lg.entries = slices.Grow(lg.entries, max(len(lg.entries), len(w.run)))
	}
	lg.entries = append(lg.entries, w.run...)
	n := len(lg.entries)
	lg.mu.Unlock()
	e.obs.Routing.MergeLockAcqs.Add(1)
	e.obs.Routing.MergedAppends.Add(int64(len(w.run)))
	clear(w.run) // drop query refs; they recycle independently
	w.run = w.run[:0]
	e.obs.Flow.PreprocessNs.Add(int64(time.Since(t0)))
	if n >= e.fullLog(idx) {
		e.flushKick <- struct{}{}
	}
}
