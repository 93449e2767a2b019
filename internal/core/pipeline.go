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
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

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

// openBatch is a dispatched batch: up to BatchSize routed (query,
// partition) entries cut from the entry log by a flush pass, each
// partition's run of entries one segment. queries and sigs are indexed
// by entry: a query routed to k of the batch's partitions appears k
// times.
type openBatch struct {
	queries    []*query
	sigs       []bitvec.Vector
	segs       []segment
	created    time.Time // when the pass's log was opened: the oldest entry's hand-over
	dispatched time.Time

	// dup[i] is the first entry holding the same query as entry i (i
	// itself for a first occurrence), computed at dispatch: per-query
	// work — trace spans, the pending countdown — runs once per distinct
	// query of the batch.
	dup []uint8

	// deadlined marks that at least one member carries a cancellable
	// context, so dispatch runs the expiry sweep; deadline-free traffic
	// pays nothing.
	deadlined bool

	// Tail-tolerance state. settled elects the one attempt — the GPU
	// chain or the host hedge — whose result reaches the reduce stage;
	// refs counts the attachments that may still touch the batch (the
	// reduce-stage hold, the in-flight attempt chain, an armed hedge
	// timer) so recycling waits for the losing attempt; hedgeTimer is
	// the armed straggler budget, disarmed when the batch settles.
	settled    atomic.Bool
	refs       atomic.Int32
	hedgeTimer *time.Timer

	// ctxs snapshots every member's context when ALL members carry one
	// (empty otherwise), written once at dispatch before any attempt
	// exists. Late attempt chains poll it — never b.queries, whose
	// members a rival settle may have recycled — to abandon stream
	// acquisition once every caller is gone.
	ctxs []context.Context
}

// streamSlot is a GPU stream with the device buffers and host staging
// of the one batch it carries at a time (§3.3: copy, kernel, copy on one
// of the device's streams): the batch's signatures, its entry indices and
// segment table, the result header and the packed pair buffer. A stream
// is owned exclusively by one attempt from pool acquisition until its
// final callback returns it. Attempts share nothing — a retry uploads
// the batch again on the stream it acquires — which is what keeps a
// faulted segment from touching buffers the retry reads, and the
// stream's FIFO from interleaving two batches' operations and segment
// errors.
//
// res and fault carry the batch outcome from the header callback to the
// completion callback. All of the staging state is written by the
// dispatching goroutine before the batch's first enqueue (the FIFO send
// publishes it to the executor) or by the executor itself between the
// batch's callbacks; the pool handoff orders reuse.
type streamSlot struct {
	dev    int
	stream *gpu.Stream
	qbuf   *gpu.Buffer[bitvec.Vector]
	tab    *gpu.Buffer[uint32]
	hdr    *gpu.Buffer[uint32]
	pairs  *gpu.Buffer[byte]

	// tabHost stages the batch's segment table, one H2D copy; args are
	// the launch's kernel arguments.
	tabHost []uint32
	args    batchArgs

	// res and fault are the in-flight batch's outcome, set by the header
	// callback and consumed by the completion callback (both on the
	// executor goroutine, FIFO-ordered).
	res   *batchResult
	fault error

	// traced holds the sampled traces of the batch in flight; the
	// stream's OnOp observer finds them through each op's attribution
	// tag and attaches device-op spans to them.
	traced []*obs.Trace
}

// close frees the stream's buffers (those allocated so far, when opening
// it failed midway) and closes it.
func (sl *streamSlot) close() {
	sl.qbuf.Free()
	sl.tab.Free()
	sl.hdr.Free()
	sl.pairs.Free()
	sl.stream.Close()
}

// sigBytes is the wire size of one query signature (bitvec.W bits).
const sigBytes = bitvec.Blocks * 8

// payloadKind selects the payload source the reduce stage decodes.
type payloadKind uint8

const (
	// payloadCPU: no device payload; reduce runs the subset match on the
	// host (CPU-only mode, or the overflow fallback).
	payloadCPU payloadKind = iota
	payloadPacked
)

// batchResult carries a completed subset-match batch to the key-lookup
// stage. kind selects the payload source; the payload slice keeps its
// backing array across pool reuse (the length is set per batch).
type batchResult struct {
	idx      *index
	batch    *openBatch
	count    int
	overflow bool // GPU result buffer overflowed (kind is payloadCPU)
	kind     payloadKind
	packed   []byte // packed layout payload
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
		if !e.await(ctx, true, e.admits) {
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
	if !e.await(ctx, true, func() bool { return len(ch) > 0 }) {
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

// fullLog is the length at which the log is full: BatchSize entries per
// partition. It bounds the log and is the pipeline's back-pressure; it does
// not set the batching. Under a BatchTimeout the age rule does that, and
// the bound is out of reach wherever in-flight queries × fan-out stays
// below it: no batch of the benchmark's stream_fanout, churn_mix and
// paced_latency leaves in a kick-started pass (at most 80k entries logged
// against 482k), a few percent of scan_heavy's do. Without a timeout it is
// all that moves entries short of an explicit flush, and a hot partition's
// BatchSize entries wait for the whole log to fill: a bound a quarter as
// long already leaves runs of a few dozen entries per partition on a
// submit-everything-then-Drain run (EXPERIMENTS.md, "One routed-entry
// log").
func (e *Engine) fullLog(idx *index) int { return e.cfg.BatchSize * len(idx.parts) }

// flushPass takes the whole entry log and dispatches it as batches (see
// cutBatches), so a query's entries — handed over together — leave in the
// same pass. reason says what started the pass and what it requires of
// the log: the flusher's tick (dispatchTimeout) that its oldest entry has
// waited BatchTimeout, a worker's kick (dispatchFull) that it is still
// full, an explicit flush (dispatchFlush) nothing. The flusher runs its
// passes one at a time; explicit flushes run on their callers' goroutines
// beside them. Each dispatch may block for a stream, and the entries
// routed meanwhile are the next pass's: under saturation the stream pool,
// not the timer, sets how many queries a pass finds per partition for the
// kernel to amortise a group's column loads over.
func (e *Engine) flushPass(idx *index, reason dispatchReason) {
	lg := &idx.log
	lg.mu.Lock()
	due := len(lg.entries) > 0
	switch reason {
	case dispatchTimeout:
		due = due && time.Since(lg.opened) >= e.cfg.BatchTimeout
	case dispatchFull:
		due = due && len(lg.entries) >= e.fullLog(idx)
	}
	if !due {
		lg.mu.Unlock()
		return
	}
	// The pass's scratch brings the emptied buffer of an earlier pass for
	// the log to refill, and takes the log's away.
	sc := e.pools.getPass()
	sc.entries, lg.entries = lg.entries, sc.entries[:0]
	opened := lg.opened
	lg.mu.Unlock()

	e.cutBatches(idx, sc, opened, func(b *openBatch) { e.dispatch(idx, b, reason) })

	clear(sc.entries) // drop the query refs; they recycle independently
	e.pools.putPass(sc)
}

// cutBatches counting-sorts the taken log, sc.entries, by partition and
// cuts the result into batches of at most BatchSize entries, one segment
// per run of a partition's entries; emit receives each batch as it fills,
// so the copy → kernel → copy sequence is paid per BatchSize routed
// entries whatever the fan-out spread them over. A run that does not fit
// the remainder of a batch continues in the next one. The batches go
// device by device, each holding partitions of one device.
func (e *Engine) cutBatches(idx *index, sc *passScratch, opened time.Time, emit func(*openBatch)) {
	entries := sc.entries
	// ends[pid] counts the partition's entries, then is where its run
	// starts in the sorted order, and after the scatter where it ends —
	// the start of the next partition's.
	ends := slices.Grow(sc.ends[:0], len(idx.parts))[:len(idx.parts)]
	clear(ends)
	for _, en := range entries {
		ends[en.pid]++
	}
	pos := int32(0)
	for pid, n := range ends {
		ends[pid] = pos
		pos += n
	}
	queries := slices.Grow(sc.queries[:0], len(entries))[:len(entries)]
	for _, en := range entries {
		queries[ends[en.pid]] = en.q
		ends[en.pid]++
	}
	sc.ends, sc.queries = ends, queries

	devs := max(1, len(idx.devices))
	var cur *openBatch
	for d := 0; d < devs; d++ {
		start := 0
		for pid, end := range ends {
			at, n := start, int(end)-start
			start = int(end)
			if n == 0 || devs > 1 && idx.parts[pid].dev != d {
				continue
			}
			for n > 0 {
				if cur == nil {
					cur = e.pools.getBatch(e.cfg.BatchSize, opened)
				}
				first := len(cur.queries)
				take := min(e.cfg.BatchSize-first, n)
				cur.segs = append(cur.segs, segment{pid: uint32(pid), first: first, n: take})
				cur.queries = append(cur.queries, queries[at:at+take]...)
				for i, q := range queries[at : at+take] {
					cur.sigs = append(cur.sigs, q.sig)
					if q.ctx != nil {
						cur.deadlined = true
					}
					if q.trace != nil {
						q.trace.Event("batch", int32(pid), int64(first+i+1))
					}
				}
				if c := e.partCounters(uint32(pid)); c != nil {
					c.QueriesRouted.Add(int64(take))
				}
				at, n = at+take, n-take
				if len(cur.queries) == e.cfg.BatchSize {
					emit(cur)
					cur = nil
				}
			}
		}
		if cur != nil {
			emit(cur)
			cur = nil
		}
	}
	clear(queries) // drop the query refs; they recycle independently
}

// flusher runs the passes nobody asked for, one at a time: on every tick
// at which the log's oldest entry has waited BatchTimeout (§3,
// "configurable timeout period"; no ticks without a timeout), and on a
// worker's kick while the log is full ("until full").
func (e *Engine) flusher() {
	defer close(e.flushDone)
	var tick <-chan time.Time
	if e.cfg.BatchTimeout > 0 {
		t := time.NewTicker(flushTick(e.cfg.BatchTimeout))
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-e.flushStop:
			return
		case <-tick:
			e.flushPass(e.idx.Load(), dispatchTimeout)
		case <-e.flushKick:
			e.flushPass(e.idx.Load(), dispatchFull)
		}
	}
}

// flushTick is the flusher's period: a quarter of the timeout, at least
// a millisecond. On an idle engine an entry leaves within BatchTimeout
// plus one tick of being handed over.
func flushTick(timeout time.Duration) time.Duration {
	return max(timeout/4, time.Millisecond)
}

// dispatchReason records what started the flush pass a batch left in: the
// kick of the worker that filled the log, the flusher's tick, or an
// explicit flush (await: Drain, a blocking Match, SubmitWait, Close).
type dispatchReason uint8

const (
	dispatchFull dispatchReason = iota
	dispatchTimeout
	dispatchFlush
)

// dispatch runs the subset-match stage for one dispatched batch: on a
// GPU stream when devices are configured, otherwise synchronously on the
// calling CPU thread (CPU-only TagMatch). Batches carrying deadlined
// queries are swept first: entries whose deadline already passed
// complete with ErrDeadlineExceeded here, before any device work, and a
// batch left empty by the sweep is cancelled outright — it never counts
// as dispatched and never reaches a kernel launch.
func (e *Engine) dispatch(idx *index, b *openBatch, reason dispatchReason) {
	if b.deadlined {
		if b = e.sweepExpired(b); b == nil {
			return
		}
		for _, q := range b.queries {
			if q.ctx == nil {
				b.ctxs = b.ctxs[:0] // a ctx-less member can never expire
				break
			}
			b.ctxs = append(b.ctxs, q.ctx)
		}
	}
	// Mark each entry with the first entry of the same query. The stamp is
	// unique to this dispatch, and a query's batches may be dispatched by
	// several goroutines at once: one overwriting another's stamp only
	// makes a repeat look like a first occurrence, which splits that
	// query's per-batch work in two and nothing else.
	stamp := e.dispatchSeq.Add(1) << 8
	b.dup = b.dup[:0]
	for i, q := range b.queries {
		if v := q.stamp.Load(); v&^0xff == stamp {
			b.dup = append(b.dup, uint8(v))
			continue
		}
		q.stamp.Store(stamp | uint64(i))
		b.dup = append(b.dup, uint8(i))
	}
	e.obs.Flow.Batches.Add(1)
	e.inflightBatches.Add(1)
	if reason == dispatchTimeout {
		e.obs.Flow.BatchesTimedOut.Add(1)
	}
	e.obs.Streams.SegmentsPerBatch.Observe(int64(len(b.segs)))
	b.dispatched = time.Now()
	if e.obs.On {
		e.obs.BatchOccupancy.Observe(int64(len(b.queries)))
		for _, sg := range b.segs {
			c := e.obs.Parts.Get(sg.pid)
			if c == nil {
				continue // the index was swapped mid-flight
			}
			switch reason {
			case dispatchFull:
				c.BatchesFull.Add(1)
			case dispatchTimeout:
				c.BatchesTimedOut.Add(1)
			default:
				c.BatchesFlushed.Add(1)
			}
		}
		wait := b.dispatched.Sub(b.created)
		e.obs.BatchWait.ObserveDuration(wait)
		if e.obs.Tracing() {
			for i, q := range b.queries {
				if int(b.dup[i]) == i {
					q.trace.Span("batch-wait", "query", b.created, wait, 0,
						int32(b.segOf(i).pid), "", -1, int64(len(b.queries)))
				}
			}
		}
	}
	b.refs.Store(1) // the reduce-stage hold, dropped by reduceOne
	if len(idx.devices) == 0 {
		e.cpuDispatch(idx, b, false)
		return
	}
	e.gpuDispatch(idx, b)
}

// segOf returns the segment holding entry i.
func (b *openBatch) segOf(i int) segment {
	for _, sg := range b.segs {
		if i < sg.first+sg.n {
			return sg
		}
	}
	panic("segOf: entry beyond the last segment")
}

// sweepExpired completes every already-expired entry's query with
// ErrDeadlineExceeded and compacts the batch in place, entries across
// segment boundaries and the segment table with them (a segment left
// empty is dropped). Returns nil when every entry expired: the batch is
// cancelled — recycled without ever counting as dispatched — which pins
// the invariant that expired queries never reach a kernel launch.
// Surviving deadline-carrying queries record their remaining slack (the
// headroom the batching stages left for the device) in the DeadlineSlack
// histogram.
func (e *Engine) sweepExpired(b *openBatch) *openBatch {
	now := time.Now()
	keepQ, keepS, keepSeg := b.queries[:0], b.sigs[:0], b.segs[:0]
	for _, sg := range b.segs {
		first := len(keepQ)
		for i := sg.first; i < sg.first+sg.n; i++ {
			q := b.queries[i]
			if q.lapsed(now) {
				q.expire(e, q.expiryCause())
				q.finish(e, 1) // drop this entry's reference
				continue
			}
			if e.obs.On && !q.deadline.IsZero() {
				slack := q.deadline.Sub(now)
				e.obs.DeadlineSlack.ObserveDuration(slack)
				if q.trace != nil {
					q.trace.Event("deadline-slack-dispatch", int32(sg.pid), int64(slack))
				}
			}
			keepQ = append(keepQ, q)
			keepS = append(keepS, b.sigs[i])
		}
		if n := len(keepQ) - first; n > 0 {
			keepSeg = append(keepSeg, segment{pid: sg.pid, first: first, n: n})
		}
	}
	if len(keepQ) == 0 {
		e.obs.Faults.BatchesCancelled.Add(1)
		e.pools.putBatch(b)
		e.notifyProgress()
		return nil
	}
	// Clear the compaction tail so dropped query refs don't linger in
	// the batch's backing array until its next recycle.
	clear(b.queries[len(keepQ):])
	b.queries, b.sigs, b.segs = keepQ, keepS, keepSeg
	return b
}

// cpuDispatch forwards the batch to the reduce stage for a host-side
// subset match, racing any concurrent attempt through the settle CAS.
func (e *Engine) cpuDispatch(idx *index, b *openBatch, hedge bool) {
	res := e.pools.getResult()
	res.idx, res.batch, res.kind = idx, b, payloadCPU // reduce runs the CPU match
	e.deliverResult(b, res, hedge)
}

// gpuDispatch issues the copy/launch/copy sequence on an acquired stream
// (§3.3.2). All operations are asynchronous; the final stream callback
// hands the results to the reduce stage and releases the stream. The
// sampled traces of the batch are captured once here — before any
// concurrent attempt exists — and threaded through retries and hedges,
// which must not re-read b.queries (the reduce stage recycles queries
// as soon as the winning attempt lands).
func (e *Engine) gpuDispatch(idx *index, b *openBatch) {
	var traced []*obs.Trace
	if e.obs.Tracing() {
		for i, q := range b.queries {
			if q.trace != nil && int(b.dup[i]) == i {
				traced = append(traced, q.trace)
			}
		}
	}
	e.batchRef(b)
	idx.dispatching.Add(1)
	e.gpuDispatchAttempt(idx, b, 0, traced)
}

// batchRef and batchUnref count the attachments that may still touch an
// openBatch: the reduce-stage hold, each in-flight attempt chain, and
// an armed hedge timer. A losing attempt can outlive the reduce, so the
// last detacher recycles the batch.
func (e *Engine) batchRef(b *openBatch) { b.refs.Add(1) }

func (e *Engine) batchUnref(b *openBatch) {
	if n := b.refs.Add(-1); n == 0 {
		e.pools.putBatch(b)
	} else if n < 0 {
		panic("batchUnref: negative refcount")
	}
}

// settleBatch claims the exclusive right to complete the batch: exactly
// one attempt — primary chain or hedge — wins the CAS, so every batch
// reaches the reduce stage exactly once across racing attempts. The
// winner also disarms the straggler budget timer; when the timer is
// stopped before firing, its batch reference and its hold on idx's
// dispatching fence are released on its behalf. Every attempt of a
// batch runs against the one index its dispatch chain started with,
// which is the index the timer holds.
func (e *Engine) settleBatch(idx *index, b *openBatch) bool {
	if !b.settled.CompareAndSwap(false, true) {
		return false
	}
	if t := b.hedgeTimer; t != nil && t.Stop() {
		idx.dispatching.Done()
		e.batchUnref(b)
	}
	if e.hedgingEnabled() && idx.slots != nil {
		// The rival attempt may be parked waiting for a stream slot the
		// batch no longer needs.
		idx.slots.wake()
	}
	return true
}

// deliverResult forwards one completed attempt's result to the reduce
// stage if the attempt settled the batch, or discards it when the rival
// attempt already won the race.
func (e *Engine) deliverResult(b *openBatch, res *batchResult, hedge bool) {
	if e.settleBatch(res.idx, b) {
		if hedge {
			e.obs.Faults.HedgesWon.Add(1)
		}
		e.reduceCh <- res
		return
	}
	if hedge {
		e.obs.Faults.HedgesLost.Add(1)
	}
	e.pools.putResult(res)
}

// hedgingEnabled reports whether Config.HedgeAfter arms straggler
// budgets on GPU dispatches.
func (e *Engine) hedgingEnabled() bool { return e.cfg.HedgeAfter > 0 }

// maybeHedge fires when a batch's first device attempt has held a
// stream for HedgeAfter: if the batch still has not settled, it is
// re-run on the host, racing the straggler. The host is the only other
// holder of the batch's partitions — their owning device is the
// straggler, and a second attempt queued behind it there is what a
// hedge exists to avoid. The settle CAS keeps completion exactly-once;
// the loser's results are discarded. Runs on the budget timer's
// goroutine, holding the batch reference and index dispatching hold
// taken when the timer was armed.
func (e *Engine) maybeHedge(idx *index, b *openBatch, primary int, traced []*obs.Trace) {
	defer idx.dispatching.Done()
	if b.settled.Load() || e.closed.Load() {
		e.obs.Faults.HedgesCancelled.Add(1)
		e.batchUnref(b)
		return
	}
	e.obs.Faults.HedgesFired.Add(1)
	e.log.Debug("hedging straggler batch",
		"segments", len(b.segs), "entries", len(b.sigs),
		"primary", e.deviceName(primary))
	// The "hedge" span runs from dispatch to the budget firing: the
	// stream-acquire wait plus HedgeAfter, so the timeline shows how long
	// the straggler was tolerated.
	now := time.Now()
	for _, tr := range traced {
		tr.Span("hedge", "query", b.dispatched, 0, now.Sub(b.dispatched),
			-1, "", -1, int64(primary))
		tr.Event("hedge-fired", -1, int64(primary))
		tr.Degrade("hedged")
	}
	// Not a fault fallback: only the hedge counters move.
	e.cpuDispatch(idx, b, true)
	e.batchUnref(b) // the timer's own hold
}

// gpuDispatchAttempt runs one GPU attempt for the batch on its
// partitions' device. attempt 0 is the initial dispatch; a failed attempt
// is retried once (attempt 1) on a stream of that device, and a
// second failure — or no usable stream at all — re-runs the batch on the
// host, so every batch reaches the reduce stage exactly once no matter
// how the devices behave. The caller has taken one batch reference and
// one index dispatching hold for the chain; every terminal path of the
// chain releases both exactly once.
func (e *Engine) gpuDispatchAttempt(idx *index, b *openBatch, attempt int, traced []*obs.Trace) {
	sl := e.acquireStream(idx, b)
	if sl == nil {
		e.fallbackCPU(idx, b, traced)
		e.batchUnref(b)
		idx.dispatching.Done()
		return
	}
	dev := sl.dev
	nQ := len(b.sigs)

	// Point the stream at this batch's sampled traces before any operation
	// is enqueued (every op carries the stream as its attribution tag).
	// The traces were captured at dispatch time (gpuDispatch), NOT re-read
	// from b.queries: on a retry or hedge the rival attempt may already
	// have settled the batch and recycled its queries.
	sl.traced = append(sl.traced[:0], traced...)
	sl.res, sl.fault = nil, nil

	// Arm the straggler budget on the primary chain's first attempt, once
	// it holds a stream and before any operation is enqueued (the
	// enqueue's channel send publishes the timer to the settling
	// callback). The budget thus excludes the stream-acquire wait: a
	// batch queued behind busy streams is not a straggler. The timer
	// holds its own batch reference and dispatching fence hold; whoever
	// resolves it — the budget firing, or a settle stopping it first —
	// releases them. The timer is created inert and started with Reset
	// only after b.hedgeTimer is assigned: AfterFunc with the real budget
	// could fire — and lead the hedge to read b.hedgeTimer in settleBatch
	// — before the assignment of its own return value completes.
	if attempt == 0 && e.hedgingEnabled() {
		e.batchRef(b)
		idx.dispatching.Add(1)
		t := time.AfterFunc(time.Hour, func() {
			e.maybeHedge(idx, b, dev, traced)
		})
		b.hedgeTimer = t
		t.Reset(e.cfg.HedgeAfter)
	}

	// Query upload: the entries' signatures go into the stream's qbuf as
	// they stand in the batch, so entry i reads signature i. (Uploading a
	// signature once per device, or once per batch, and pointing its
	// entries at it saves bus bytes and costs more host time than it
	// saves: EXPERIMENTS.md, "Query window and stream depth: verdict".)
	nTab := len(b.segs) * segWords
	sl.tabHost = growU32(sl.tabHost, nTab)
	e.obs.Streams.QuerySlots.Add(int64(nQ))
	e.obs.Streams.H2DQueryBytes.Add(int64(nQ*sigBytes + nTab*4))
	args := &sl.args
	*args = batchArgs{
		sigs: sl.qbuf, tab: sl.tab, nSeg: len(b.segs),
		hdr: sl.hdr, pairs: sl.pairs, maxPairs: e.cfg.maxPairsPerBatch,
		prefilter: !e.cfg.DisablePrefilter, pfs: args.pfs[:0], kc: &e.obs.Kernel,
	}

	// Segment table: which of the batch's entries each segment holds,
	// which thread blocks of the launch serve it (one 64-set group per
	// thread), and where its partition's groups and run nodes lie on the
	// device (see partition.devOff).
	blocks := 0
	for si, sg := range b.segs {
		p := &idx.parts[sg.pid]
		blocks += segBlocks(int(p.n), e.cfg.blockDim)
		row := sl.tabHost[si*segWords:][:segWords]
		row[segBlockEnd] = uint32(blocks)
		row[segFirst], row[segCount] = uint32(sg.first), uint32(sg.n)
		row[segOff], row[segLen] = p.devOff, p.nGroups()
		row[segBase] = p.off
		row[segRunOff], row[segRunLen] = p.devRunOff, p.nRuns
		if e.obs.On {
			args.pfs = append(args.pfs, e.obs.Parts.Get(sg.pid))
		}
	}
	grid := gpu.Grid{Blocks: blocks, BlockDim: e.cfg.blockDim}
	kernel := slicedMatchKernel(args, idx.devShards[dev])
	e.obs.Kernel.SlicedBatches.Add(1)

	// The batch's stream operations: two uploads (signatures; segment
	// table), the launch with the device-side header reset fused
	// in (LaunchZeroedAsync — the cudaMemsetAsync that used to be a
	// separate tiny H2D copy rides in the kernel prologue), and the result
	// transfer in the packed layout (§3.3.1). The header callback reads
	// the device-side length for free and stages the outcome on the
	// stream; the gated copy then resolves its exact-size destination at
	// the FIFO head and transfers asynchronously. Nothing here blocks the
	// executor.
	gpu.CopyToDeviceAsync(sl.stream, sl.qbuf, 0, b.sigs, sl)
	gpu.CopyToDeviceAsync(sl.stream, sl.tab, 0, sl.tabHost[:nTab], sl)
	sl.stream.LaunchZeroedAsync(grid, sl.hdr, resHeaderWords, kernel, sl)
	sl.stream.CallbackErr(func(opErr error) {
		if opErr != nil {
			sl.fault = opErr
			return
		}
		rawCount := atomic.LoadUint32(&sl.hdr.Data()[0])
		rawOver := atomic.LoadUint32(&sl.hdr.Data()[1])
		count, overflow := clampCount(rawCount, rawOver, e.cfg.maxPairsPerBatch)
		res := e.pools.getResult()
		res.idx, res.batch, res.count, res.overflow = idx, b, count, overflow
		if !overflow {
			res.kind = payloadPacked // payloadCPU (re-run on host) on overflow
		}
		sl.res = res
	})
	gpu.CopyFromDeviceGated(sl.stream, sl.pairs, func() ([]byte, int) {
		res := sl.res
		if res == nil || res.overflow || res.count == 0 {
			return nil, 0
		}
		res.packed = growBytes(res.packed, ((res.count+3)/4)*bytesPerGroup)
		return res.packed, 0
	}, sl)
	// The batch's final stream callback: it consumes the result-transfer
	// segment's error, takes the outcome staged on the stream by the
	// header callback, returns the stream to the pool, and routes to the
	// reduce stage or the fault machinery. Every terminal path of the
	// attempt chain runs through here exactly once.
	sl.stream.CallbackErr(func(opErr error) {
		res, fault := sl.res, sl.fault
		sl.res, sl.fault = nil, nil
		if fault == nil {
			fault = opErr
		}
		if fault != nil {
			if res != nil {
				e.pools.putResult(res)
			}
			idx.slots.put(sl)
			e.batchFault(idx, b, dev, attempt, traced, fault)
			return
		}
		// Success is recorded before the stream is pooled, so a dispatcher
		// the put wakes already sees a recovered device as usable.
		e.recordDeviceSuccess(dev)
		idx.slots.put(sl)
		e.deliverResult(b, res, false)
		e.batchUnref(b)
		idx.dispatching.Done()
	})
}

// batchFault handles a batch whose GPU attempt failed (copy, launch, or
// result-transfer error, including a dead device): instead of panicking,
// the failure is charged to the device's circuit breaker and the batch
// is retried once on the same device, then — on a second failure, or
// with the device quarantined — re-run on the host through the same
// payloadCPU mechanism as a result-buffer overflow, so no submitted
// query is ever lost. The caller has already released the stream; the
// retry runs on a fresh goroutine (inheriting this chain's batch
// reference and dispatching hold) because this method executes on the
// stream's executor goroutine, which must not block on stream
// acquisition.
func (e *Engine) batchFault(idx *index, b *openBatch, dev, attempt int, traced []*obs.Trace, err error) {
	e.obs.Faults.GPUFaults.Add(1)
	e.recordDeviceFailure(dev, err)
	if b.settled.Load() {
		// A hedge already settled the batch: a retry would only burn
		// device time re-computing a delivered result.
		e.batchUnref(b)
		idx.dispatching.Done()
		return
	}
	for _, tr := range traced {
		tr.Degrade("gpu-fault")
	}
	if attempt == 0 {
		e.obs.Faults.BatchRetries.Add(1)
		go e.gpuDispatchAttempt(idx, b, 1, traced)
		return
	}
	e.fallbackCPU(idx, b, traced)
	e.batchUnref(b)
	idx.dispatching.Done()
}

// fallbackCPU re-runs a batch on the host after the GPU path gave up on
// it (device failures, quarantine, no usable stream).
func (e *Engine) fallbackCPU(idx *index, b *openBatch, traced []*obs.Trace) {
	e.obs.Faults.CPUFallbacks.Add(1)
	e.log.Debug("batch falling back to CPU",
		"segments", len(b.segs), "entries", len(b.sigs))
	for _, tr := range traced {
		tr.Degrade("cpu-fallback")
	}
	e.cpuDispatch(idx, b, false)
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

// clampCount interprets the kernel's pair counter and overflow flag.
func clampCount(raw, overflowFlag uint32, maxPairs int) (int, bool) {
	if overflowFlag != 0 || int(raw) > maxPairs {
		return 0, true
	}
	return int(raw), false
}

// reduceWorker implements the key lookup/reduce stage (§3.4): decode
// (query, set) pairs, look up the keys of each set, and append them to
// the owning query, completing queries whose last batch this was.
func (e *Engine) reduceWorker() {
	defer e.reduceWg.Done()
	pprof.Do(context.Background(), pprof.Labels("stage", "reduce"), func(context.Context) {
		for res := range e.reduceCh {
			e.reduceOne(res)
		}
	})
}

// observeGPUOp is the per-stream OnOp observer: it feeds the completed
// device operation into the op-kind histograms and attaches a span to
// every sampled trace of the issuing batch. With pipelined dispatch a
// stream interleaves ops of several batches, so the issuing slot rides
// on the op's attribution tag rather than on per-stream state. Runs on
// the stream's executor goroutine.
func (e *Engine) observeGPUOp(r gpu.OpRecord) {
	if !e.obs.On {
		return
	}
	if h := e.obs.GPUOpHist(r.KindName()); h != nil {
		h.Observe(r.Wait(), r.Service())
	}
	sl, _ := r.Tag.(*streamSlot)
	if sl == nil {
		return
	}
	for _, tr := range sl.traced {
		n := r.Bytes
		if r.Kind == gpu.OpKernel {
			n = int64(r.Blocks)
		}
		tr.Span(r.KindName(), obs.StageSubsetMatch, r.Enqueue, r.Wait(), r.Service(),
			-1, r.Device, r.Stream, n)
	}
}

func (e *Engine) reduceOne(res *batchResult) {
	idx := res.idx
	b := res.batch
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
	sc := e.pools.getScratch(len(b.queries))
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

	switch res.kind {
	case payloadCPU:
		// GPU result buffer overflowed (or CPU-only mode): run the
		// batch's subset match on the host for correctness, segment by
		// segment — the device kernel's matchSpan, so counters and pairs
		// hold across fallbacks.
		if res.overflow {
			e.obs.Flow.Overflows.Add(1)
		}
		e.obs.Kernel.SlicedBatches.Add(1)
		for _, sg := range b.segs {
			p := &idx.parts[sg.pid]
			pc := e.partCounters(sg.pid)
			if res.overflow && pc != nil {
				pc.Overflows.Add(1)
			}
			groups, runs := idx.slicedPart(sg.pid)
			cpuMatchBatchSliced(groups, runs, int(p.off), b.sigs[sg.first:sg.first+sg.n], uint8(sg.first),
				!e.cfg.DisablePrefilter, &sc.span, pc, &e.obs.Kernel, visit)
		}
	case payloadPacked:
		decodePacked(res.packed, res.count, visit)
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
				// missing only the scratch-recycle tail.
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
	e.pools.putScratch(sc)
	// Drop the reduce-stage hold; a losing hedge-race attempt may still
	// be running, in which case the last detacher recycles the batch.
	e.batchUnref(b)
	e.pools.putResult(res)
	e.inflightBatches.Add(-1)
	e.notifyProgress()
}
