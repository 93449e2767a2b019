package core

import (
	"slices"
	"sync"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/obs"
)

// This file is the log and the cut between pre-process and subset match:
// the routed entries of an index generation wait in its log until a flush
// pass takes them and cuts them into batches for dispatch (dispatch.go).

// routedEntry is one (partition, query) pair of a query's fan-out.
type routedEntry struct {
	pid uint32
	q   *query
}

// entryLog is an index generation's routed-entry log: the entries routed
// and not yet taken by a flush pass, in hand-over order. Workers append
// whole runs under mu; a pass takes the whole log and leaves the emptied
// buffer of an earlier pass in its place (see passScratch).
type entryLog struct {
	mu      sync.Mutex
	entries []routedEntry
	opened  time.Time // when the oldest entry was handed over
}

// openBatch is a dispatched batch: up to BatchSize routed (query,
// partition) entries of one index generation, cut from its entry log by a
// flush pass, each partition's run of entries one segment. queries and
// sigs are indexed by entry: a query routed to k of the batch's partitions
// appears k times. The batch carries itself from the flush pass through
// its attempt chain to the reduce stage, and its outcome with it.
type openBatch struct {
	idx        *index // the generation the entries were routed against
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
	// context, so dispatch runs the expiry sweep and stream acquisition
	// watches the contexts; deadline-free traffic pays nothing.
	deadlined bool

	// The outcome of the subset match, which reduce reads. A batch has at
	// most one attempt in flight: a device attempt's header callback sets
	// count, overflow and host, or fault when the attempt failed, and the
	// attempt's final callback hands the batch on; cpuDispatch resets all
	// of it for a run on the host, so no attempt inherits an earlier one's.
	count    int    // pairs in packed
	overflow bool   // the device's result buffer overflowed (host is set)
	host     bool   // reduce runs the subset match on the host
	packed   []byte // the packed pairs; the backing array survives reuse
	fault    error  // the device attempt's error
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

// eachTrace calls f with the sampled trace of each of the batch's
// queries, once per query.
func (b *openBatch) eachTrace(f func(*obs.Trace)) {
	for i, q := range b.queries {
		if q.trace != nil && int(b.dup[i]) == i {
			f(q.trace)
		}
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

	e.cutBatches(idx, sc, opened, func(b *openBatch) { e.dispatch(b, reason) })

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
					cur.idx = idx
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
