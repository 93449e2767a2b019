package core

import (
	"sync/atomic"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// This file is the subset-match stage's dispatch and its fault ladder: a
// batch runs on a stream of its partitions' device, is retried there once
// and otherwise re-run on the host, and reaches reduce (reduce.go) exactly
// once.

// streamSlot is a GPU stream with the device buffers and host staging
// of the one batch it carries at a time (§3.3: copy, kernel, copy on one
// of the device's streams): the batch's signatures and segment table,
// the result header and the packed pair buffer. A stream is owned
// exclusively by one attempt from pool acquisition until its final
// callback returns it. Attempts share nothing — a retry uploads
// the batch again on the stream it acquires — which is what keeps a
// faulted segment from touching buffers the retry reads, and the
// stream's FIFO from interleaving two batches' operations and segment
// errors.
//
// All of the staging state is written by the dispatching goroutine before
// the batch's first enqueue (the FIFO send publishes it to the executor);
// the pool handoff orders reuse.
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

// dispatch runs the subset-match stage for one dispatched batch: on a
// GPU stream when devices are configured, otherwise synchronously on the
// calling CPU thread (CPU-only TagMatch). Batches carrying deadlined
// queries are swept first: entries whose deadline already passed
// complete with ErrDeadlineExceeded here, before any device work, and a
// batch left empty by the sweep is cancelled outright — it never counts
// as dispatched and never reaches a kernel launch.
func (e *Engine) dispatch(b *openBatch, reason dispatchReason) {
	if b.deadlined {
		if b = e.sweepExpired(b); b == nil {
			return
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
	if len(b.idx.devices) == 0 {
		e.cpuDispatch(b)
		return
	}
	b.idx.dispatching.Add(1) // released where the attempt chain ends
	e.gpuDispatchAttempt(b, 0)
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
// subset match, resetting whatever outcome a failed device attempt left.
func (e *Engine) cpuDispatch(b *openBatch) {
	b.count, b.overflow, b.host, b.fault = 0, false, true, nil
	e.reduceCh <- b
}

// gpuDispatchAttempt runs one GPU attempt for the batch on its
// partitions' device (§3.3.2): copy, launch and copy, all asynchronous
// on one acquired stream, whose final callback hands the batch to the
// reduce stage and releases the stream. attempt 0 is the initial
// dispatch; a failed attempt is retried once (attempt 1) on a stream of
// that device, and a second failure — or no usable stream at all —
// re-runs the batch on the host, so every batch reaches the reduce stage
// exactly once, through the one terminal path of its chain, no matter
// how the devices behave. At most one attempt of a batch is in flight,
// and nothing recycles b.queries before the batch's reduce, so every
// attempt reads the batch's members directly. The caller has taken one
// index dispatching hold for the chain; its terminal path releases it.
func (e *Engine) gpuDispatchAttempt(b *openBatch, attempt int) {
	idx := b.idx // b is reduce's, and then the pool's, once handed on
	sl := e.acquireStream(b)
	if sl == nil {
		e.fallbackCPU(b)
		idx.dispatching.Done()
		return
	}
	dev := sl.dev
	nQ := len(b.sigs)

	// Point the stream at this batch's sampled traces before any operation
	// is enqueued (every op carries the stream as its attribution tag).
	sl.traced = sl.traced[:0]
	if e.obs.Tracing() {
		b.eachTrace(func(tr *obs.Trace) { sl.traced = append(sl.traced, tr) })
	}
	b.fault = nil // the failed attempt's, on a retry

	// Entry i reads signature i of the stream's qbuf. (Uploading a
	// signature once per batch and pointing its entries at it saves bus
	// bytes and costs more host time than it saves: EXPERIMENTS.md,
	// "Query window and stream depth: verdict".)
	nTab := len(b.segs) * segWords
	sl.tabHost = growU32(sl.tabHost, nTab)
	blocks := fillSegTable(sl.tabHost, idx.parts, b.segs, e.cfg.blockDim)
	e.obs.Streams.QuerySlots.Add(int64(nQ))
	e.obs.Streams.H2DQueryBytes.Add(int64(nQ*sigBytes + nTab*4))
	args := &sl.args
	*args = batchArgs{
		sigs: sl.qbuf, tab: sl.tab, nSeg: len(b.segs),
		hdr: sl.hdr, pairs: sl.pairs, maxPairs: e.cfg.maxPairsPerBatch,
		prefilter: !e.cfg.DisablePrefilter, pfs: args.pfs[:0], kc: &e.obs.Kernel,
	}
	if e.obs.On {
		for _, sg := range b.segs {
			args.pfs = append(args.pfs, e.obs.Parts.Get(sg.pid))
		}
	}
	grid := gpu.Grid{Blocks: blocks, BlockDim: e.cfg.blockDim}
	kernel := slicedMatchKernel(args, idx.devShards[dev])
	e.obs.Kernel.SlicedBatches.Add(1)

	// The batch's stream operations: two uploads (signatures; segment
	// table), the launch with the result header's reset fused into its
	// prologue (LaunchZeroedAsync), and the result transfer in the packed
	// layout (§3.3.1). The header callback reads the device-side length
	// into the batch's outcome; the gated copy then sizes its destination
	// at the FIFO head. Nothing here blocks the executor.
	gpu.CopyToDeviceAsync(sl.stream, sl.qbuf, 0, b.sigs, sl)
	gpu.CopyToDeviceAsync(sl.stream, sl.tab, 0, sl.tabHost[:nTab], sl)
	sl.stream.LaunchZeroedAsync(grid, sl.hdr, resHeaderWords, kernel, sl)
	sl.stream.CallbackErr(func(opErr error) {
		if opErr != nil {
			b.fault = opErr
			return
		}
		hdr := sl.hdr.Data()
		b.count, b.overflow = clampCount(atomic.LoadUint32(&hdr[0]), atomic.LoadUint32(&hdr[1]), e.cfg.maxPairsPerBatch)
		b.host = b.overflow // an overflowed batch re-runs on the host
	})
	gpu.CopyFromDeviceGated(sl.stream, sl.pairs, func() ([]byte, int) {
		if b.fault != nil || b.host || b.count == 0 {
			return nil, 0
		}
		b.packed = growBytes(b.packed, ((b.count+3)/4)*bytesPerGroup)
		return b.packed, 0
	}, sl)
	// The final callback returns the stream to the pool and hands the batch
	// to the reduce stage, or to the fault ladder when the header callback
	// or the transfer failed.
	sl.stream.CallbackErr(func(opErr error) {
		if b.fault == nil {
			b.fault = opErr
		}
		if b.fault != nil {
			idx.slots.put(sl)
			e.batchFault(b, dev, attempt, b.fault)
			return
		}
		// Success is recorded before the stream is pooled, so a dispatcher
		// the put wakes already sees a recovered device as usable.
		e.recordDeviceSuccess(dev)
		idx.slots.put(sl)
		e.reduceCh <- b
		idx.dispatching.Done()
	})
}

// batchFault handles a batch whose GPU attempt failed (copy, launch, or
// result-transfer error, including a dead device): instead of panicking,
// the failure is charged to the device's circuit breaker and the batch
// is retried once on the same device, then — on a second failure, or
// with the device quarantined — re-run on the host like a batch whose
// result buffer overflowed, so no submitted query is ever lost. The
// caller has already released the stream; the retry runs on a fresh
// goroutine (inheriting this chain's dispatching hold) because this
// method executes on the stream's executor goroutine, which must not
// block on stream acquisition.
func (e *Engine) batchFault(b *openBatch, dev, attempt int, err error) {
	e.obs.Faults.GPUFaults.Add(1)
	e.recordDeviceFailure(dev, err)
	b.eachTrace(func(tr *obs.Trace) { tr.Degrade("gpu-fault") })
	if attempt == 0 {
		e.obs.Faults.BatchRetries.Add(1)
		go e.gpuDispatchAttempt(b, 1)
		return
	}
	idx := b.idx
	e.fallbackCPU(b)
	idx.dispatching.Done()
}

// fallbackCPU re-runs a batch on the host after the GPU path gave up on
// it (device failures, quarantine, no usable stream).
func (e *Engine) fallbackCPU(b *openBatch) {
	e.obs.Faults.CPUFallbacks.Add(1)
	e.log.Debug("batch falling back to CPU",
		"segments", len(b.segs), "entries", len(b.sigs))
	b.eachTrace(func(tr *obs.Trace) { tr.Degrade("cpu-fallback") })
	e.cpuDispatch(b)
}

// clampCount interprets the kernel's pair counter and overflow flag.
func clampCount(raw, overflowFlag uint32, maxPairs int) (int, bool) {
	if overflowFlag != 0 || int(raw) > maxPairs {
		return 0, true
	}
	return int(raw), false
}

// observeGPUOp is the per-stream OnOp observer: it feeds the completed
// device operation into the op-kind histograms and attaches a span to
// every sampled trace of the issuing batch, found through the slot the
// op carries as its attribution tag (a stream carries one batch at a
// time). Runs on the stream's executor goroutine.
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
