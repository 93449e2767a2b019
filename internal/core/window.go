package core

import (
	"sort"
	"sync"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// Per-device query window: a device-resident ring of query signatures
// shared by every stream of the device. A query routed to k partitions
// used to re-upload its 24-byte signature k times — once per
// per-partition batch; the window uploads each unique signature once
// and lets batches carry 4-byte indices into the ring instead,
// collapsing the fan-out-multiplied H2D traffic (the copy tax the
// paper's §3.3 workflow optimizations target from the other side).
//
// Slot protocol. A window slot is free, pending, or ready:
//
//   - free: no content; allocatable.
//   - pending: one in-flight attempt has claimed the slot and enqueued
//     (or is about to enqueue) its H2D fill on its own stream. Only
//     that attempt may reference the slot — a concurrent batch on
//     another stream has no ordering edge to the fill, so it allocates
//     a duplicate slot for the same signature instead of sharing.
//   - ready: the fill landed and the uploading kernel completed; any
//     batch may hit the slot.
//
// Slots referenced by a batch are pinned for the lifetime of its
// kernel: eviction requires pins == 0, so a fill for a new signature
// can never overwrite a slot an enqueued-but-unfinished kernel still
// reads. Pins are released — and pending slots promoted to ready (or
// freed, on a faulted segment) — in the batch's header callback, which
// the stream FIFO orders after the kernel.
//
// All state transitions happen under mu, and none of them sends on a
// stream FIFO, so the lock can never participate in a
// dispatcher/executor deadlock.

const (
	winFree uint8 = iota
	winPending
	winReady
)

// maxWindowRuns caps how many contiguous H2D runs one batch may issue
// to fill its window misses. Each run costs a per-op bus overhead;
// past a handful of runs the overhead eats the byte savings and the
// dense per-slot upload is cheaper, so assignment fails over to it.
const maxWindowRuns = 4

// sigBytes is the wire size of one query signature (bitvec.W bits).
const sigBytes = bitvec.Blocks * 8

// winRun is one contiguous ring range an uploading batch fills.
type winRun struct{ off, n int }

// queryWindow is the host-side bookkeeping of one device's signature
// ring.
type queryWindow struct {
	mu     sync.Mutex
	buf    *gpu.Buffer[bitvec.Vector]
	sigs   []bitvec.Vector // host mirror of slot contents
	pins   []int32
	state  []uint8
	owner  []*streamSlot         // dispatch slot whose attempt fills the slot; meaningful while pending
	bySig  map[bitvec.Vector]int // signature → newest slot holding it
	cursor int                   // clock hand of the eviction scan
}

func newQueryWindow(buf *gpu.Buffer[bitvec.Vector]) *queryWindow {
	n := buf.Len()
	return &queryWindow{
		buf:   buf,
		sigs:  make([]bitvec.Vector, n),
		pins:  make([]int32, n),
		state: make([]uint8, n),
		owner: make([]*streamSlot, n),
		bySig: make(map[bitvec.Vector]int, n),
	}
}

// alloc claims a slot for a new fill: the first slot from the clock
// hand that is neither pinned nor pending. Evicting a ready slot drops
// its signature mapping. Returns false when a full scan finds nothing
// — every slot is pinned by in-flight kernels or being filled — in
// which case the batch falls back to the dense upload. Callers hold mu.
func (w *queryWindow) alloc(sct *obs.StreamCounters) (int, bool) {
	n := len(w.sigs)
	for scan := 0; scan < n; scan++ {
		j := w.cursor
		w.cursor++
		if w.cursor == n {
			w.cursor = 0
		}
		if w.pins[j] != 0 || w.state[j] == winPending {
			continue
		}
		if w.state[j] == winReady {
			if cur, ok := w.bySig[w.sigs[j]]; ok && cur == j {
				delete(w.bySig, w.sigs[j])
			}
			sct.WindowEvictions.Add(1)
		}
		return j, true
	}
	return 0, false
}

// assign maps a dispatched batch's entries onto the window, staging
// everything the dispatcher needs on the slot: tabHost gets one ring
// index per entry, winHost/winRuns the coalesced fill payload, and
// winPinned/winUploads the slots whose pins and pending states the
// header callback must resolve. A query routed to k partitions occupies
// k entries of the batch; b.dup names each entry's first occurrence, so
// the 2nd…k-th copy the index already resolved instead of probing the
// map again. Ready slots are hits, as are slots this very attempt is
// filling; anything else allocates a fresh slot (a signature pending
// under a rival attempt is deliberately not shared — see the slot
// protocol above). Returns false — with all bookkeeping rolled back —
// when the ring is exhausted or the fill would fragment into more than
// maxWindowRuns copies.
func (w *queryWindow) assign(sl *streamSlot, b *openBatch, sct *obs.StreamCounters) bool {
	tab := sl.tabHost[:len(b.sigs)]
	sl.winPinned = sl.winPinned[:0]
	sl.winUploads = sl.winUploads[:0]

	w.mu.Lock()
	defer w.mu.Unlock()
	var hits, misses int64
	for i, s := range b.sigs {
		if d := int(b.dup[i]); d != i {
			tab[i] = tab[d] // same query, earlier entry: already pinned
			continue
		}
		if j, ok := w.bySig[s]; ok && (w.state[j] == winReady || w.state[j] == winPending && w.owner[j] == sl) {
			w.pins[j]++
			sl.winPinned = append(sl.winPinned, j)
			tab[i] = uint32(j)
			hits++
			continue
		}
		j, ok := w.alloc(sct)
		if !ok {
			w.rollback(sl)
			return false
		}
		w.sigs[j] = s
		w.state[j] = winPending
		w.owner[j] = sl
		w.pins[j]++
		w.bySig[s] = j
		sl.winUploads = append(sl.winUploads, j)
		sl.winPinned = append(sl.winPinned, j)
		tab[i] = uint32(j)
		misses++
	}

	// Coalesce the fills into contiguous ring runs, staging the payload
	// in upload order in the slot-owned host buffer.
	sort.Ints(sl.winUploads)
	sl.winRuns = sl.winRuns[:0]
	sl.winHost = sl.winHost[:0]
	for _, j := range sl.winUploads {
		sl.winHost = append(sl.winHost, w.sigs[j])
		if nr := len(sl.winRuns); nr > 0 && sl.winRuns[nr-1].off+sl.winRuns[nr-1].n == j {
			sl.winRuns[nr-1].n++
			continue
		}
		if len(sl.winRuns) == maxWindowRuns {
			w.rollback(sl)
			return false
		}
		sl.winRuns = append(sl.winRuns, winRun{off: j, n: 1})
	}
	sct.WindowHits.Add(hits)
	sct.WindowMisses.Add(misses)
	return true
}

// rollback undoes a partial assign. Callers hold mu.
func (w *queryWindow) rollback(sl *streamSlot) {
	for _, j := range sl.winUploads {
		w.state[j] = winFree
		if cur, ok := w.bySig[w.sigs[j]]; ok && cur == j {
			delete(w.bySig, w.sigs[j])
		}
	}
	for _, j := range sl.winPinned {
		w.pins[j]--
	}
	sl.winUploads = sl.winUploads[:0]
	sl.winPinned = sl.winPinned[:0]
	sl.winRuns = sl.winRuns[:0]
	sl.winHost = sl.winHost[:0]
}

// settle resolves an attempt's window bookkeeping from its header
// callback, once the kernel has provably finished (the FIFO orders the
// callback after it) and the segment error is known. On success the
// attempt's fills become ready and shareable; on a faulted segment
// their device content is unknown, so they are freed and unmapped. All
// pins are released either way.
func (w *queryWindow) settle(sl *streamSlot, failed bool) {
	w.mu.Lock()
	for _, j := range sl.winUploads {
		if failed {
			w.state[j] = winFree
			if cur, ok := w.bySig[w.sigs[j]]; ok && cur == j {
				delete(w.bySig, w.sigs[j])
			}
		} else {
			w.state[j] = winReady
		}
	}
	for _, j := range sl.winPinned {
		w.pins[j]--
	}
	sl.winUploads = sl.winUploads[:0]
	sl.winPinned = sl.winPinned[:0]
	sl.winRuns = sl.winRuns[:0]
	w.mu.Unlock()
}
