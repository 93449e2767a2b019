package core

import (
	"context"
	"sync"
	"time"
)

// slotPool holds an index's idle streams. A stream carries one batch at a
// time, so a dispatcher takes a stream for the whole attempt; one that
// finds no usable stream blocks until one is returned, or until
// something else changes what it is waiting for — the engine closing, a
// rival attempt settling its batch, its queries' contexts ending — each
// of which calls wake. The pool is the engine's batching governor: while
// every stream is busy the flush pass is parked here, and the entry log
// keeps filling for the next one.
type slotPool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	free    []*streamSlot // oldest first, so streams and devices take turns
	waiters int
}

func newSlotPool(capacity int) *slotPool {
	p := &slotPool{free: make([]*streamSlot, 0, capacity)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// put returns a slot and wakes the waiting dispatchers (all of them:
// the slot may suit only some).
func (p *slotPool) put(sl *streamSlot) {
	p.mu.Lock()
	p.free = append(p.free, sl)
	if p.waiters > 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// wake makes every waiting dispatcher re-evaluate its giveUp condition.
// Taking the lock orders the caller's state change before the waiters'
// next check, so a wake-up cannot be lost between check and wait.
func (p *slotPool) wake() {
	p.mu.Lock()
	if p.waiters > 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// idle returns the number of pooled slots.
func (p *slotPool) idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// take removes and returns the pooled slot pick selects (by index into
// the idle list; negative for none). With nothing to pick it returns nil
// if giveUp says so — or if block is false — and otherwise waits for the
// next put or wake. pick and giveUp run under the pool lock.
func (p *slotPool) take(pick func(free []*streamSlot) int, giveUp func() bool, block bool) *streamSlot {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if i := pick(p.free); i >= 0 {
			sl := p.free[i]
			copy(p.free[i:], p.free[i+1:])
			p.free[len(p.free)-1] = nil
			p.free = p.free[:len(p.free)-1]
			return sl
		}
		if !block || giveUp() {
			return nil
		}
		p.waiters++
		p.cond.Wait()
		p.waiters--
	}
}

// acquireStream pulls a dispatch slot whose device is healthy (or due a
// recovery probe), preferring devices other than avoid — the device of a
// failed prior attempt. It blocks while every usable slot is checked
// out, and returns nil — the caller then re-runs the batch on the host —
// when no device can serve the batch at all, or when waiting has become
// pointless: the engine is closing, the batch has already settled (a
// rival hedge attempt delivered), or every member query's context has
// ended. Unusable slots stay pooled, so quarantining never shrinks the
// pool itself.
func (e *Engine) acquireStream(idx *index, b *openBatch, avoid int) *streamSlot {
	t0 := time.Now()
	defer func() { e.obs.Streams.AcquireWait.ObserveDuration(time.Since(t0)) }()

	var pick func(free []*streamSlot) int
	var giveUp func() bool
	if !e.cfg.Replicate {
		// Partitioned placement binds the batch's partitions to one
		// device; there is no alternative device to retry on.
		dev := idx.parts[b.segs[0].pid].dev
		if e.acquireAbandoned(b) || !e.deviceUsable(dev) {
			return nil
		}
		// A usable quarantined device means deviceUsable elected this
		// batch as the recovery probe; the probe must dispatch, so it
		// waits out the slot unconditionally.
		probe := e.health[dev].quarantined.Load()
		giveUp = func() bool { return !probe && e.acquireAbandoned(b) }
		pick = func(free []*streamSlot) int {
			for i, sl := range free {
				if sl.dev == dev {
					return i
				}
			}
			return -1
		}
	} else {
		// Replicate mode: the oldest idle slot of a usable device other
		// than avoid, else of the avoided device (a single-device engine
		// retries on another slot of the same GPU). With every device
		// quarantined there is nothing to wait for.
		giveUp = func() bool { return e.acquireAbandoned(b) || e.allDevicesQuarantined() }
		pick = func(free []*streamSlot) int {
			fallback := -1
			for i, sl := range free {
				d := sl.dev
				if !e.deviceUsable(d) {
					continue
				}
				// A usable quarantined device means deviceUsable elected
				// this batch as its recovery probe: dispatch there even if
				// it is the avoided device, or the probe would leak.
				if d != avoid || e.health[d].quarantined.Load() {
					return i
				}
				if fallback < 0 {
					fallback = i
				}
			}
			return fallback
		}
	}
	if sl := idx.slots.take(pick, giveUp, false); sl != nil {
		return sl
	}
	// About to wait: have the end of any member context re-evaluate the
	// wait (b.ctxs is non-empty only when every member carries one).
	for _, ctx := range b.ctxs {
		stop := context.AfterFunc(ctx, idx.slots.wake)
		defer stop()
	}
	return idx.slots.take(pick, giveUp, true)
}

// allDevicesQuarantined reports whether no device can currently serve
// batches at all; acquireStream stops waiting for pooled slots then
// (the scan itself still lets recovery probes through, because
// deviceUsable elects them while the pool is inspected).
func (e *Engine) allDevicesQuarantined() bool {
	for d := range e.health {
		if !e.health[d].quarantined.Load() {
			return false
		}
	}
	return true
}

// acquireAbandoned reports whether a stream acquisition should give up:
// the engine is closing, a rival attempt has settled the batch, or every
// member query's context has ended. The expiry check reads the context
// snapshot captured at dispatch, not b.queries — after a rival settles,
// the reduce stage recycles the query structs while this attempt is
// still running, but a context value stays valid forever.
func (e *Engine) acquireAbandoned(b *openBatch) bool {
	if e.closed.Load() || b.settled.Load() {
		return true
	}
	if len(b.ctxs) == 0 {
		return false
	}
	for _, ctx := range b.ctxs {
		if ctx.Err() == nil {
			return false
		}
	}
	return true
}
