package core

import (
	"context"
	"slices"
	"sync"
	"time"
)

// slotPool holds an index's idle streams. A stream carries one batch at a
// time, so a dispatcher takes a stream for the whole attempt; one that
// finds no usable stream blocks until one is returned, or until
// something else changes what it is waiting for — the engine closing,
// its queries' contexts ending — each of which calls wake. The pool is
// the engine's batching governor: while every stream is busy the flush
// pass is parked here, and the entry log keeps filling for the next one.
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

// acquireStream pulls a dispatch slot of the device that owns the
// batch's partitions (cutBatches never mixes devices in one batch): the
// only GPU holding them. It blocks while every slot of that device is
// checked out, and returns nil — the caller then re-runs the batch on
// the host — when the device is quarantined and not due a recovery
// probe, or when waiting has become pointless: the engine is closing, or
// every member query's context has ended. Unusable slots stay pooled, so
// quarantining never shrinks the pool itself.
func (e *Engine) acquireStream(b *openBatch) *streamSlot {
	idx := b.idx
	t0 := time.Now()
	defer func() { e.obs.Streams.AcquireWait.ObserveDuration(time.Since(t0)) }()

	dev := idx.parts[b.segs[0].pid].dev
	if e.acquireAbandoned(b) || !e.deviceUsable(dev) {
		return nil
	}
	// A usable quarantined device means deviceUsable elected this batch as
	// the recovery probe; the probe must dispatch, so it waits out the
	// slot unconditionally.
	probe := e.health[dev].quarantined.Load()
	giveUp := func() bool { return !probe && e.acquireAbandoned(b) }
	pick := func(free []*streamSlot) int {
		for i, sl := range free {
			if sl.dev == dev {
				return i
			}
		}
		return -1
	}
	if sl := idx.slots.take(pick, giveUp, false); sl != nil {
		return sl
	}
	// About to wait: have the end of any member context re-evaluate the
	// wait, unless a member carries none and so can never give it up.
	// One registration per query, not per entry: a query routed to k of
	// the batch's partitions holds k entries.
	if b.deadlined && !slices.ContainsFunc(b.queries, func(q *query) bool { return q.ctx == nil }) {
		for i, q := range b.queries {
			if int(b.dup[i]) == i {
				stop := context.AfterFunc(q.ctx, idx.slots.wake)
				defer stop()
			}
		}
	}
	return idx.slots.take(pick, giveUp, true)
}

// acquireAbandoned reports whether a stream acquisition should give up:
// the engine is closing, or every member query's context has ended. The
// members are read from b.queries: they stay the batch's until its
// reduce, which only the attempt chain asking here can start.
func (e *Engine) acquireAbandoned(b *openBatch) bool {
	if e.closed.Load() {
		return true
	}
	if !b.deadlined {
		return false
	}
	for _, q := range b.queries {
		if q.ctx == nil || q.ctx.Err() == nil {
			return false
		}
	}
	return true
}
