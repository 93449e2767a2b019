package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
)

// Tests of multi-partition batches: the exact launch count of a flush
// pass, the kick that starts one without a timeout, the counting sort and
// the cut, the flusher's timing on an idle engine, the deadline sweep
// over segments, and the chaos suite crossing packed batches with every fault
// mechanism, each ending in the drain-time resource checks.

// waitRouted blocks until n queries have been routed and their entries
// handed over to the log. Pre-process workers signal progress after
// every hand-over, so this waits on that event as await does, but
// without await's flush, which would take the log it means to observe.
// The counters are read under drainMu, which a signal takes to wake
// the waiter, so no hand-over goes unseen.
func waitRouted(e *Engine, n int64) {
	r := &e.obs.Routing
	e.drainWaiters.Add(1)
	defer e.drainWaiters.Add(-1)
	e.drainMu.Lock()
	defer e.drainMu.Unlock()
	for r.SlicedQueries.Load() != n || r.MergedAppends.Load() != e.obs.Flow.PartitionsSearched.Load() {
		e.drainCond.Wait()
	}
}

// deviceMem returns each device's memory in use; taken right after a
// consolidate, it is what assertDrained expects to find after the run.
func deviceMem(e *Engine) []int64 {
	mem := make([]int64, len(e.devices))
	for d, dev := range e.devices {
		mem[d] = dev.MemInUse()
	}
	return mem
}

// assertDrained checks that a drained engine holds nothing it borrowed:
// no attempt chain behind the dispatching fence, every pooled query and
// batch recycled, no entry left in the live index's log, every stream
// back in the pool, every device's memory in use what it was right after
// the last consolidate (mem, from deviceMem). A query's completion
// precedes the tail of its last batch's reduce, so the check first
// waits, as Close does, for the batches in flight to land.
func assertDrained(t *testing.T, e *Engine, mem []int64) {
	t.Helper()
	e.await(context.Background(), func() bool { return e.inflightBatches.Load() == 0 })
	idx := e.idx.Load()
	fenced := make(chan struct{})
	go func() { idx.dispatching.Wait(); close(fenced) }()
	select {
	case <-fenced:
	case <-time.After(10 * time.Second):
		t.Fatal("dispatching fence still held 10s after the drain")
	}
	for _, c := range []struct {
		what string
		n    int64
	}{
		{"queries", e.pools.liveQueries.Load()},
		{"batches", e.pools.liveBatches.Load()},
	} {
		if c.n != 0 {
			t.Errorf("%d %s never recycled", c.n, c.what)
		}
	}
	idx.log.mu.Lock()
	logged := len(idx.log.entries)
	idx.log.mu.Unlock()
	if logged != 0 {
		t.Errorf("%d routed entries still in the log after the drain", logged)
	}
	if idx.slots != nil {
		if idle, all := idx.slots.idle(), cap(idx.slots.free); idle != all {
			t.Errorf("%d of %d streams returned to the pool", idle, all)
		}
	}
	for d, now := range deviceMem(e) {
		if now != mem[d] {
			t.Errorf("device %d holds %d bytes after the drain, %d right after the consolidate", d, now, mem[d])
		}
	}
}

// logShape reads the entry log as it stands: entries per owning device
// and the number of distinct partitions.
func logShape(e *Engine) (perDev []int64, parts int) {
	idx := e.idx.Load()
	perDev = make([]int64, max(1, len(idx.devices)))
	seen := map[uint32]bool{}
	idx.log.mu.Lock()
	defer idx.log.mu.Unlock()
	for _, en := range idx.log.entries {
		perDev[idx.parts[en.pid].dev]++
		seen[en.pid] = true
	}
	return perDev, len(seen)
}

// onePlacement names the subtest under which the two-GPU packing tests
// run: every partition lives on its owning device alone, never on a
// replica.
const onePlacement = "replicate=false"

// TestFlushPassLaunchCount: E logged entries over N partitions, taken in
// one pass, cost exactly ⌈E/BatchSize⌉ kernel launches per device — the
// pass cuts batches device by device — and the keys of the brute-force
// reference.
func TestFlushPassLaunchCount(t *testing.T) {
	db := makeTestDB(3000, 5, 2, 101)
	queries := db.makeQueries(40, 102)
	t.Run(onePlacement, func(t *testing.T) {
		const batchSize = 64
		e, err := New(Config{
			MaxPartitionSize: 100, BatchSize: batchSize, Threads: 2,
			GPUs: 2, GPUWorkers: 2, StreamsPerGPU: 2,
			// no BatchTimeout: only the drain flushes
		})
		if err != nil {
			t.Fatal(err)
		}
		devs := e.devices
		defer e.Close()
		db.load(e)
		if err := e.Consolidate(); err != nil {
			t.Fatal(err)
		}
		mem := deviceMem(e)

		got := make([][]Key, len(queries))
		done := make(chan int, len(queries))
		for i, q := range queries {
			if err := e.Submit(context.Background(), Request{Sig: q}, func(r MatchResult) { got[i] = r.Keys; done <- i }); err != nil {
				t.Fatal(err)
			}
		}
		waitRouted(e, int64(len(queries)))
		entries := e.Stats().RouteAppends
		if n := e.obs.Flow.Batches.Load(); n != 0 {
			t.Fatalf("%d batches dispatched before the flush; the fixture must stay under BatchSize entries per partition", n)
		}
		perDev, parts := logShape(e)
		var want, logged int64
		for _, n := range perDev {
			want += (n + batchSize - 1) / batchSize
			logged += n
		}
		if logged != entries {
			t.Fatalf("the log holds %d entries, RouteAppends says %d", logged, entries)
		}
		if int64(parts) <= want {
			t.Fatalf("%d partitions for %d batches: nothing to pack", parts, want)
		}
		launches := func() (n int64) {
			for _, d := range devs {
				n += d.Stats().KernelLaunches
			}
			return n
		}
		before := launches()
		e.Drain()
		for range queries {
			<-done
		}
		if n := launches() - before; n != want {
			t.Fatalf("%d partitions × %d entries flushed in %d launches, want exactly %d",
				parts, entries, n, want)
		}
		st := e.Stats()
		if st.BatchesDispatched != want || st.SegmentsDispatched < int64(parts) {
			t.Fatalf("dispatched %d batches of %d segments, want %d batches of at least %d segments",
				st.BatchesDispatched, st.SegmentsDispatched, want, parts)
		}
		for i, q := range queries {
			keys := append([]Key(nil), got[i]...)
			sortKeysSlice(keys)
			if want := db.expected(q, false); fmt.Sprint(keys) != fmt.Sprint(want) {
				t.Fatalf("query %d: keys %v, want %v", i, keys, want)
			}
		}
		assertDrained(t, e, mem)
	})
}

// TestLogKickWithoutTimeout: with no BatchTimeout and nobody draining, the
// worker whose hand-over brings the log to BatchSize entries per partition
// kicks the flusher, the batches of that pass count as full, and what
// stays logged under the threshold afterwards waits for the drain.
func TestLogKickWithoutTimeout(t *testing.T) { testLogFlushesItself(t, 0) }

// TestLogFullBeforeTimeout: the same under a timeout that never comes.
func TestLogFullBeforeTimeout(t *testing.T) { testLogFlushesItself(t, time.Hour) }

// testLogFlushesItself submits queries whose entries fill the log several
// times over and never drains: all but the less than a full log behind
// the last pass must complete, in batches that do not count as timed out.
func testLogFlushesItself(t *testing.T, timeout time.Duration) {
	const batchSize = 16
	db := makeTestDB(3000, 5, 2, 105)
	queries := db.makeQueries(400, 106)
	e, err := New(Config{
		MaxPartitionSize: 1000, BatchSize: batchSize, BatchTimeout: timeout, Threads: 2,
		GPUs: 1, GPUWorkers: 2, StreamsPerGPU: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	mem := deviceMem(e)
	full := e.fullLog(e.idx.Load())
	got := make([][]Key, len(queries))
	done := make(chan int, len(queries))
	for i, q := range queries {
		if err := e.Submit(context.Background(), Request{Sig: q}, func(r MatchResult) { got[i] = r.Keys; done <- i }); err != nil {
			t.Fatal(err)
		}
	}
	waitRouted(e, int64(len(queries)))
	if n := e.Stats().RouteAppends; n < 4*int64(full) || full >= len(queries) {
		t.Fatalf("%d entries routed: the fixture must fill a log of %d several times over", n, full)
	}
	// Fewer than full entries stay behind the last pass, each of a
	// different query at worst: the rest complete without a drain.
	finished := 0
	for finished <= len(queries)-full {
		select {
		case <-done:
			finished++
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d queries completed with a log of %d filled and nobody draining", finished, len(queries), full)
		}
	}
	st := e.Stats()
	if st.BatchesDispatched == 0 || st.BatchesTimedOut != 0 {
		t.Fatalf("%d batches dispatched, %d of them timed out: only tick-started passes count as timed out", st.BatchesDispatched, st.BatchesTimedOut)
	}
	e.Drain()
	for ; finished < len(queries); finished++ {
		<-done
	}
	for i, q := range queries {
		keys := append([]Key(nil), got[i]...)
		sortKeysSlice(keys)
		if want := db.expected(q, false); fmt.Sprint(keys) != fmt.Sprint(want) {
			t.Fatalf("query %d: keys %v, want %v", i, keys, want)
		}
	}
	assertDrained(t, e, mem)
}

// TestLogCutBatches: the counting sort and the cut. Whatever order entries
// were logged in, a partition's entries come out contiguous and in
// partition order, a partition continues into the next batch only from
// the end of a full one, every batch but a device's last is full, the
// segment table tiles each batch, and a batch holds partitions of one
// device.
func TestLogCutBatches(t *testing.T) {
	const batchSize = 16
	t.Run(onePlacement, func(t *testing.T) {
		e, err := New(Config{
			MaxPartitionSize: 50, BatchSize: batchSize, Threads: 2,
			GPUs: 2, GPUWorkers: 2, StreamsPerGPU: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		devs := e.devices
		defer e.Close()
		makeTestDB(1000, 5, 1, 107).load(e)
		if err := e.Consolidate(); err != nil {
			t.Fatal(err)
		}
		mem := deviceMem(e)
		idx := e.idx.Load()
		nP := len(idx.parts)

		// A skewed log: partition 3 alone overflows two batches, eight
		// partitions hold a few dozen entries, most hold one or none.
		rng := rand.New(rand.NewSource(108))
		var entries []routedEntry
		logged := map[routedEntry]int{}
		perDev := make([]int, len(devs))
		add := func(pid uint32) {
			q := &query{sig: bitvec.FromOnes(len(entries) % bitvec.W)}
			entries = append(entries, routedEntry{pid, q})
			logged[routedEntry{pid, q}]++
			perDev[idx.parts[pid].dev]++
		}
		for i := 0; i < 2*batchSize+5; i++ {
			add(3)
		}
		for i := 0; i < 200; i++ {
			add(uint32(rng.Intn(8)))
			add(uint32(rng.Intn(nP)))
		}
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })

		var batches []*openBatch
		e.cutBatches(idx, &passScratch{entries: entries}, time.Now(), func(b *openBatch) { batches = append(batches, b) })

		devOf := func(b *openBatch) int { return idx.parts[b.segs[0].pid].dev }
		wantBatches := 0
		for _, n := range perDev {
			wantBatches += (n + batchSize - 1) / batchSize
		}
		if len(batches) != wantBatches {
			t.Fatalf("%d entries cut into %d batches, want %d", len(entries), len(batches), wantBatches)
		}
		for bi, b := range batches {
			if len(b.queries) != len(b.sigs) || len(b.queries) == 0 || len(b.queries) > batchSize {
				t.Fatalf("batch %d: %d queries, %d signatures", bi, len(b.queries), len(b.sigs))
			}
			last := bi == len(batches)-1 || devOf(batches[bi+1]) != devOf(b)
			if !last && len(b.queries) != batchSize {
				t.Fatalf("batch %d left with %d entries before its device's last", bi, len(b.queries))
			}
			next := 0
			for si, sg := range b.segs {
				if sg.first != next || sg.n <= 0 {
					t.Fatalf("batch %d: segment %d is [%d,+%d), want it to start at %d", bi, si, sg.first, sg.n, next)
				}
				next += sg.n
				if si > 0 && sg.pid <= b.segs[si-1].pid {
					t.Fatalf("batch %d: partition %d after %d", bi, sg.pid, b.segs[si-1].pid)
				}
				if idx.parts[sg.pid].dev != devOf(b) {
					t.Fatalf("batch %d mixes devices %d and %d", bi, devOf(b), idx.parts[sg.pid].dev)
				}
				for i := sg.first; i < sg.first+sg.n; i++ {
					en := routedEntry{sg.pid, b.queries[i]}
					if logged[en] == 0 || b.sigs[i] != b.queries[i].sig {
						t.Fatalf("batch %d entry %d: not a logged entry, or not its signature", bi, i)
					}
					logged[en]--
				}
			}
			if next != len(b.queries) {
				t.Fatalf("batch %d: segments cover %d of %d entries", bi, next, len(b.queries))
			}
			// A partition continues from the end of one batch at the
			// start of the next, and nowhere else.
			if bi > 0 && devOf(batches[bi-1]) == devOf(b) {
				prev := batches[bi-1].segs[len(batches[bi-1].segs)-1].pid
				if b.segs[0].pid < prev {
					t.Fatalf("batch %d starts at partition %d, batch %d ended at %d", bi, b.segs[0].pid, bi-1, prev)
				}
			}
		}
		for en, n := range logged {
			if n != 0 {
				t.Fatalf("partition %d: %d entries of one query never cut", en.pid, n)
			}
		}
		for _, b := range batches {
			e.pools.putBatch(b)
		}
		assertDrained(t, e, mem)
	})
}

// TestFlusherIdleEngineBound: on an idle engine a batch opened just after
// a flusher tick leaves within BatchTimeout plus one tick (and some
// scheduling slack), not a tick later because its age was judged against
// the tick's stale timestamp.
func TestFlusherIdleEngineBound(t *testing.T) {
	const timeout = 40 * time.Millisecond
	db := makeTestDB(300, 5, 1, 103)
	e, err := New(Config{MaxPartitionSize: 100, BatchSize: 64, Threads: 2, BatchTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	tick := flushTick(timeout)
	bound := timeout + tick + tick/2
	late := 0
	for i, q := range db.makeQueries(8, 104) {
		// Phase the submission across the tick period, so some batches
		// open right after a tick.
		time.Sleep(tick/4 + time.Duration(i)*tick/8)
		done := make(chan time.Duration, 1)
		if err := e.Submit(context.Background(), Request{Sig: q}, func(r MatchResult) { done <- r.Latency }); err != nil {
			t.Fatal(err)
		}
		if lat := <-done; lat > bound {
			t.Logf("query %d waited %v on an idle engine, want at most BatchTimeout + one tick (%v)", i, lat, bound)
			late++
		}
	}
	// A busy host can delay any one wake-up; a flusher judging ages
	// against a stale clock is late every time the phase lines up.
	if late > 2 {
		t.Fatalf("%d of 8 queries left later than BatchTimeout + one tick", late)
	}
}

// TestSweepExpiredAcrossSegments: the deadline sweep of a packed batch
// drops expired entries wherever they sit, removes a segment it emptied,
// and leaves the surviving entries dense with the segment table
// describing them.
func TestSweepExpiredAcrossSegments(t *testing.T) {
	e, err := New(Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	// Five queries; 1 and 3 are expired. Segment 20 holds only expired
	// entries; segments 10 and 30 lose one each at different positions.
	qs := make([]*query, 5)
	var expired int
	for i := range qs {
		q := &query{sig: bitvec.FromOnes(i), done: func(r MatchResult) {
			if r.Err != nil {
				expired++
			}
		}}
		q.pending.Store(8) // more than its entries: nothing completes here
		if i == 1 || i == 3 {
			q.ctx = dead
		} else {
			q.ctx = context.Background()
		}
		qs[i] = q
	}
	entries := []int{0, 1, 2 /* seg 10 */, 1, 3 /* seg 20 */, 3, 4, 0 /* seg 30 */}
	b := &openBatch{deadlined: true, segs: []segment{{10, 0, 3}, {20, 3, 2}, {30, 5, 3}}}
	e.pools.liveBatches.Add(1) // as if handed out by getBatch
	for _, i := range entries {
		b.queries = append(b.queries, qs[i])
		b.sigs = append(b.sigs, qs[i].sig)
	}
	if b = e.sweepExpired(b); b == nil {
		t.Fatal("batch cancelled with surviving entries")
	}
	wantSegs := []segment{{10, 0, 2}, {30, 2, 2}}
	if fmt.Sprint(b.segs) != fmt.Sprint(wantSegs) {
		t.Fatalf("segments after the sweep: %v, want %v", b.segs, wantSegs)
	}
	for i, want := range []int{0, 2, 4, 0} {
		if b.queries[i] != qs[want] || b.sigs[i] != qs[want].sig {
			t.Fatalf("entry %d after the sweep is not query %d", i, want)
		}
	}
	if len(b.queries) != 4 || len(b.sigs) != 4 {
		t.Fatalf("%d entries, %d signatures after the sweep, want 4", len(b.queries), len(b.sigs))
	}
	if expired != 2 {
		t.Fatalf("%d queries delivered ErrDeadlineExceeded, want 2 (each exactly once)", expired)
	}
	// Each swept entry dropped its reference: query 1 held two entries,
	// query 3 two.
	for i, want := range []int32{8, 6, 8, 6, 8} {
		if got := qs[i].pending.Load(); got != want {
			t.Fatalf("query %d pending = %d, want %d", i, got, want)
		}
	}
	e.pools.putBatch(b)
}

// chaosEngine builds a two-device engine whose flushes pack many small
// partitions into each dispatched batch.
func chaosEngine(t *testing.T, db *testDB, mut func(*Config)) (*Engine, []*gpu.Device) {
	t.Helper()
	cfg := Config{
		MaxPartitionSize: 16, BatchSize: 64, Threads: 4,
		BatchTimeout: time.Millisecond,
		GPUs:         2, GPUWorkers: 2, StreamsPerGPU: 2,
		quarantineBackoff: time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	devs := e.devices
	t.Cleanup(func() { e.Close() })
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	return e, devs
}

// assertPacked requires that the run actually dispatched multi-partition
// batches and lost no query.
func assertPacked(t *testing.T, e *Engine) {
	t.Helper()
	st := e.Stats()
	if st.QueriesCompleted != st.QueriesSubmitted {
		t.Fatalf("lost queries: submitted %d completed %d", st.QueriesSubmitted, st.QueriesCompleted)
	}
	if most := e.obs.Streams.SegmentsPerBatch.Snapshot().Max; most < 4 || st.SegmentsDispatched <= st.BatchesDispatched {
		t.Fatalf("%d segments in %d batches, at most %d in one: the run did not exercise multi-partition batches",
			st.SegmentsDispatched, st.BatchesDispatched, most)
	}
}

// TestChaosPackedBatchesFaults: multi-partition batches under copy and
// launch faults on one device and the scripted death of the other
// mid-batch. Retries re-stage the whole segment table on another slot of
// the owning device, the dead device's partitions fall back to the host;
// results stay exact.
func TestChaosPackedBatchesFaults(t *testing.T) {
	t.Run(onePlacement, func(t *testing.T) {
		db := makeTestDB(2000, 5, 2, 111)
		e, devs := chaosEngine(t, db, nil)
		mem := deviceMem(e)
		devs[0].SetFaultPlan(&gpu.FaultPlan{Seed: 21, DieAtOp: 300})
		devs[1].SetFaultPlan(&gpu.FaultPlan{Seed: 22, CopyFailProb: 0.05, LaunchFailProb: 0.05})
		verifyEngine(t, e, db, db.makeQueries(4000, 112), false)
		if !devs[0].Dead() {
			t.Fatal("device 0 never reached its scripted death")
		}
		st := e.Stats()
		if st.GPUFaults == 0 || st.BatchRetries == 0 {
			t.Fatalf("fault machinery idle under active fault plans: %d faults, %d retries", st.GPUFaults, st.BatchRetries)
		}
		assertPacked(t, e)
		assertDrained(t, e, mem)
	})
}

// TestChaosPackedBatchesStragglers: a straggling device holds
// multi-partition batches on their streams, each batch waiting its one
// attempt out there; answers stay exact, and every stream and batch
// comes back.
func TestChaosPackedBatchesStragglers(t *testing.T) {
	db := makeTestDB(2000, 5, 2, 113)
	e, devs := chaosEngine(t, db, nil)
	mem := deviceMem(e)
	devs[0].SetFaultPlan(&gpu.FaultPlan{
		Seed: 23, SlowProb: 0.05, SlowFactor: 20, SlowDelay: 20 * time.Millisecond,
	})
	verifyEngine(t, e, db, db.makeQueries(3000, 114), false)
	assertDrained(t, e, mem)
	if devs[0].Stats().InjectedSlowdowns == 0 {
		t.Fatal("no stragglers injected despite a 5% SlowProb plan")
	}
	assertPacked(t, e)
}

// TestChaosPackedBatchesOverflow: a result buffer far too small for a
// packed batch's pairs overflows on the device and the batch re-matches
// on the host segment by segment, exactly.
func TestChaosPackedBatchesOverflow(t *testing.T) {
	db := makeTestDB(2000, 5, 2, 115)
	e, _ := chaosEngine(t, db, func(c *Config) { c.maxPairsPerBatch = 8 })
	mem := deviceMem(e)
	verifyEngine(t, e, db, db.makeQueries(2000, 116), false)
	st := e.Stats()
	if st.ResultOverflows == 0 {
		t.Fatal("no result-buffer overflow with room for 8 pairs per batch")
	}
	if st.GPUFaults != 0 || st.CPUFallbacks != 0 {
		t.Fatalf("overflow re-match counted as a fault: faults=%d fallbacks=%d", st.GPUFaults, st.CPUFallbacks)
	}
	assertPacked(t, e)
	assertDrained(t, e, mem)
}

// TestChaosPackedBatchesDeadlines: half the queries are born expired, so
// the sweep thins packed batches — whole segments at times — before
// they launch; the live half gets exact answers.
func TestChaosPackedBatchesDeadlines(t *testing.T) {
	db := makeTestDB(2000, 5, 2, 117)
	e, _ := chaosEngine(t, db, nil)
	mem := deviceMem(e)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	live, stop := context.WithCancel(context.Background())
	defer stop()
	queries := db.makeQueries(2000, 118)
	got := make([]MatchResult, len(queries))
	done := make(chan struct{}, len(queries))
	for i, q := range queries {
		ctx := live
		if i%2 == 1 {
			ctx = dead
		}
		if err := e.SubmitWait(ctx, Request{Sig: q}, func(r MatchResult) { got[i] = r; done <- struct{}{} }); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	for range queries {
		<-done
	}
	for i, q := range queries {
		if i%2 == 1 {
			if got[i].Err == nil {
				t.Fatalf("query %d was born expired and still matched", i)
			}
			continue
		}
		keys := append([]Key(nil), got[i].Keys...)
		sortKeysSlice(keys)
		if want := db.expected(q, false); got[i].Err != nil || fmt.Sprint(keys) != fmt.Sprint(want) {
			t.Fatalf("live query %d: err %v, keys %v, want %v", i, got[i].Err, keys, want)
		}
	}
	if n := e.Stats().DeadlineExpired; n != int64(len(queries)/2) {
		t.Fatalf("DeadlineExpired = %d, want %d", n, len(queries)/2)
	}
	assertPacked(t, e)
	assertDrained(t, e, mem)
}

// TestGPUPathAllocsIndependentOfBlocks: the allocations of the GPU path
// per query must not scale with the thread blocks launched. The same
// bursts run at block dimensions 256 and 1 — one block per partition
// against one per group, over the same groups — and may cost the same
// allocations.
func TestGPUPathAllocsIndependentOfBlocks(t *testing.T) {
	const burst = 256
	db := makeTestDB(8192, 5, 1, 119)
	queries := db.makeQueries(64, 120)
	measure := func(blockDim int) (allocs float64, blocks int64) {
		e, err := New(Config{
			MaxPartitionSize: 2048, BatchSize: 64, Threads: 2, blockDim: blockDim,
			GPUs: 1, GPUWorkers: 2, StreamsPerGPU: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		dev := e.devices[0]
		defer e.Close()
		db.load(e)
		if err := e.Consolidate(); err != nil {
			t.Fatal(err)
		}
		sink := func(MatchResult) {}
		run := func() {
			for i := 0; i < burst; i++ {
				if err := e.Submit(context.Background(), Request{Sig: queries[i%len(queries)]}, sink); err != nil {
					t.Fatal(err)
				}
			}
			e.Drain()
		}
		run() // warm up pools, slots and SM scratch
		// The least of a few measurements: a GC emptying the pools
		// mid-run only ever adds allocations.
		before := dev.Stats().BlocksExecuted
		allocs = testing.AllocsPerRun(4, run)
		for rep := 0; rep < 2; rep++ {
			allocs = min(allocs, testing.AllocsPerRun(4, run))
		}
		return allocs / burst, (dev.Stats().BlocksExecuted - before) / 15
	}
	wide, wideBlocks := measure(256)
	narrow, narrowBlocks := measure(1)
	t.Logf("allocs/query: %.2f at %d blocks/burst, %.2f at %d blocks/burst", wide, wideBlocks, narrow, narrowBlocks)
	extra := narrowBlocks - wideBlocks
	if extra < wideBlocks {
		t.Fatalf("blockDim 1 ran %d blocks per burst against %d at 256: the fixture does not multiply blocks", narrowBlocks, wideBlocks)
	}
	if raceEnabled {
		return // pool misses are random under -race; the block counts held
	}
	// One allocation per block would add `extra` per burst; allow a
	// quarter of that for noise (pool misses after a GC).
	if (narrow-wide)*burst > float64(extra)/4 {
		t.Fatalf("allocs/query rose from %.2f to %.2f with %d→%d blocks per burst: something allocates per block",
			wide, narrow, wideBlocks, narrowBlocks)
	}
}
