package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"tagmatch/internal/gpu"
)

// TestDeadlineExpiredNeverLaunches pins the tentpole invariant of
// deadline propagation: queries whose context has already ended are
// completed with ErrDeadlineExceeded by the dispatch-time expiry sweep,
// and since every member of every batch is expired, no batch reaches a
// kernel launch — the device's launch counter does not move.
func TestDeadlineExpiredNeverLaunches(t *testing.T) {
	db := makeTestDB(500, 5, 2, 81)
	e, err := New(Config{
		MaxPartitionSize: 200, BatchSize: 16, Threads: 2,
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
	baseLaunches := dev.Stats().KernelLaunches

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every submission is born expired

	const n = 200
	queries := db.makeQueries(n, 82)
	errs := make(chan error, n)
	for _, q := range queries {
		if err := e.SubmitWait(ctx, Request{Sig: q}, func(r MatchResult) { errs <- r.Err }); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	for i := 0; i < n; i++ {
		err := <-errs
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("expired query %d: err = %v, want ErrDeadlineExceeded", i, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("expired query %d: err = %v does not carry the context cause", i, err)
		}
	}

	st := e.Stats()
	if st.DeadlineExpired != n {
		t.Fatalf("DeadlineExpired = %d, want %d", st.DeadlineExpired, n)
	}
	if st.BatchesCancelled == 0 {
		t.Fatal("no batches cancelled despite all-expired membership")
	}
	if st.QueriesCompleted != st.QueriesSubmitted {
		t.Fatalf("lost queries: submitted %d completed %d",
			st.QueriesSubmitted, st.QueriesCompleted)
	}
	if got := dev.Stats().KernelLaunches; got != baseLaunches {
		t.Fatalf("expired queries reached the device: launches %d -> %d",
			baseLaunches, got)
	}
}

// TestMatchCtxDeadline checks the blocking path: a straggling device
// holds every batch far beyond the caller's deadline, and Match
// returns promptly with an error matching both ErrDeadlineExceeded and
// the context cause instead of waiting out the stall.
func TestMatchCtxDeadline(t *testing.T) {
	db := makeTestDB(500, 5, 2, 83)
	e, err := New(Config{
		MaxPartitionSize: 200, BatchSize: 16, Threads: 2,
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
	dev.SetFaultPlan(&gpu.FaultPlan{Seed: 5, SlowProb: 1, SlowDelay: 100 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	keys, err := e.Match(ctx, Request{Sig: db.makeQueries(1, 84)[0]})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v does not carry context.DeadlineExceeded", err)
	}
	if keys != nil {
		t.Fatalf("keys = %v alongside a deadline error", keys)
	}
	// The batch itself stalls in 100ms steps; the caller must return on
	// the 5ms deadline, not on batch completion. Allow generous headroom
	// for scheduling, but far below one full stall chain.
	if elapsed > 80*time.Millisecond {
		t.Fatalf("Match took %v, want prompt return on the deadline", elapsed)
	}
}

// TestStragglerStaysOnItsDevice drives a two-device engine where the
// first device straggles on every operation: a straggler is slow, not
// failed, so every batch of its partitions waits it out on that device,
// and every query is answered exactly once with exact keys. The clean
// device never receives a batch of the straggler's partitions: each
// device executes exactly the blocks of its own partitions' segments,
// and every batch launches once.
func TestStragglerStaysOnItsDevice(t *testing.T) {
	db := makeTestDB(1000, 5, 2, 85)
	e, err := New(Config{
		MaxPartitionSize: 200, BatchSize: 32, Threads: 2,
		GPUs: 2, GPUWorkers: 2, StreamsPerGPU: 2,
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
	devs[0].SetFaultPlan(&gpu.FaultPlan{Seed: 6, SlowProb: 1, SlowDelay: 3 * time.Millisecond})

	verifyEngine(t, e, db, db.makeQueries(2000, 86), false)
	assertDrained(t, e, mem)

	st := e.Stats()
	if devs[0].Stats().InjectedSlowdowns == 0 {
		t.Fatal("no stragglers injected despite SlowProb 1")
	}
	if st.QueriesCompleted != st.QueriesSubmitted {
		t.Fatalf("lost or duplicated queries: submitted %d completed %d",
			st.QueriesSubmitted, st.QueriesCompleted)
	}
	if st.CPUFallbacks != 0 || st.GPUFaults != 0 {
		t.Fatalf("a straggler is not a fault: %d faults, %d CPU fallbacks", st.GPUFaults, st.CPUFallbacks)
	}
	idx := e.idx.Load()
	want := make([]int64, len(devs))
	for pid, p := range idx.parts {
		c := e.obs.Parts.Get(uint32(pid))
		segs := c.BatchesFull.Load() + c.BatchesTimedOut.Load() + c.BatchesFlushed.Load()
		want[p.dev] += segs * int64(segBlocks(int(p.n), e.cfg.blockDim))
	}
	var launches int64
	for d, dev := range devs {
		ds := dev.Stats()
		if ds.BlocksExecuted != want[d] {
			t.Fatalf("device %d executed %d blocks, the segments of its own partitions are %d", d, ds.BlocksExecuted, want[d])
		}
		launches += ds.KernelLaunches
	}
	if launches != st.BatchesDispatched {
		t.Fatalf("%d launches for %d batches: a batch launched twice or not at all", launches, st.BatchesDispatched)
	}
}

// TestChaosStragglers: 10k queries against two devices under combined
// chaos — 2% of operations straggling at ~20x magnitude, 5% injected
// faults, and one device dying mid-run. Every query must return exactly
// the brute-force reference keys through retries, quarantine and host
// fallbacks, and the drained engine holds nothing it borrowed.
func TestChaosStragglers(t *testing.T) {
	db := makeTestDB(2000, 5, 2, 87)
	e, err := New(Config{
		MaxPartitionSize: 200, BatchSize: 64, Threads: 4,
		GPUs: 2, GPUWorkers: 2, StreamsPerGPU: 3,
		quarantineBackoff: time.Millisecond,
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

	// Device 0 dies a few hundred operations in; device 1 survives under
	// 5% faults plus 2% stragglers stalled 2ms — ~20x the microsecond
	// scale of an unslowed simulated operation.
	devs[0].SetFaultPlan(&gpu.FaultPlan{
		Seed: 11, DieAtOp: 500, SlowProb: 0.02, SlowDelay: 2 * time.Millisecond,
	})
	devs[1].SetFaultPlan(&gpu.FaultPlan{
		Seed: 12, CopyFailProb: 0.05, LaunchFailProb: 0.05,
		SlowProb: 0.02, SlowDelay: 2 * time.Millisecond,
	})

	verifyEngine(t, e, db, db.makeQueries(10000, 88), false)

	if !devs[0].Dead() {
		t.Fatal("device 0 never reached its scripted death")
	}
	assertDrained(t, e, mem)
	st := e.Stats()
	if st.QueriesCompleted != st.QueriesSubmitted {
		t.Fatalf("lost queries: submitted %d completed %d",
			st.QueriesSubmitted, st.QueriesCompleted)
	}
	if st.GPUFaults == 0 {
		t.Fatal("no GPU faults recorded despite active fault plans")
	}
	if st.DeviceQuarantines == 0 {
		t.Fatal("dead device was never quarantined")
	}
	slowed := devs[0].Stats().InjectedSlowdowns + devs[1].Stats().InjectedSlowdowns
	if slowed == 0 {
		t.Fatal("no stragglers injected despite SlowProb plans")
	}
}

// TestDeadlineAbandonsStreamWait: a batch parked waiting for a stream
// gives the wait up once every member's context has ended and runs on
// the host, while the batch holding the device's only stream is still
// stalled. The waiter reads its members' contexts from the batch itself.
func TestDeadlineAbandonsStreamWait(t *testing.T) {
	db := makeTestDB(300, 5, 2, 95)
	e, err := New(Config{
		MaxPartitionSize: 1000, BatchSize: 32, BatchTimeout: time.Millisecond, Threads: 2,
		GPUs: 1, GPUWorkers: 2, StreamsPerGPU: 1,
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
	mem := deviceMem(e)
	launches := dev.Stats().KernelLaunches
	idx := e.idx.Load()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting until %s", what)
			}
		}
	}
	// Every operation stalls 200 ms, so the first batch holds the stream
	// for about 800 ms.
	dev.SetFaultPlan(&gpu.FaultPlan{Seed: 9, SlowProb: 1, SlowDelay: 200 * time.Millisecond})

	qs := db.makeQueries(2, 96)
	first, second := make(chan MatchResult, 1), make(chan MatchResult, 1)
	if err := e.Submit(context.Background(), Request{Sig: qs[0]}, func(r MatchResult) { first <- r }); err != nil {
		t.Fatal(err)
	}
	waitFor("the first batch holds the stream", func() bool { return idx.slots.idle() == 0 })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := e.Submit(ctx, Request{Sig: qs[1]}, func(r MatchResult) { second <- r }); err != nil {
		t.Fatal(err)
	}
	waitFor("the second batch waits for a stream", func() bool {
		idx.slots.mu.Lock()
		defer idx.slots.mu.Unlock()
		return idx.slots.waiters > 0
	})
	cancel()
	r := <-second
	select {
	case <-first:
		t.Fatal("the stalled batch finished before the abandoned wait: the wait outlived its contexts")
	default:
	}
	if r.Err != nil {
		t.Fatalf("a batch dispatched before its context ended: err = %v, want its answer", r.Err)
	}
	got := append([]Key(nil), r.Keys...)
	sortKeysSlice(got)
	if want := db.expected(qs[1], false); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("host answer %v, want %v", got, want)
	}
	if r := <-first; r.Err != nil {
		t.Fatalf("stalled query: %v", r.Err)
	}
	assertDrained(t, e, mem)
	if st := e.Stats(); st.CPUFallbacks != 1 || st.GPUFaults != 0 {
		t.Fatalf("%d CPU fallbacks, %d faults: want the abandoned wait's one fallback", st.CPUFallbacks, st.GPUFaults)
	}
	if n := dev.Stats().KernelLaunches - launches; n != 1 {
		t.Fatalf("%d launches, want the stalled batch's one", n)
	}
}
