package core

import (
	"testing"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
)

// TestQueryWindowHitsAndParity drives a recurring query stream through
// the default configuration (stream depth 2, query window on): answers
// must match the brute-force reference exactly, the window must serve
// repeats from the ring (hits recorded, residual upload rate low), and
// the per-slot H2D byte accounting must come in under the dense
// 24-byte-per-slot baseline.
func TestQueryWindowHitsAndParity(t *testing.T) {
	db := makeTestDB(2000, 5, 2, 81)
	devs := []*gpu.Device{newTestGPU(t, 2), newTestGPU(t, 2)}
	e, err := New(Config{
		MaxPartitionSize: 200, BatchSize: 64, Threads: 4,
		Devices: devs, StreamsPerDevice: 3, Replicate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}

	// 400 distinct queries, each submitted 8 times: after the first
	// pass the ring holds every signature on every device.
	distinct := db.makeQueries(400, 82)
	queries := make([]bitvec.Vector, 0, len(distinct)*8)
	for i := 0; i < 8; i++ {
		queries = append(queries, distinct...)
	}
	verifyEngine(t, e, db, queries, false)

	st := e.Stats()
	if st.WindowHits == 0 {
		t.Fatal("no window hits on a recurring query stream")
	}
	if st.WindowFallbacks != 0 {
		t.Fatalf("window fell back %d times with an oversized ring", st.WindowFallbacks)
	}
	if st.QuerySlots == 0 || st.H2DQueryBytes == 0 {
		t.Fatalf("stream byte accounting empty: %+v", st)
	}
	dense := st.QuerySlots * int64(sigBytes)
	if st.H2DQueryBytes >= dense {
		t.Fatalf("window saved nothing: %d H2D bytes for %d slots (dense would be %d)",
			st.H2DQueryBytes, st.QuerySlots, dense)
	}
	if st.PipelinedDispatches == 0 {
		t.Fatal("no pipelined dispatches at stream depth 2 under a saturating burst")
	}
}

// TestQueryWindowTinyRingEvicts shrinks the ring to its minimum (one
// batch) and streams far more distinct signatures than it can hold:
// the clock hand must evict (or the assignment fall back to dense
// uploads when every entry is pinned), and every answer must still be
// exact — eviction can never recycle a slot a kernel still reads.
func TestQueryWindowTinyRingEvicts(t *testing.T) {
	db := makeTestDB(1500, 5, 2, 83)
	devs := []*gpu.Device{newTestGPU(t, 2), newTestGPU(t, 2)}
	e, err := New(Config{
		MaxPartitionSize: 150, BatchSize: 32, Threads: 4,
		Devices: devs, StreamsPerDevice: 2, Replicate: true,
		QueryWindow: 1, // applyDefaults raises it to BatchSize
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}

	verifyEngine(t, e, db, db.makeQueries(4000, 84), false)

	st := e.Stats()
	if st.WindowEvictions == 0 && st.WindowFallbacks == 0 {
		t.Fatalf("tiny ring neither evicted nor fell back: %+v", st)
	}
	if st.QueriesCompleted != st.QueriesSubmitted {
		t.Fatalf("lost queries: submitted %d completed %d",
			st.QueriesSubmitted, st.QueriesCompleted)
	}
}

// TestStreamDepthAblationBaseline pins the depth-1, window-off cell the
// pipeline experiment uses as its baseline: results stay exact, every
// query slot pays the full dense signature upload (plus its index and
// its share of the segment table), and no dispatch ever overlaps another
// on the same stream.
func TestStreamDepthAblationBaseline(t *testing.T) {
	db := makeTestDB(1500, 5, 2, 85)
	devs := []*gpu.Device{newTestGPU(t, 2), newTestGPU(t, 2)}
	e, err := New(Config{
		MaxPartitionSize: 200, BatchSize: 64, Threads: 4,
		Devices: devs, StreamsPerDevice: 3, Replicate: true,
		StreamDepth:        1,
		DisableQueryWindow: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}

	verifyEngine(t, e, db, db.makeQueries(2000, 86), false)

	st := e.Stats()
	if st.WindowHits+st.WindowMisses+st.WindowFallbacks != 0 {
		t.Fatalf("window activity with the window disabled: %+v", st)
	}
	if st.PipelinedDispatches != 0 {
		t.Fatalf("%d overlapping dispatches at stream depth 1", st.PipelinedDispatches)
	}
	if want := st.QuerySlots*int64(sigBytes+4) + st.SegmentsDispatched*segWords*4; st.H2DQueryBytes != want {
		t.Fatalf("dense upload accounting: %d H2D bytes for %d slots, want exactly %d",
			st.H2DQueryBytes, st.QuerySlots, want)
	}
}

// TestPipelinedChaosFaultsWindow is the fault-injection suite for the
// pipelined dispatch path: stream depth 2 with a deliberately small
// query window, one device failing ~5% of copies and launches, the
// other scripted to die mid-run. Every slot and every pinned window
// entry must be settled by the fault machinery — answers exact, no
// query lost, the dead device quarantined.
func TestPipelinedChaosFaultsWindow(t *testing.T) {
	db := makeTestDB(2000, 5, 2, 87)
	devs := []*gpu.Device{newTestGPU(t, 2), newTestGPU(t, 2)}
	e, err := New(Config{
		MaxPartitionSize: 200, BatchSize: 64, Threads: 4,
		Devices: devs, StreamsPerDevice: 3, Replicate: true,
		StreamDepth:       2,
		QueryWindow:       64, // minimum: constant pin/evict churn under faults
		FailureThreshold:  3,
		QuarantineBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}

	devs[0].SetFaultPlan(&gpu.FaultPlan{Seed: 11, DieAtOp: 500})
	devs[1].SetFaultPlan(&gpu.FaultPlan{Seed: 12, CopyFailProb: 0.05, LaunchFailProb: 0.05})

	verifyEngine(t, e, db, db.makeQueries(10000, 88), false)

	if !devs[0].Dead() {
		t.Fatal("device 0 never reached its scripted death")
	}
	st := e.Stats()
	if st.QueriesCompleted != st.QueriesSubmitted {
		t.Fatalf("lost queries: submitted %d completed %d",
			st.QueriesSubmitted, st.QueriesCompleted)
	}
	if st.GPUFaults == 0 || st.BatchRetries == 0 {
		t.Fatalf("fault machinery never engaged: %+v", st)
	}
	if st.DeviceQuarantines == 0 {
		t.Fatal("dead device was never quarantined")
	}
}

// TestPipelinedChaosStragglerHedge crosses the pipelined path with the
// tail-tolerance machinery: depth-2 slots, the window on, one device
// straggling hard, hedged re-dispatch racing the stalls. A losing
// hedge must never recycle a slot (or unpin a window entry) its rival
// attempt still owns: results stay exact and every query completes
// exactly once.
func TestPipelinedChaosStragglerHedge(t *testing.T) {
	db := makeTestDB(1000, 5, 2, 89)
	devs := []*gpu.Device{newTestGPU(t, 2), newTestGPU(t, 2)}
	e, err := New(Config{
		MaxPartitionSize: 200, BatchSize: 32, Threads: 4,
		Devices: devs, StreamsPerDevice: 2, Replicate: true,
		StreamDepth: 2,
		HedgePolicy: HedgePolicy{Mode: HedgeFixed, Budget: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}

	devs[0].SetFaultPlan(&gpu.FaultPlan{
		Seed: 13, SlowProb: 0.05, SlowFactor: 20, SlowDelay: 20 * time.Millisecond,
	})

	verifyEngine(t, e, db, db.makeQueries(3000, 90), false)

	st := e.Stats()
	if st.QueriesCompleted != st.QueriesSubmitted {
		t.Fatalf("lost queries: submitted %d completed %d",
			st.QueriesSubmitted, st.QueriesCompleted)
	}
	if st.HedgesFired == 0 {
		t.Fatal("no hedges fired against a 5% straggler at a 2ms budget")
	}
	// Every fired hedge resolves as won or lost; cancellations are the
	// timers that found the batch already settled and never re-dispatched.
	if st.HedgesWon+st.HedgesLost > st.HedgesFired {
		t.Fatalf("hedge accounting leaks attempts: fired=%d won=%d lost=%d",
			st.HedgesFired, st.HedgesWon, st.HedgesLost)
	}
}
