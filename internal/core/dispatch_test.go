package core

import (
	"fmt"
	"testing"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
)

// TestDispatchOpsPerBatch pins the one dispatch path: a batch costs
// exactly two H2D copies (its signatures; its entry indices and segment
// table), one launch and at most one result copy (none when nothing
// matched), and uploads 24 bytes per entry plus 4 per table word —
// whatever the fan-out and however often a signature repeats, in both
// placements.
func TestDispatchOpsPerBatch(t *testing.T) {
	db := makeTestDB(3000, 5, 2, 81)
	// 300 distinct queries, each submitted 4 times and routed to many of
	// the ~60 partitions: repeats within a batch and across batches.
	distinct := db.makeQueries(300, 82)
	var queries []bitvec.Vector
	for i := 0; i < 4; i++ {
		queries = append(queries, distinct...)
	}
	for _, replicate := range []bool{true, false} {
		t.Run(fmt.Sprintf("replicate=%v", replicate), func(t *testing.T) {
			devs := []*gpu.Device{newTestGPU(t, 2), newTestGPU(t, 2)}
			e, err := New(Config{
				MaxPartitionSize: 50, BatchSize: 64, Threads: 4,
				Devices: devs, StreamsPerDevice: 3, Replicate: replicate,
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
			ops := func() (h2d, launches, d2h int64) {
				for _, d := range devs {
					st := d.Stats()
					h2d, launches, d2h = h2d+st.CopiesHtoD, launches+st.KernelLaunches, d2h+st.CopiesDtoH
				}
				return
			}
			h0, l0, d0 := ops()
			verifyEngine(t, e, db, queries, false)
			h1, l1, d1 := ops()

			st := e.Stats()
			n := st.BatchesDispatched
			if n == 0 || st.QuerySlots <= int64(len(queries)) {
				t.Fatalf("%d batches, %d entries for %d queries: the fixture does not fan out", n, st.QuerySlots, len(queries))
			}
			if h1-h0 != 2*n || l1-l0 != n || d1-d0 > n {
				t.Fatalf("%d batches cost %d H2D copies, %d launches, %d D2H copies; want %d, %d, at most %d",
					n, h1-h0, l1-l0, d1-d0, 2*n, n, n)
			}
			if want := st.QuerySlots*int64(sigBytes+4) + st.SegmentsDispatched*segWords*4; st.H2DQueryBytes != want {
				t.Fatalf("%d H2D query bytes for %d entries in %d segments, want exactly %d",
					st.H2DQueryBytes, st.QuerySlots, st.SegmentsDispatched, want)
			}
			assertDrained(t, e, mem)
		})
	}
}

// TestPipelinedChaosFaultsWindow is the fault-injection suite for the
// dispatch path: one device failing ~5% of copies and launches, the other
// scripted to die mid-run, with three streams per device and with one —
// where a retry can only reuse the stream its failed attempt just
// returned. Answers exact, no query lost, the dead device quarantined,
// everything borrowed returned.
func TestPipelinedChaosFaultsWindow(t *testing.T) {
	for _, streams := range []int{3, 1} {
		t.Run(fmt.Sprintf("streams=%d", streams), func(t *testing.T) {
			db := makeTestDB(2000, 5, 2, 87)
			devs := []*gpu.Device{newTestGPU(t, 2), newTestGPU(t, 2)}
			e, err := New(Config{
				MaxPartitionSize: 200, BatchSize: 64, Threads: 4,
				Devices: devs, StreamsPerDevice: streams, Replicate: true,
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
			mem := deviceMem(e)

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
			assertDrained(t, e, mem)
		})
	}
}

// TestPipelinedChaosStragglerHedge crosses the dispatch path with the
// tail-tolerance machinery: one device straggling hard, hedged
// re-dispatch racing the stalls, with two streams per device and with one
// — where a hedge waits for the only other stream or the straggler's
// own. A losing hedge must never recycle a stream its rival attempt
// still owns: results stay exact and every query completes exactly once.
func TestPipelinedChaosStragglerHedge(t *testing.T) {
	for _, streams := range []int{2, 1} {
		t.Run(fmt.Sprintf("streams=%d", streams), func(t *testing.T) {
			db := makeTestDB(1000, 5, 2, 89)
			devs := []*gpu.Device{newTestGPU(t, 2), newTestGPU(t, 2)}
			e, err := New(Config{
				MaxPartitionSize: 200, BatchSize: 32, Threads: 4,
				Devices: devs, StreamsPerDevice: streams, Replicate: true,
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
			mem := deviceMem(e)

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
			assertDrained(t, e, mem)
		})
	}
}
