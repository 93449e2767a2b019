package core

import (
	"fmt"
	"testing"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
)

// TestDispatchOpsPerBatch pins the one dispatch path: a batch costs
// exactly two H2D copies (its signatures; its segment table), one launch
// and at most one result copy (none when nothing matched), and uploads 24
// bytes per entry plus 4 per table word —
// whatever the fan-out and however often a signature repeats.
func TestDispatchOpsPerBatch(t *testing.T) {
	db := makeTestDB(3000, 5, 2, 81)
	// 300 distinct queries, each submitted 4 times and routed to many of
	// the ~60 partitions: repeats within a batch and across batches.
	distinct := db.makeQueries(300, 82)
	var queries []bitvec.Vector
	for i := 0; i < 4; i++ {
		queries = append(queries, distinct...)
	}
	t.Run(onePlacement, func(t *testing.T) {
		e, err := New(Config{
			MaxPartitionSize: 50, BatchSize: 64, Threads: 4,
			GPUs: 2, GPUWorkers: 2, StreamsPerGPU: 3,
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
		if want := st.QuerySlots*sigBytes + st.SegmentsDispatched*segWords*4; st.H2DQueryBytes != want {
			t.Fatalf("%d H2D query bytes for %d entries in %d segments, want exactly %d",
				st.H2DQueryBytes, st.QuerySlots, st.SegmentsDispatched, want)
		}
		assertDrained(t, e, mem)
	})
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
			e, err := New(Config{
				MaxPartitionSize: 200, BatchSize: 64, Threads: 4,
				GPUs: 2, GPUWorkers: 2, StreamsPerGPU: streams,
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

// TestPipelinedChaosStraggler crosses the dispatch path with a device
// straggling hard, with two streams per device and with one: a
// straggling attempt, its batch's only one, owns its stream until its own
// final callback, results stay exact, every query completes exactly once,
// and every stream comes back.
func TestPipelinedChaosStraggler(t *testing.T) {
	for _, streams := range []int{2, 1} {
		t.Run(fmt.Sprintf("streams=%d", streams), func(t *testing.T) {
			db := makeTestDB(1000, 5, 2, 89)
			e, err := New(Config{
				MaxPartitionSize: 200, BatchSize: 32, Threads: 4,
				GPUs: 2, GPUWorkers: 2, StreamsPerGPU: streams,
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

			devs[0].SetFaultPlan(&gpu.FaultPlan{
				Seed: 13, SlowProb: 0.05, SlowFactor: 20, SlowDelay: 20 * time.Millisecond,
			})

			verifyEngine(t, e, db, db.makeQueries(3000, 90), false)
			assertDrained(t, e, mem)

			st := e.Stats()
			if st.QueriesCompleted != st.QueriesSubmitted {
				t.Fatalf("lost queries: submitted %d completed %d",
					st.QueriesSubmitted, st.QueriesCompleted)
			}
			if devs[0].Stats().InjectedSlowdowns == 0 {
				t.Fatal("no stragglers injected despite a 5% SlowProb plan")
			}
		})
	}
}
