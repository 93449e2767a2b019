package tagmatch_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tagmatch"
)

func sortKeys(k []tagmatch.Key) {
	sort.Slice(k, func(i, j int) bool { return k[i] < k[j] })
}

func TestPublicAPIQuickstart(t *testing.T) {
	eng, err := tagmatch.New(tagmatch.Config{GPUs: 1, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	eng.AddSet([]string{"en_go", "en_gpu"}, 1001)
	eng.AddSet([]string{"en_go"}, 1002)
	eng.AddSet([]string{"fr_cuisine"}, 1003)
	if eng.PendingOps() != 3 {
		t.Fatalf("PendingOps = %d", eng.PendingOps())
	}
	if err := eng.Consolidate(); err != nil {
		t.Fatal(err)
	}

	keys, err := eng.MatchUnique([]string{"en_go", "en_gpu", "en_eurosys"})
	if err != nil {
		t.Fatal(err)
	}
	sortKeys(keys)
	if fmt.Sprint(keys) != "[1001 1002]" {
		t.Fatalf("keys = %v", keys)
	}

	keys, err = eng.Match([]string{"fr_cuisine", "fr_paris"})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != "[1003]" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestPublicAPICPUOnly(t *testing.T) {
	eng, err := tagmatch.New(tagmatch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.AddSet([]string{"x"}, 1)
	if err := eng.Consolidate(); err != nil {
		t.Fatal(err)
	}
	keys, err := eng.Match([]string{"x", "y"})
	if err != nil || len(keys) != 1 {
		t.Fatalf("keys=%v err=%v", keys, err)
	}
}

func TestPublicAPIStreaming(t *testing.T) {
	eng, err := tagmatch.New(tagmatch.Config{
		GPUs: 2, Threads: 4, BatchSize: 32,
		BatchTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 500; i++ {
		eng.AddSet([]string{fmt.Sprintf("tag%d", i%50), "common"}, tagmatch.Key(i))
	}
	if err := eng.Consolidate(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	total := 0
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		err := eng.SubmitUnique([]string{fmt.Sprintf("tag%d", i%50), "common", "extra"},
			func(r tagmatch.MatchResult) {
				mu.Lock()
				total += len(r.Keys)
				mu.Unlock()
				wg.Done()
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	wg.Wait()
	// Each query matches exactly the 10 sets with its tag index.
	if total != 200*10 {
		t.Fatalf("total keys = %d, want 2000", total)
	}
	st := eng.Stats()
	if st.QueriesCompleted != 200 {
		t.Fatalf("completed = %d", st.QueriesCompleted)
	}
	if len(st.DeviceBytes) != 2 {
		t.Fatalf("DeviceBytes = %v", st.DeviceBytes)
	}
}

func TestPublicAPIRemoveAndReconsolidate(t *testing.T) {
	eng, err := tagmatch.New(tagmatch.Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.AddSet([]string{"a"}, 1)
	eng.AddSet([]string{"a"}, 2)
	if err := eng.Consolidate(); err != nil {
		t.Fatal(err)
	}
	eng.RemoveSet([]string{"a"}, 1)
	if err := eng.Consolidate(); err != nil {
		t.Fatal(err)
	}
	keys, _ := eng.Match([]string{"a", "b"})
	if fmt.Sprint(keys) != "[2]" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestPublicAPIInvalidConfig(t *testing.T) {
	if _, err := tagmatch.New(tagmatch.Config{GPUs: -1}); err == nil {
		t.Fatal("negative GPU count accepted")
	}
}

// TestPublicAPIDevices checks the devices New creates from the
// configuration: each keeps a ring of op records unless
// DisableObservability is set, and devices too small for the index leave
// Consolidate degraded to an exact CPU-only index.
func TestPublicAPIDevices(t *testing.T) {
	for _, off := range []bool{false, true} {
		eng, err := tagmatch.New(tagmatch.Config{GPUs: 1, Threads: 1, DisableObservability: off})
		if err != nil {
			t.Fatal(err)
		}
		eng.AddSet([]string{"a"}, 1)
		if err := eng.Consolidate(); err != nil {
			t.Fatal(err)
		}
		if keys, err := eng.Match([]string{"a", "b"}); err != nil || fmt.Sprint(keys) != "[1]" {
			t.Fatalf("keys %v, err %v", keys, err)
		}
		recs := eng.DeviceOpRecords()
		if len(recs) != 1 || recs[0].Name != "sim-gpu-0" {
			t.Fatalf("op records of %d devices, want sim-gpu-0's", len(recs))
		}
		if logged := len(recs[0].Ops) > 0; logged == off {
			t.Errorf("DisableObservability=%v: %d op records", off, len(recs[0].Ops))
		}
		eng.Close()
	}

	eng, err := tagmatch.New(tagmatch.Config{GPUs: 2, Threads: 1, GPUMemBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 2000; i++ {
		eng.AddSet([]string{fmt.Sprintf("t%d", i)}, tagmatch.Key(i))
	}
	if err := eng.Consolidate(); !errors.Is(err, tagmatch.ErrDeviceDegraded) {
		t.Fatalf("Consolidate on 4 KiB devices: %v, want ErrDeviceDegraded", err)
	}
	keys, err := eng.Match([]string{"t7", "t8"})
	if sortKeys(keys); err != nil || fmt.Sprint(keys) != "[7 8]" {
		t.Fatalf("degraded engine answered %v, err %v", keys, err)
	}
	for _, d := range eng.DeviceStats() {
		if d.Stats.MemInUse != 0 {
			t.Errorf("%s holds %d bytes after the degrade", d.Name, d.Stats.MemInUse)
		}
	}
}

// TestCloseReleasesEverything runs queries and churn through a
// background fold on two costed GPUs, then closes the
// engine: no goroutine outlives Close, and no device holds memory.
func TestCloseReleasesEverything(t *testing.T) {
	base := runtime.NumGoroutine()
	eng, err := tagmatch.New(tagmatch.Config{
		GPUs: 2, GPUWorkers: 2, RealisticGPUCosts: true, Threads: 2,
		MaxPartitionSize: 100, BatchSize: 32, BatchTimeout: time.Millisecond,
		DeltaMaxSets: 64, DeltaMaxRatio: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	const nSets = 2000
	tags := func(i int) []string { return []string{fmt.Sprintf("g%d", i%200), fmt.Sprintf("s%d", i)} }
	for i := 0; i < nSets; i++ {
		eng.AddSet(tags(i), tagmatch.Key(i))
	}
	if err := eng.Consolidate(); err != nil {
		t.Fatal(err)
	}
	done := func(tagmatch.MatchResult) {}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; eng.Stats().AutoConsolidations == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no background fold within 10s")
		}
		eng.RemoveSet(tags(i%nSets), tagmatch.Key(i%nSets))
		eng.AddSet(tags(nSets+i), tagmatch.Key(nSets+i))
		if err := eng.Submit(append(tags(i%nSets), "x"), done); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for _, d := range eng.DeviceStats() {
		if d.Stats.MemInUse != 0 {
			t.Errorf("%s holds %d bytes after Close", d.Name, d.Stats.MemInUse)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines 5s after Close, %d before New:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

func TestPublicAPIPartitionedGPUs(t *testing.T) {
	eng, err := tagmatch.New(tagmatch.Config{
		GPUs: 2, Threads: 2, BatchSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 300; i++ {
		eng.AddSet([]string{fmt.Sprintf("t%d", i)}, tagmatch.Key(i))
	}
	if err := eng.Consolidate(); err != nil {
		t.Fatal(err)
	}
	keys, err := eng.Match([]string{"t7", "t8"})
	if err != nil {
		t.Fatal(err)
	}
	sortKeys(keys)
	if fmt.Sprint(keys) != "[7 8]" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestPublicAPISnapshot(t *testing.T) {
	src, err := tagmatch.New(tagmatch.Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.AddSet([]string{"snap"}, 3)
	if err := src.Consolidate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dst, err := tagmatch.New(tagmatch.Config{GPUs: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	keys, err := dst.Match([]string{"snap", "extra"})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != "[3]" {
		t.Fatalf("restored engine answered %v", keys)
	}
}

// TestSubmitAllocsPerQuery pins the allocations per query through the
// public Submit — tags → bloom.Signature → core.Submit — on the
// benchmark's engine shape (two GPUs, two threads, BatchSize 256). With
// no match the wrapper adds nothing to core.Submit (0.11 per query, the
// GPU path's per-batch allocations spread over the batch's queries; core's
// CPU-only TestSteadyStateAllocsPerQuery reads 0.00). Delivering eight
// keys costs 3.16: the query's key slice grows by append as each batch's
// keys arrive. Tracing one query in 64 adds 0.43. The queries' tag lists
// and the done callback are built once, outside the measurement.
func TestSubmitAllocsPerQuery(t *testing.T) {
	const nSets, width, burst = 4096, 8, 256
	for _, c := range []struct {
		name         string
		match, trace int
		max          float64
	}{
		{"no-match", 0, 0, 0.25},
		{"match", width, 0, 3.5},
		{"match-traced", width, 64, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, err := tagmatch.New(tagmatch.Config{
				GPUs: 2, GPUWorkers: 2, Threads: 2, BatchSize: 256,
				MaxPartitionSize: 128, TraceEvery: c.trace,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for i := 0; i < nSets; i++ {
				eng.AddSet([]string{fmt.Sprintf("g%d", i/width), fmt.Sprintf("m%d", i)}, tagmatch.Key(i))
			}
			if err := eng.Consolidate(); err != nil {
				t.Fatal(err)
			}
			queries := make([][]string, 64)
			for i := range queries {
				queries[i] = []string{fmt.Sprintf("nomatch%d", i)}
				if c.match > 0 {
					// Every tag of one group: matches its width sets.
					g := i * 7 % (nSets / width)
					queries[i] = []string{fmt.Sprintf("g%d", g)}
					for j := 0; j < width; j++ {
						queries[i] = append(queries[i], fmt.Sprintf("m%d", g*width+j))
					}
				}
			}
			var keys atomic.Int64 // added to by the reduce workers
			done := func(r tagmatch.MatchResult) { keys.Add(int64(len(r.Keys))) }
			run := func() {
				for i := 0; i < burst; i++ {
					if err := eng.Submit(queries[i%len(queries)], done); err != nil {
						t.Fatal(err)
					}
				}
				eng.Drain()
			}
			run() // warm up pools and partition state
			perQuery := testing.AllocsPerRun(20, run) / burst
			t.Logf("allocs/query: %.2f (%d keys delivered)", perQuery, keys.Load())
			if c.match > 0 && keys.Load() == 0 {
				t.Fatal("no keys delivered: the match case is vacuous")
			}
			if raceEnabled {
				return // pool misses are random under -race
			}
			if perQuery > c.max {
				t.Fatalf("allocs/query %.2f, want <= %.2f", perQuery, c.max)
			}
		})
	}
}
