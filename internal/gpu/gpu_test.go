package gpu

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestDevice(t *testing.T) *Device {
	t.Helper()
	d := New(Config{Name: "test", Workers: 4, GlobalMemBytes: 1 << 20, MaxStreams: 4})
	t.Cleanup(d.Close)
	return d
}

func TestLaunchRunsEveryThreadOnce(t *testing.T) {
	d := newTestDevice(t)
	grid := Grid{Blocks: 7, BlockDim: 33}
	counts := make([]uint32, grid.Threads())
	s, err := d.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.LaunchAsync(grid, func(b *BlockCtx) {
		b.Threads(func(tid int) {
			atomic.AddUint32(&counts[b.GlobalID(tid)], 1)
		})
	})
	s.Synchronize()
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("thread %d ran %d times", i, c)
		}
	}
	if st := d.Stats(); st.KernelLaunches != 1 || st.BlocksExecuted != 7 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLaunchConcurrentGridsExactlyOnce issues grids of 1…300 blocks from
// eight streams at once: the claim tasks of concurrent launches share the
// SM workers, and every (launch, block) cell must still run exactly once.
func TestLaunchConcurrentGridsExactlyOnce(t *testing.T) {
	const streams, launches = 8, 50
	d := New(Config{Workers: 4, MaxStreams: streams})
	defer d.Close()
	hits := make([][][]uint32, streams)
	var wantBlocks int64
	var wg sync.WaitGroup
	for si := range hits {
		hits[si] = make([][]uint32, launches)
		for li := range hits[si] {
			blocks := 1 + (si*launches+li)*37%300
			hits[si][li] = make([]uint32, blocks)
			wantBlocks += int64(blocks)
		}
		s, err := d.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cells [][]uint32) {
			defer wg.Done()
			defer s.Close()
			for _, c := range cells {
				s.LaunchAsync(Grid{Blocks: len(c), BlockDim: 1}, func(b *BlockCtx) {
					if b.Grid.Blocks != len(c) || b.Grid.BlockDim != 1 {
						t.Errorf("block sees grid %+v, launched %d×1", b.Grid, len(c))
					}
					atomic.AddUint32(&c[b.BlockIdx], 1)
				})
			}
			s.Synchronize()
		}(hits[si])
	}
	wg.Wait()
	for si, ls := range hits {
		for li, c := range ls {
			for blk, n := range c {
				if n != 1 {
					t.Fatalf("stream %d launch %d block %d ran %d times", si, li, blk, n)
				}
			}
		}
	}
	st := d.Stats()
	if st.KernelLaunches != streams*launches || st.BlocksExecuted != wantBlocks {
		t.Fatalf("launches %d blocks %d, want %d and %d",
			st.KernelLaunches, st.BlocksExecuted, streams*launches, wantBlocks)
	}
}

// TestLaunchSpreadsBlocksOverSMs runs one grid of as many blocks as SMs,
// each waiting until all of them are running: it completes only if the
// grid spreads over every SM instead of one worker draining it alone.
func TestLaunchSpreadsBlocksOverSMs(t *testing.T) {
	const sms = 4
	d := New(Config{Workers: sms})
	defer d.Close()
	s, err := d.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var arrived sync.WaitGroup
	arrived.Add(sms)
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	var alone atomic.Int32
	s.LaunchAsync(Grid{Blocks: sms, BlockDim: 1}, func(b *BlockCtx) {
		arrived.Done()
		select {
		case <-all:
		case <-time.After(2 * time.Second):
			alone.Add(1)
		}
	})
	s.Synchronize()
	if n := alone.Load(); n != 0 {
		t.Fatalf("%d blocks timed out waiting for the other %d to run concurrently", n, sms-1)
	}
}

// TestLaunchAllocsIndependentOfBlocks pins a launch at one allocation
// (its shared record) however many blocks the grid has.
func TestLaunchAllocsIndependentOfBlocks(t *testing.T) {
	d := New(Config{Workers: 4})
	defer d.Close()
	kernel := func(b *BlockCtx) {}
	allocs := func(blocks int) float64 {
		return testing.AllocsPerRun(50, func() {
			if err := d.launch(Grid{Blocks: blocks, BlockDim: 1}, kernel, directSite); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(1), allocs(1024)
	if one != many || many > 1 {
		t.Fatalf("allocs per launch: %v with 1 block, %v with 1024; want equal and at most 1", one, many)
	}
}

func TestThreadsPhasesAreBarriers(t *testing.T) {
	d := newTestDevice(t)
	grid := Grid{Blocks: 3, BlockDim: 16}
	// Phase 1 writes per-thread values; phase 2 reads a neighbour's value.
	// If phases were not barrier-separated this would read zeros.
	s, _ := d.OpenStream()
	defer s.Close()
	bad := atomic.Int32{}
	s.LaunchAsync(grid, func(b *BlockCtx) {
		vals := make([]int, b.Grid.BlockDim) // block "shared memory"
		b.Threads(func(tid int) { vals[tid] = tid + 1 })
		b.Threads(func(tid int) {
			neighbour := (tid + 1) % b.Grid.BlockDim
			if vals[neighbour] != neighbour+1 {
				bad.Add(1)
			}
		})
	})
	s.Synchronize()
	if bad.Load() != 0 {
		t.Fatalf("%d threads observed pre-barrier values", bad.Load())
	}
}

func TestStreamFIFOOrdering(t *testing.T) {
	d := newTestDevice(t)
	s, _ := d.OpenStream()
	defer s.Close()
	var order []int
	var mu sync.Mutex
	for i := 0; i < 20; i++ {
		i := i
		s.Callback(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	s.Synchronize()
	for i, v := range order {
		if v != i {
			t.Fatalf("out-of-order execution: %v", order)
		}
	}
}

func TestStreamsRunConcurrently(t *testing.T) {
	d := New(Config{Workers: 4, MaxStreams: 2})
	defer d.Close()
	s1, _ := d.OpenStream()
	defer s1.Close()
	s2, _ := d.OpenStream()
	defer s2.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	// Block stream 1 on a long callback; stream 2 must still make progress.
	s1.Callback(func() { close(started); <-release })
	<-started
	doneCh := make(chan struct{})
	s2.Callback(func() { close(doneCh) })
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("stream 2 blocked behind stream 1")
	}
	close(release)
	s1.Synchronize()
}

func TestMaxStreams(t *testing.T) {
	d := New(Config{Workers: 1, MaxStreams: 2})
	defer d.Close()
	s1, err := d.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := d.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.OpenStream(); err == nil {
		t.Fatal("third stream should fail with MaxStreams=2")
	}
	s1.Close()
	s3, err := d.OpenStream()
	if err != nil {
		t.Fatalf("stream slot not released on close: %v", err)
	}
	s3.Close()
	s2.Close()
}

func TestAllocBudget(t *testing.T) {
	d := New(Config{Workers: 1, GlobalMemBytes: 1024})
	defer d.Close()
	b1, err := Alloc[uint64](d, 64) // 512 bytes
	if err != nil {
		t.Fatal(err)
	}
	if b1.Bytes() != 512 {
		t.Fatalf("Bytes = %d", b1.Bytes())
	}
	if _, err := Alloc[uint64](d, 128); err == nil { // 1024 more: over budget
		t.Fatal("allocation over budget should fail")
	}
	if d.MemInUse() != 512 {
		t.Fatalf("MemInUse = %d after failed alloc", d.MemInUse())
	}
	b1.Free()
	if d.MemInUse() != 0 {
		t.Fatalf("MemInUse = %d after free", d.MemInUse())
	}
	b1.Free() // double free is a no-op
	if d.MemInUse() != 0 {
		t.Fatal("double free changed accounting")
	}
	if st := d.Stats(); st.MemHighWater != 512 {
		t.Fatalf("high water = %d", st.MemHighWater)
	}
}

func TestCopyRoundTripAndAccounting(t *testing.T) {
	d := newTestDevice(t)
	buf := MustAlloc[uint32](d, 100)
	defer buf.Free()
	src := make([]uint32, 50)
	for i := range src {
		src[i] = uint32(i * i)
	}
	if err := buf.CopyToDevice(10, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint32, 50)
	if err := buf.CopyFromDevice(dst, 10); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], src[i])
		}
	}
	st := d.Stats()
	if st.BytesHtoD != 200 || st.BytesDtoH != 200 {
		t.Fatalf("byte accounting: %+v", st)
	}
	if st.CopiesHtoD != 1 || st.CopiesDtoH != 1 {
		t.Fatalf("copy-call accounting: %+v", st)
	}
}

func TestCopyBoundsChecked(t *testing.T) {
	d := newTestDevice(t)
	buf := MustAlloc[byte](d, 8)
	defer buf.Free()
	if err := buf.CopyToDevice(4, make([]byte, 8)); err == nil {
		t.Fatal("out-of-range H2D should fail")
	}
	if err := buf.CopyFromDevice(make([]byte, 16), 0); err == nil {
		t.Fatal("out-of-range D2H should fail")
	}
	if err := buf.CopyToDevice(-1, nil); err == nil {
		t.Fatal("negative offset should fail")
	}
	buf.Free()
	if err := buf.CopyToDevice(0, []byte{1}); err == nil {
		t.Fatal("copy to freed buffer should fail")
	}
}

func TestAsyncPipelineOrdering(t *testing.T) {
	// The canonical TagMatch sequence: H2D copy, kernel, D2H copy — all
	// asynchronous on one stream — must observe each other's effects.
	d := newTestDevice(t)
	s, _ := d.OpenStream()
	defer s.Close()

	in := MustAlloc[uint32](d, 256)
	out := MustAlloc[uint32](d, 256)
	defer in.Free()
	defer out.Free()

	src := make([]uint32, 256)
	for i := range src {
		src[i] = uint32(i)
	}
	dst := make([]uint32, 256)

	CopyToDeviceAsync(s, in, 0, src)
	s.LaunchAsync(Grid{Blocks: 4, BlockDim: 64}, func(b *BlockCtx) {
		data, res := in.Data(), out.Data()
		b.Threads(func(tid int) {
			g := b.GlobalID(tid)
			res[g] = data[g] * 2
		})
	})
	CopyFromDeviceAsync(s, out, dst, 0)
	s.Synchronize()

	for i := range dst {
		if dst[i] != uint32(2*i) {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], 2*i)
		}
	}
}

func TestAtomicAddSemantics(t *testing.T) {
	d := newTestDevice(t)
	s, _ := d.OpenStream()
	defer s.Close()
	counter := MustAlloc[uint32](d, 1)
	defer counter.Free()
	slots := MustAlloc[uint32](d, 1024)
	defer slots.Free()

	grid := Grid{Blocks: 16, BlockDim: 64}
	s.LaunchAsync(grid, func(b *BlockCtx) {
		c, sl := counter.Data(), slots.Data()
		b.Threads(func(tid int) {
			old := b.AtomicAddU32(&c[0], 1)
			sl[old] = 1 // each thread must receive a unique slot
		})
	})
	s.Synchronize()

	got := make([]uint32, 1024)
	if err := counter.CopyFromDevice(got[:1], 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1024 {
		t.Fatalf("counter = %d, want 1024", got[0])
	}
	if err := slots.CopyFromDevice(got, 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 1 {
			t.Fatalf("slot %d not claimed exactly once (=%d): atomicAdd returned duplicate indices", i, v)
		}
	}
	if st := d.Stats(); st.AtomicOps != 1024 {
		t.Fatalf("atomic op count = %d", st.AtomicOps)
	}
}

func TestNestedLaunch(t *testing.T) {
	d := newTestDevice(t)
	s, _ := d.OpenStream()
	defer s.Close()
	var total atomic.Int64
	s.LaunchAsync(Grid{Blocks: 2, BlockDim: 1}, func(b *BlockCtx) {
		b.Threads(func(tid int) {
			b.LaunchNested(Grid{Blocks: 3, BlockDim: 4}, func(nb *BlockCtx) {
				nb.Threads(func(ntid int) { total.Add(1) })
			})
		})
	})
	s.Synchronize()
	if total.Load() != 2*3*4 {
		t.Fatalf("nested threads = %d, want 24", total.Load())
	}
	st := d.Stats()
	if st.NestedLaunches != 2 {
		t.Fatalf("nested launches = %d", st.NestedLaunches)
	}
	// Outer (2) + nested (6) blocks all executed.
	if st.BlocksExecuted != 8 {
		t.Fatalf("blocks executed = %d", st.BlocksExecuted)
	}
}

func TestCostModelCharges(t *testing.T) {
	cost := CostModel{CopyOverhead: 200 * time.Microsecond, CopyBytesPerSec: 1e6}
	d := New(Config{Workers: 1, Cost: cost})
	defer d.Close()
	buf := MustAlloc[byte](d, 1000)
	defer buf.Free()
	start := time.Now()
	if err := buf.CopyToDevice(0, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 200µs overhead + 1000 bytes at 1 MB/s = 1 ms; allow slack but require
	// clearly more than the overhead alone.
	if elapsed < 1100*time.Microsecond {
		t.Fatalf("copy took %v, expected >= ~1.2ms of simulated cost", elapsed)
	}
}

func TestLaunchEmptyGridIsNoop(t *testing.T) {
	d := newTestDevice(t)
	s, _ := d.OpenStream()
	defer s.Close()
	s.LaunchAsync(Grid{Blocks: 0, BlockDim: 64}, func(b *BlockCtx) {
		t.Error("kernel body ran for empty grid")
	})
	s.Synchronize()
}

func TestDeviceCloseIdempotent(t *testing.T) {
	d := New(Config{Workers: 2})
	d.Close()
	d.Close()
}

func TestConfigDefaults(t *testing.T) {
	d := New(Config{})
	defer d.Close()
	cfg := d.Config()
	if cfg.Workers <= 0 || cfg.MaxStreams != 10 || cfg.GlobalMemBytes != 12<<30 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if d.Name() != "sim-gpu" {
		t.Fatalf("default name = %q", d.Name())
	}
}

func BenchmarkKernelLaunchOverhead(b *testing.B) {
	d := New(Config{Workers: 4, Cost: DefaultCost})
	defer d.Close()
	s, _ := d.OpenStream()
	defer s.Close()
	grid := Grid{Blocks: 1, BlockDim: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LaunchAsync(grid, func(bc *BlockCtx) {})
	}
	s.Synchronize()
}
