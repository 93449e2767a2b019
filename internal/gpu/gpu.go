// Package gpu implements a software simulation of a CUDA-like GPU device.
//
// TagMatch (EuroSys '17) runs its subset-match stage on NVIDIA GPUs via
// CUDA. This reproduction has no GPU hardware, so this package provides
// the closest synthetic equivalent that exercises the same code paths:
//
//   - SPMD kernels launched over a grid of thread blocks; each block runs
//     its threads in barrier-separated phases and has block-local shared
//     state (the analogue of CUDA shared memory).
//   - Explicit device memory with an allocation budget, and host<->device
//     copies whose cost is modeled as a fixed per-call overhead plus a
//     per-byte bus cost (the PCI-Express bottleneck of §3.3.1).
//   - Streams: FIFO queues of copy/launch/callback operations. Operations
//     within a stream execute in order; operations in different streams
//     overlap, exactly the property TagMatch's workflow optimizations
//     (§3.3.2) depend on.
//   - Atomic operations on device memory (with an operation counter, since
//     atomic pressure is what sank the GPU-only design of §4.5).
//   - Nested ("dynamic parallelism") kernel launches from inside a kernel.
//
// Kernel "execution" is real work performed by a pool of worker goroutines
// (the simulated streaming multiprocessors), so relative throughput
// effects — batching amortizing per-call overhead, streams overlapping
// copy and compute, small batches wasting whole kernel invocations — all
// emerge from the same mechanisms as on real hardware.
//
// Block scheduling. A launch hands its grid to the SM workers as
// min(Workers, Blocks) claim tasks sharing one per-launch record. Each
// worker that receives a task claims block indices in order from the
// record's atomic counter and runs them back to back on its own BlockCtx
// and shared scratch until the grid is exhausted, so every block runs
// exactly once, one grid still spreads over every SM, and a worker that
// finishes early takes more blocks (dynamic load balancing, as a
// hardware block scheduler does). Concurrent launches from different
// streams queue their tasks on the same workers.
//
// What is modeled and what is not. CostModel charges the host-side
// driver costs real hardware has: a fixed cost per launch and per copy
// call, and a per-byte bus cost. Handing a block to an SM costs the
// simulation a host-side hand-off that real hardware does not pay and
// no CostModel term charges for; claiming blocks from a shared counter
// keeps that to one channel message per worker per launch, not one per
// block. SM busy time and BlocksExecuted are accounted once per claim
// task.
package gpu

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// CostModel describes the simulated fixed costs of driver calls and the
// simulated PCI-Express bus. Costs are paid by busy-waiting in the calling
// goroutine (driver overhead is CPU-side in reality too).
type CostModel struct {
	// LaunchOverhead is the fixed cost of a kernel launch.
	LaunchOverhead time.Duration
	// CopyOverhead is the fixed cost of a host<->device copy call.
	CopyOverhead time.Duration
	// CopyBytesPerSec is the simulated bus bandwidth; 0 disables the
	// per-byte cost.
	CopyBytesPerSec float64
}

// ZeroCost is a cost model with no simulated overheads, useful in unit
// tests that exercise correctness only.
var ZeroCost = CostModel{}

// DefaultCost approximates a PCIe 3.0 x16 link and CUDA driver call
// overheads, scaled down to keep simulated runs fast while preserving the
// ratio between per-call and per-byte costs. The fixed costs are kept
// small because they are paid by busy-waiting on the host CPU: on
// low-core-count hosts a larger charge would tax the hybrid pipeline for
// work that real hardware performs on independent silicon.
var DefaultCost = CostModel{
	LaunchOverhead:  2 * time.Microsecond,
	CopyOverhead:    1500 * time.Nanosecond,
	CopyBytesPerSec: 12e9,
}

func (c CostModel) copyCost(bytes int) time.Duration {
	d := c.CopyOverhead
	if c.CopyBytesPerSec > 0 {
		d += time.Duration(float64(bytes) / c.CopyBytesPerSec * float64(time.Second))
	}
	return d
}

// spinWait burns CPU until d has elapsed. Short simulated costs (a few
// microseconds) are far below time.Sleep granularity, and the real costs
// being modeled (driver calls) also occupy the CPU.
func spinWait(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// Config describes a simulated device.
type Config struct {
	// Name identifies the device in errors and stats.
	Name string
	// Workers is the number of simulated streaming multiprocessors, i.e.
	// thread blocks executing truly in parallel. Defaults to 4.
	Workers int
	// GlobalMemBytes is the device memory budget. Alloc fails beyond it.
	// Defaults to 12 GiB (a TITAN X, as in the paper's testbed).
	GlobalMemBytes int64
	// MaxStreams bounds the number of concurrently open streams; the
	// paper's platform allowed 10 per GPU. Defaults to 10.
	MaxStreams int
	// Cost is the simulated cost model. The zero value disables all
	// simulated overheads.
	Cost CostModel
	// OpLogSize is the number of recent operation records (copies,
	// kernel launches, with enqueue/start/done timestamps) the device
	// retains for timeline export; 0 disables the ring. The aggregate
	// overlap and busy-time accounting runs regardless.
	OpLogSize int
}

// Stats is a snapshot of device activity counters. A field with a prom
// tag is a metric declaration: the engine exports it per device,
// labeled {device=name} (see internal/obs).
type Stats struct {
	KernelLaunches    int64 `prom:"tagmatch_device_kernel_launches_total" help:"Kernel launches on the device."`
	NestedLaunches    int64
	BlocksExecuted    int64 `prom:"tagmatch_device_blocks_executed_total" help:"Thread blocks executed on the device."`
	AtomicOps         int64
	BytesHtoD         int64 `prom:"tagmatch_device_bytes_htod_total" help:"Bytes copied host-to-device."`
	BytesDtoH         int64 `prom:"tagmatch_device_bytes_dtoh_total" help:"Bytes copied device-to-host."`
	CopiesHtoD        int64 `prom:"tagmatch_device_copies_htod_total" help:"Host-to-device copies."`
	CopiesDtoH        int64 `prom:"tagmatch_device_copies_dtoh_total" help:"Device-to-host copies."`
	MemInUse          int64 `prom:"tagmatch_device_mem_bytes" help:"Device memory currently allocated."`
	MemHighWater      int64 `prom:"tagmatch_device_mem_high_water_bytes" help:"Peak device memory allocated."`
	InjectedFaults    int64
	InjectedSlowdowns int64

	// SMBusyNs is the cumulative wall time SM workers spent executing
	// thread blocks (see Device.Utilization for the derived fraction).
	SMBusyNs int64
	// KernelActiveNs/CopyActiveNs/OverlapNs are the copy/compute
	// concurrency accounting of Device.OverlapStats.
	KernelActiveNs int64
	CopyActiveNs   int64
	OverlapNs      int64
}

// Device is a simulated GPU.
type Device struct {
	name string
	cfg  Config
	// blockQ carries claim tasks to the SM workers; its buffer of
	// 4×Workers holds the tasks of four concurrent launches before a
	// launching stream blocks on the send.
	blockQ  chan *launchRec
	wg      sync.WaitGroup // SM workers
	closed  atomic.Bool
	streams struct {
		sync.Mutex
		open int
	}

	// faultState carries the fault-injection plan, the operation
	// sequence counter it draws from, and the device-death flag.
	faultState

	// rec is the op-record ring and copy/compute overlap accounting;
	// see oplog.go.
	rec       opRecorder
	createdAt time.Time
	smBusyNs  atomic.Int64
	streamSeq atomic.Int64

	memInUse     atomic.Int64
	memHighWater atomic.Int64

	kernelLaunches atomic.Int64
	nestedLaunches atomic.Int64
	blocksExecuted atomic.Int64
	atomicOps      atomic.Int64
	bytesHtoD      atomic.Int64
	bytesDtoH      atomic.Int64
	copiesHtoD     atomic.Int64
	copiesDtoH     atomic.Int64
}

// launchRec is one kernel launch in flight, shared by the claim tasks
// the launch enqueues: each SM worker that receives it claims block
// indices from next until the grid is exhausted, then marks its task
// done. Counter and WaitGroup live in one record so a launch costs one
// allocation whatever its grid size.
type launchRec struct {
	kernel KernelFunc
	grid   Grid
	next   atomic.Int64
	done   sync.WaitGroup
}

// ErrDeviceClosed is returned by operations on a closed device.
var ErrDeviceClosed = errors.New("gpu: device closed")

// ErrOutOfMemory is returned when an allocation exceeds the device budget.
var ErrOutOfMemory = errors.New("gpu: out of device memory")

// ErrTooManyStreams is returned when opening a stream beyond MaxStreams.
var ErrTooManyStreams = errors.New("gpu: too many streams")

// New creates a simulated device and starts its SM worker pool.
func New(cfg Config) *Device {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.GlobalMemBytes <= 0 {
		cfg.GlobalMemBytes = 12 << 30
	}
	if cfg.MaxStreams <= 0 {
		cfg.MaxStreams = 10
	}
	if cfg.Name == "" {
		cfg.Name = "sim-gpu"
	}
	d := &Device{
		name:      cfg.Name,
		cfg:       cfg,
		blockQ:    make(chan *launchRec, 4*cfg.Workers),
		createdAt: time.Now(),
	}
	if cfg.OpLogSize > 0 {
		d.rec.ring = make([]OpRecord, cfg.OpLogSize)
	}
	d.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go d.smWorker()
	}
	return d
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Config returns the configuration the device was created with (with
// defaults applied).
func (d *Device) Config() Config { return d.cfg }

// Close shuts down the worker pool. Outstanding streams must be closed
// first; launching after Close panics.
func (d *Device) Close() {
	if d.closed.CompareAndSwap(false, true) {
		close(d.blockQ)
		d.wg.Wait()
	}
}

func (d *Device) smWorker() {
	defer d.wg.Done()
	// One context per SM: its shared-memory scratch outlives the blocks
	// the SM runs, so a kernel's block-local buffers are allocated once
	// per SM, not once per block.
	ctx := &BlockCtx{dev: d}
	for l := range d.blockQ {
		t0 := time.Now()
		n := runClaimed(ctx, l)
		d.smBusyNs.Add(time.Since(t0).Nanoseconds())
		d.blocksExecuted.Add(int64(n))
		l.done.Done()
	}
}

// runClaimed claims l's block indices in order and runs them back to
// back on ctx until the grid is exhausted. It returns how many blocks it
// ran, which is 0 when other workers claimed them all first.
func runClaimed(ctx *BlockCtx, l *launchRec) int {
	ctx.Grid = l.grid
	n := 0
	for {
		blk := int(l.next.Add(1)) - 1
		if blk >= l.grid.Blocks {
			return n
		}
		ctx.BlockIdx = blk
		l.kernel(ctx)
		n++
	}
}

// Grid describes a kernel launch geometry: Blocks thread blocks of
// BlockDim threads each (1-D, as used by TagMatch).
type Grid struct {
	Blocks   int
	BlockDim int
}

// Threads returns the total number of threads in the grid.
func (g Grid) Threads() int { return g.Blocks * g.BlockDim }

// KernelFunc is the body of a kernel, invoked once per thread block.
// Within the body, run per-thread phases with BlockCtx.Threads; successive
// Threads calls have barrier semantics (all threads finish phase n before
// any starts phase n+1), which is how CUDA __syncthreads() is expressed in
// this simulation.
type KernelFunc func(b *BlockCtx)

// BlockCtx is the execution context of one thread block.
type BlockCtx struct {
	dev      *Device
	BlockIdx int
	Grid     Grid
	shared   any
}

// Shared returns the SM's shared-memory scratch: one value per SM that
// persists across the blocks the SM executes, the analogue of the CUDA
// shared memory a kernel declares once and every resident block reuses.
// A kernel stores its block-local buffers there (type-asserting what a
// previous block left) instead of allocating them per block. Blocks on
// one SM run one after another, so the scratch needs no locking; its
// contents are unspecified at block entry.
func (b *BlockCtx) Shared() *any { return &b.shared }

// Device returns the device executing this block.
func (b *BlockCtx) Device() *Device { return b.dev }

// Threads runs f once per thread in the block, passing the block-local
// thread id [0, BlockDim). A call to Threads is a barrier-delimited phase.
func (b *BlockCtx) Threads(f func(tid int)) {
	for tid := 0; tid < b.Grid.BlockDim; tid++ {
		f(tid)
	}
}

// GlobalID returns the grid-global thread id for a block-local tid,
// i.e. BlockIdx*BlockDim + tid — the paper's thread_id variable.
func (b *BlockCtx) GlobalID(tid int) int {
	return b.BlockIdx*b.Grid.BlockDim + tid
}

// FirstGlobalID returns the global id of the block's first thread
// (the paper's thread_block_first_id).
func (b *BlockCtx) FirstGlobalID() int { return b.BlockIdx * b.Grid.BlockDim }

// AtomicAddU32 atomically adds delta to *p and returns the OLD value, the
// semantics of CUDA's atomicAdd. The device counts atomic operations
// because atomic pressure is a first-order effect in the GPU-only design
// study (§4.5).
func (b *BlockCtx) AtomicAddU32(p *uint32, delta uint32) uint32 {
	b.dev.atomicOps.Add(1)
	return atomic.AddUint32(p, delta) - delta
}

// LaunchNested launches a kernel from inside a running kernel ("dynamic
// parallelism", §4.5) and waits for it. The nested grid's blocks execute
// inline in the calling worker: a real nested launch competes with the
// parent grid for SM resources, which inline execution conservatively
// models while avoiding pool deadlock.
func (b *BlockCtx) LaunchNested(grid Grid, kernel KernelFunc) {
	d := b.dev
	d.nestedLaunches.Add(1)
	spinWait(d.cfg.Cost.LaunchOverhead)
	// The parent block is still using its SM's context and scratch, so
	// the nested grid gets its own; the calling worker claims every block.
	ctx := &BlockCtx{dev: d}
	n := runClaimed(ctx, &launchRec{kernel: kernel, grid: grid})
	d.blocksExecuted.Add(int64(n))
}

// launch dispatches a grid to the SM workers and waits for its completion.
// It is called from a stream executor goroutine. It returns
// ErrDeviceClosed on a closed or dead device — rather than panicking, so
// stream error propagation can route the failure to the dispatching
// engine — and injected fault errors under an active FaultPlan. site
// identifies the issuing stream for the op-record telemetry.
func (d *Device) launch(grid Grid, kernel KernelFunc, site opSite) error {
	return d.launchZeroed(grid, kernel, nil, 0, site)
}

// launchZeroed is launch with an optional fused device-side reset: when
// zero is non-nil, its first zeroWords words are cleared after the
// fault/closed checks and before the blocks dispatch, inside the same
// recorded operation. This is how the per-batch result-header reset is
// folded into the kernel launch instead of costing a separate H2D copy.
// The previous launch on this stream has fully completed (the executor
// is serial), so plain-looking stores suffice; they are issued as
// atomic stores because the dispatched blocks update the same words
// with atomics.
func (d *Device) launchZeroed(grid Grid, kernel KernelFunc, zero *Buffer[uint32], zeroWords int, site opSite) error {
	slow, err := d.opCheck(opLaunch, d.cfg.Cost.LaunchOverhead)
	if err != nil {
		return err
	}
	if d.closed.Load() {
		return ErrDeviceClosed
	}
	if zero != nil {
		if zero.freed {
			return fmt.Errorf("gpu: fused reset on freed buffer")
		}
		if zeroWords < 0 || zeroWords > len(zero.data) {
			return fmt.Errorf("gpu: fused reset out of range: %d > len %d",
				zeroWords, len(zero.data))
		}
		for i := 0; i < zeroWords; i++ {
			atomic.StoreUint32(&zero.data[i], 0)
		}
	}
	d.kernelLaunches.Add(1)
	start := d.opBegin(OpKernel)
	spinWait(d.cfg.Cost.LaunchOverhead)
	d.paySlow(slow)
	if grid.Blocks <= 0 || grid.BlockDim <= 0 {
		d.opDone(OpKernel, site, 0, 0, start)
		return nil
	}
	// One claim task per SM that can take part, all sharing one record:
	// the workers split the grid between them through its block counter.
	l := &launchRec{kernel: kernel, grid: grid}
	tasks := min(d.cfg.Workers, grid.Blocks)
	l.done.Add(tasks)
	for i := 0; i < tasks; i++ {
		d.blockQ <- l
	}
	l.done.Wait()
	d.opDone(OpKernel, site, 0, grid.Blocks, start)
	return nil
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	ov := d.OverlapStats()
	return Stats{
		KernelLaunches:    d.kernelLaunches.Load(),
		NestedLaunches:    d.nestedLaunches.Load(),
		BlocksExecuted:    d.blocksExecuted.Load(),
		AtomicOps:         d.atomicOps.Load(),
		BytesHtoD:         d.bytesHtoD.Load(),
		BytesDtoH:         d.bytesDtoH.Load(),
		CopiesHtoD:        d.copiesHtoD.Load(),
		CopiesDtoH:        d.copiesDtoH.Load(),
		MemInUse:          d.memInUse.Load(),
		MemHighWater:      d.memHighWater.Load(),
		InjectedFaults:    d.injectedFaults.Load(),
		InjectedSlowdowns: d.injectedSlowdowns.Load(),
		SMBusyNs:          d.smBusyNs.Load(),
		KernelActiveNs:    ov.KernelNs,
		CopyActiveNs:      ov.CopyNs,
		OverlapNs:         ov.OverlapNs,
	}
}

// MemInUse returns the current simulated device memory consumption.
func (d *Device) MemInUse() int64 { return d.memInUse.Load() }

// reserve accounts a device memory allocation against the budget.
func (d *Device) reserve(bytes int64) error {
	for {
		cur := d.memInUse.Load()
		if cur+bytes > d.cfg.GlobalMemBytes {
			return fmt.Errorf("%w: in use %d + requested %d > budget %d on %s",
				ErrOutOfMemory, cur, bytes, d.cfg.GlobalMemBytes, d.name)
		}
		if d.memInUse.CompareAndSwap(cur, cur+bytes) {
			break
		}
	}
	for {
		hw := d.memHighWater.Load()
		cur := d.memInUse.Load()
		if cur <= hw || d.memHighWater.CompareAndSwap(hw, cur) {
			break
		}
	}
	return nil
}

func (d *Device) release(bytes int64) {
	d.memInUse.Add(-bytes)
}
