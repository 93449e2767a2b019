package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// Engine is a TagMatch subset-matching engine (Table 2 of the paper):
//
//	add-set(set, key)       AddSet / AddSignature
//	remove-set(set, key)    RemoveSet / RemoveSignature
//	consolidate()           Consolidate
//	match(q)                Match / Submit / SubmitWait of a Request
//	match-unique(q)         the same, with Request.Unique set
//
// Additions and removals are staged in an operation log and, by
// default, simultaneously absorbed into a match-visible delta overlay
// (see delta.go): an AddSet is matchable by the very next query, and a
// RemoveSet suppresses its key immediately, without waiting for a
// rebuild. A background consolidator folds the overlay into the
// partitioned main index (Algorithm 1) once it outgrows
// Config.DeltaMaxSets / Config.DeltaMaxRatio, pausing traffic only for
// the drain + device-upload swap. Consolidate remains as the explicit
// synchronous (stop-the-world) form; with Config.DisableLiveUpdates,
// staged operations stay invisible until a Consolidate.
type Engine struct {
	cfg Config

	// devices are the Config.GPUs simulated devices, created by New and
	// closed by Close.
	devices []*gpu.Device

	// submitMu serializes index swaps against query submission: Submit
	// holds it shared for the enqueue only; Consolidate holds it
	// exclusively across drain + rebuild.
	submitMu sync.RWMutex

	// stagedMu guards the staging area, and its pairing with the live
	// index: a consolidation drops the ops it folded from the log in the
	// same critical section that swaps the index in, so the live index ⊕
	// staged is the database at every instant. The delta overlay is
	// updated in the same critical section that appends a staged op
	// (lock order stagedMu -> delta.mu), keeping overlay and op log in
	// lockstep.
	stagedMu sync.Mutex
	staged   []stagedOp

	// delta is the match-visible overlay over staged; see delta.go.
	delta delta

	// consolidateMu serializes consolidations (explicit Consolidate vs
	// the background consolidator); the channels drive the background
	// goroutine's kick/stop handshake (nil when the overlay is disabled).
	consolidateMu sync.Mutex
	consolKick    chan struct{}
	consolStop    chan struct{}
	consolDone    chan struct{}

	// idx is the live index — the one consolidated copy of the database —
	// immutable between consolidates and swapped under submitMu and
	// stagedMu.
	idx atomic.Pointer[index]

	inputCh  chan *query
	reduceCh chan *openBatch
	workerWg sync.WaitGroup
	reduceWg sync.WaitGroup

	flushStop chan struct{}
	flushDone chan struct{}
	flushKick chan struct{} // a worker found the log full; holds one kick

	// drainCond is broadcast on pipeline progress (a query finishing
	// pre-processing or completing, a batch leaving the reduce stage) so
	// await waits event-driven instead of polling. The broadcast is
	// skipped entirely while drainWaiters is zero.
	drainMu       sync.Mutex
	drainCond     *sync.Cond
	drainWaiters  atomic.Int32
	progressEpoch atomic.Int64

	// obs is the pipeline-wide observability layer: per-stage latency
	// histograms, per-partition hot-spot counters, sampled traces, and
	// every counter Stats reports (obs.FlowCounters and the rest).
	obs *obs.Pipeline

	closed atomic.Bool

	dispatchSeq     atomic.Uint64 // stamps each dispatched batch; see dispatch
	inflightBatches atomic.Int64

	// pools recycles hot-path objects (queries, batches, pass scratch);
	// see pool.go.
	pools enginePools

	// queryLockAcqs counts reduce-stage acquisitions of query mutexes.
	// The batch-local reduce takes each query's lock at most once per
	// (query, batch) — regression-tested against this counter.
	queryLockAcqs atomic.Int64

	// health holds the per-device circuit breakers of the fault-tolerant
	// dispatch path, indexed like devices; see health.go.
	health []deviceHealth

	// log is the resolved Config.Logger (a discard logger when nil).
	log *slog.Logger
}

type stagedOp struct {
	sig    bitvec.Vector
	key    Key
	tags   []string // retained only in ExactVerify mode
	remove bool
}

// index is one generation of the consolidated matching state and the
// engine's master copy of the database: a signature keeps one row for the
// life of a layout, and row r's entries are always
// keys[keyOff[r]:keyOff[r+1]] (see index.row). The layout is shared by
// every generation between two full builds; what a generation adds is its
// key table and its entry log, the one mutable part, guarded by its own
// mutex.
type index struct {
	*layout

	keyOff  []uint32 // CSR offsets into keys; len(sets)+1
	keys    []Key
	keyTags [][]string // aligned with keys; populated only in ExactVerify mode

	// emptyRows counts rows whose key list is empty: their signatures
	// still occupy a kernel lane until a re-add refills them or the next
	// full build drops them (incrementalEligible bounds them).
	emptyRows int

	// log holds the entries routed against this generation until a flush
	// pass takes them. A consolidation drains the pipeline before it swaps
	// generations, so a retired index's log is empty.
	log entryLog
}

// layout is what a full build lays out and an incremental fold keeps: the
// rows, partitioned and ordered, their transposed groups and run nodes,
// the tables that route to them and find them, and the devices holding
// them. It is immutable once published, but for the group cache's slots a
// host-side match fills. A full build is the only thing that creates a
// layout and the only thing that releases one.
type layout struct {
	// sets is the flat tagset table, partition-major. Within a partition
	// the rows are in the order newLayout laid them out: 64-aligned
	// clusters (partition.go: clusterer).
	sets []bitvec.Vector
	// groups caches, by partition id, the column-transposed rows the
	// subset-match kernel reads: ⌈n/64⌉ groups, local set i in lane i%64
	// of group i/64. A build fills every slot (the run nodes and the upload
	// need them); attachDevices empties it once the devices hold the
	// groups, and a host-side match refills the slots it needs from the
	// rows (slicedPart). A layout without devices — GPUs: 0, or degraded —
	// holds every slot: it is the CPU kernel's index.
	groups []groupSlot
	// runs holds the run nodes of every partition's groups
	// (partition.runOff/nRuns; kernel_sliced.go: runNode), device by
	// device. They stay on the host beside the rows, for the upload and
	// the host-side match.
	runs []runNode
	// groupBuf is the one array a build transposes every partition's
	// groups into, the cache's slots windows of it, until attachDevices
	// drops the cache. Groups and run nodes lie device by device: device
	// d's partitions, in partition order, from stretchAt[d] to
	// stretchAt[d+1], so an upload sends its stretch as it lies
	// (stretchOf). A layout without devices is one stretch.
	groupBuf  []bitvec.SlicedGroup
	stretchAt []stretch
	parts     []partition
	pt        *partitionTable
	maskless  []uint32 // partitions with empty mask (degenerate databases)

	// rows maps each signature to its row (rowtable.go), filled by the
	// full build once the rows are laid out.
	rows rowTable

	devices   []*gpu.Device
	devShards []shard // transposed index per device; nil once degraded to CPU

	slots      *slotPool // the idle streams of every device
	allStreams []*streamSlot

	// dispatching fences release() against attempt chains that may still
	// touch a stream, a retry's goroutine among them: a query that expires
	// in one batch's dispatch-time sweep completes while another batch
	// still carries it to a device, so a drained pipeline is not a quiet
	// one. Held from chain start until the chain can no longer touch a
	// stream. Every generation on the layout holds the one fence.
	dispatching sync.WaitGroup

	// hostBytes is the live generation's host memory (hostBytesFor), set
	// when a generation is published and grown by slicedPart as it fills
	// the cache.
	hostBytes atomic.Int64
}

// stretch is where one device's groups and run nodes start in a layout.
type stretch struct{ groups, runs uint32 }

// groupSlot is one partition's entry in layout.groups: its groups, or nil
// while the host does not hold them. once guards the one build a host-side
// match makes of a published index's partition.
type groupSlot struct {
	once sync.Once
	g    []bitvec.SlicedGroup
}

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("tagmatch: engine closed")

// ErrBatchSizeTooLarge is returned by New for Config.BatchSize > 256.
// Query ids within a batch are 8-bit in the packed result layout
// (§3.3.1) and throughout the reduce stage, so a larger batch size
// would silently alias query indices and corrupt results.
var ErrBatchSizeTooLarge = errors.New("tagmatch: BatchSize exceeds 256 (query ids within a batch are 8-bit)")

// ErrOverloaded is returned by Submit and Match when the admission gate
// rejects a query: Config.MaxInFlight queries were already in flight. The
// caller should shed load or back off and retry (the HTTP layer maps
// this to 503 with a Retry-After); SubmitWait waits for capacity
// instead.
var ErrOverloaded = errors.New("tagmatch: engine overloaded")

// ErrDeadlineExceeded is the terminal status of a query whose context
// deadline passed (or whose context was cancelled) before its batches
// launched: the query completes early with MatchResult.Err matching this
// error, and its expired batch slots never reach a kernel. Deadlines are
// only observed at pipeline stage boundaries — a query already running
// on a device finishes normally.
var ErrDeadlineExceeded = errors.New("tagmatch: query deadline exceeded")

// ErrDeviceDegraded is returned (wrapped) by Consolidate when uploading
// the index to the configured devices failed — typically device memory
// exhaustion, matchable with errors.Is(err, gpu.ErrOutOfMemory) — and
// the engine installed a CPU-only index instead. The engine remains
// fully usable; only the GPU offload is lost until the next successful
// Consolidate.
var ErrDeviceDegraded = errors.New("tagmatch: device upload failed, running CPU-only")

// New creates an engine. The engine starts with an empty database; sets
// staged with AddSet are matchable immediately through the delta
// overlay, and an explicit Consolidate after a bulk load folds them
// into the partitioned main index in one rebuild (the background
// consolidator would otherwise do it in Config.DeltaMaxSets increments).
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	devices := make([]*gpu.Device, cfg.GPUs)
	for i := range devices {
		gcfg := gpu.Config{Name: fmt.Sprintf("sim-gpu-%d", i), Workers: cfg.GPUWorkers, GlobalMemBytes: cfg.GPUMemBytes}
		if !cfg.DisableObservability {
			gcfg.OpLogSize = opLogSize
		}
		if cfg.RealisticGPUCosts {
			gcfg.Cost = gpu.DefaultCost
		}
		devices[i] = gpu.New(gcfg)
	}
	e := &Engine{
		cfg:      cfg,
		devices:  devices,
		inputCh:  make(chan *query, 4*cfg.BatchSize),
		reduceCh: make(chan *openBatch, 64),

		flushStop: make(chan struct{}),
		flushDone: make(chan struct{}),
		flushKick: make(chan struct{}, 1),
		obs: obs.New(obs.Options{
			Disabled:   cfg.DisableObservability,
			TraceEvery: cfg.TraceEvery,
		}),
	}
	e.drainCond = sync.NewCond(&e.drainMu)
	e.log = cfg.Logger
	if e.log == nil {
		e.log = slog.New(slog.DiscardHandler)
	}
	e.idx.Store(emptyIndex())
	e.initHealth()
	e.registerGauges()
	e.delta.init()
	if !cfg.DisableLiveUpdates {
		e.consolKick = make(chan struct{}, 1)
		e.consolStop = make(chan struct{})
		e.consolDone = make(chan struct{})
		go e.consolidatorLoop()
	}

	preWorkers := cfg.Threads / 2
	if preWorkers < 1 {
		preWorkers = 1
	}
	reduceWorkers := cfg.Threads - preWorkers
	if reduceWorkers < 1 {
		reduceWorkers = 1
	}
	e.workerWg.Add(preWorkers)
	for i := 0; i < preWorkers; i++ {
		go e.preprocessWorker()
	}
	e.reduceWg.Add(reduceWorkers)
	for i := 0; i < reduceWorkers; i++ {
		go e.reduceWorker()
	}
	go e.flusher()
	return e, nil
}

// Obs returns the engine's observability layer. The returned pipeline is
// live: snapshots taken from it reflect activity up to the moment of the
// call.
func (e *Engine) Obs() *obs.Pipeline { return e.obs }

// registerGauges installs the gauges the export surfaces evaluate when
// they read them (obs.EngineGauges), and each device's series.
func (e *Engine) registerGauges() {
	g := &e.obs.Gauges
	g.UniqueSets = func() float64 { return float64(len(e.idx.Load().sets)) }
	g.Partitions = func() float64 { return float64(len(e.idx.Load().parts)) }
	g.Keys = func() float64 { return float64(len(e.idx.Load().keys)) }
	g.HostBytes = func() float64 { return float64(e.idx.Load().hostBytes.Load()) }
	g.InputQueue = func() float64 { return float64(len(e.inputCh)) }
	g.ReduceQueue = func() float64 { return float64(len(e.reduceCh)) }
	g.InflightBatches = func() float64 { return float64(e.inflightBatches.Load()) }
	g.StagedOps = func() float64 { return float64(e.PendingOps()) }
	g.DeltaAdds = func() float64 { return float64(e.delta.addsLive.Load()) }
	g.DeltaTombstones = func() float64 { return float64(e.delta.tombsLive.Load()) }
	g.DeltaAge = e.delta.ageNs
	g.RoutedLogEntries = func() float64 {
		lg := &e.idx.Load().log
		lg.mu.Lock()
		defer lg.mu.Unlock()
		return float64(len(lg.entries))
	}
	g.StreamsIdle = func() float64 {
		if p := e.idx.Load().slots; p != nil {
			return float64(p.idle())
		}
		return 0
	}
	g.OverlapFraction = func() float64 {
		var kernelNs, overlapNs int64
		for _, dev := range e.devices {
			s := dev.OverlapStats()
			kernelNs += s.KernelNs
			overlapNs += s.OverlapNs
		}
		if kernelNs == 0 {
			return 0
		}
		return float64(overlapNs) / float64(kernelNs)
	}
	g.DevicesQuarantined = func() float64 {
		n := 0
		for i := range e.health {
			if e.health[i].quarantined.Load() {
				n++
			}
		}
		return float64(n)
	}
	g.StreamOpsPending = func() float64 { return float64(e.streamQueueDepth(-1)) }
	e.obs.Devices = func() []obs.Labeled {
		var out []obs.Labeled
		for di, dev := range e.devices {
			lbl := obs.Labels{{"device", dev.Name()}}
			out = append(out, obs.Labeled{Labels: lbl, Value: dev.Stats()}, obs.Labeled{Labels: lbl, Value: e.DeviceGauges(di)})
		}
		return out
	}
}

// Devices returns the engine's simulated devices, in Config.GPUs order.
func (e *Engine) Devices() []*gpu.Device { return e.devices }

// DeviceGauges returns the derived gauges of device dev (an index into
// Devices).
func (e *Engine) DeviceGauges(dev int) obs.DeviceGauges {
	d := e.devices[dev]
	return obs.DeviceGauges{
		OverlapFraction:  d.OverlapFraction(),
		Utilization:      d.Utilization(),
		StreamQueueDepth: e.streamQueueDepth(dev),
	}
}

// streamQueueDepth counts the operations queued and not yet started on
// device dev's streams, or on every device's when dev is negative.
func (e *Engine) streamQueueDepth(dev int) int {
	n := 0
	for _, sl := range e.idx.Load().allStreams {
		if dev < 0 || sl.dev == dev {
			n += sl.stream.QueueDepth()
		}
	}
	return n
}

// partCounters returns the hot-spot counters for a partition, or nil
// when observability is disabled (or the index was swapped mid-flight).
func (e *Engine) partCounters(pid uint32) *obs.PartitionCounters {
	if !e.obs.On {
		return nil
	}
	return e.obs.Parts.Get(pid)
}

// notifyProgress advances the progress epoch and wakes await's waiters
// after a pipeline progress event. The atomic waiter check keeps
// the common no-waiter case to two atomic operations on the completion
// path.
func (e *Engine) notifyProgress() {
	e.progressEpoch.Add(1)
	if e.drainWaiters.Load() == 0 {
		return
	}
	e.drainMu.Lock()
	e.drainCond.Broadcast()
	e.drainMu.Unlock()
}

// AddSet stages the addition of a tag set with an associated key. The
// set is matchable by the next query through the delta overlay (unless
// Config.DisableLiveUpdates defers visibility to the next Consolidate).
// In ExactVerify mode the original tags are retained so matches can be
// confirmed exactly (Bloom signatures alone admit rare false positives).
func (e *Engine) AddSet(tags []string, key Key) {
	op := stagedOp{sig: bloom.Signature(tags), key: key}
	if e.cfg.ExactVerify {
		op.tags = append([]string(nil), tags...)
	}
	e.stageOp(op)
}

// AddSignature stages the addition of a pre-computed signature, with the
// same immediate visibility as AddSet.
func (e *Engine) AddSignature(sig bitvec.Vector, key Key) {
	e.stageOp(stagedOp{sig: sig, key: key})
}

// RemoveSet stages the removal of one (set, key) association; the key
// stops matching immediately (a tombstone suppresses the main-index
// entry, or the pending overlay add is cancelled) unless the overlay is
// disabled.
func (e *Engine) RemoveSet(tags []string, key Key) {
	e.RemoveSignature(bloom.Signature(tags), key)
}

// RemoveSignature stages the removal of one (signature, key)
// association, with the same immediate effect as RemoveSet.
func (e *Engine) RemoveSignature(sig bitvec.Vector, key Key) {
	e.stageOp(stagedOp{sig: sig, key: key, remove: true})
}

// stageOp appends one op to the log, absorbs it into the delta overlay
// in the same critical section, and wakes the background consolidator if
// the overlay outgrew its threshold.
func (e *Engine) stageOp(op stagedOp) {
	e.stagedMu.Lock()
	e.staged = append(e.staged, op)
	if !e.cfg.DisableLiveUpdates {
		e.delta.absorb(e.idx.Load(), op)
		e.obs.Delta.AbsorbedOps.Add(1)
	}
	e.stagedMu.Unlock()
	e.maybeKickConsolidator()
}

// PendingOps returns the number of staged, unconsolidated operations.
func (e *Engine) PendingOps() int {
	e.stagedMu.Lock()
	defer e.stagedMu.Unlock()
	return len(e.staged)
}

// Consolidate synchronously applies all staged operations and rebuilds
// the index: the balanced partitioning of Algorithm 1, the clustered row
// order within partitions, the partition table, the key table, and the
// device-resident transposed index. It drains in-flight queries first
// and blocks new submissions for the full rebuild — the stop-the-world
// form, kept as the explicit bulk-load API. The background consolidator
// runs the same rebuild but pauses traffic only for the drain +
// device-upload swap (see consolidator.go).
//
// If the device upload fails (errors.Is(err, ErrDeviceDegraded), with
// the underlying cause — e.g. gpu.ErrOutOfMemory — in the chain), the
// rebuilt index is still installed in CPU-only form: matching keeps
// working on the host, only the GPU offload is lost.
func (e *Engine) Consolidate() error {
	if e.closed.Load() {
		return ErrClosed
	}
	return e.consolidateOnce(false, setList{})
}

// emptyIndex is the index of an empty database, which the engine starts
// with and a full swap stands in while it releases the old layout.
func emptyIndex() *index {
	return &index{layout: &layout{pt: &partitionTable{}}}
}

// buildHostIndex constructs the host-side half of a fresh index from a
// database listing: partitioning, ordered flat table, transposed groups,
// key table, row table, partition table. It touches no device state, so
// the background consolidator can run it while the previous index still
// holds every device's memory; attachDevices completes the index inside
// the swap's critical section. It consumes db: Algorithm 1 splits its
// signatures in place.
func (e *Engine) buildHostIndex(db setList) *index {
	specs := e.partition(db.sigs)
	withTags := e.cfg.ExactVerify
	// Each partition's slice of the key CSR: ordering permutes a
	// partition's members but not the sum of their entries.
	keyAt := make([]uint32, len(specs)+1)
	for i := range specs {
		n := keyAt[i]
		for _, m := range specs[i].members {
			n += db.off[m+1] - db.off[m]
		}
		keyAt[i+1] = n
	}
	idx := &index{keyOff: make([]uint32, len(db.sigs)+1), keys: make([]Key, keyAt[len(specs)])}
	if withTags {
		idx.keyTags = make([][]string, len(idx.keys))
	}
	rowOf := make([]uint32, len(db.sigs))
	idx.layout = newLayout(specs, len(e.devices), func(p int, members []int32, off uint32) {
		k := keyAt[p]
		for j, m := range members {
			lo, hi := db.off[m], db.off[m+1]
			copy(idx.keys[k:], db.keys[lo:hi])
			if withTags {
				copy(idx.keyTags[k:], db.tags[lo:hi])
			}
			k += hi - lo
			idx.keyOff[off+uint32(j)+1] = k
			rowOf[m] = off + uint32(j)
		}
	})
	l := idx.layout
	l.devices = e.devices
	l.rows = db.rows
	l.rows.rekey(rowOf)
	l.pt, l.maskless = buildPartitionTable(l.parts)
	return idx
}

// partition runs the configured partitioner over sigs, which it may
// reorder.
func (e *Engine) partition(sigs []bitvec.Vector) []partitionSpec {
	if e.cfg.FirstFitPartitioning {
		return firstFitPartition(sigs, e.cfg.MaxPartitionSize)
	}
	return splitBalanced(sigs, e.cfg.MaxPartitionSize)
}

// newLayout is the one place partitions become rows. It places every
// partition before any is ordered — its rows and its groups by the spec's
// size, its device round-robin over nDev — and then workers take
// partitions off a shared counter. A worker clusters a partition's members
// (clusterer.layOut) straight into its rows, column-transposes them into
// its slice of the one exactly-sized group array, derives its run nodes
// and calls fill with the members in row order and the first row's id, so
// the caller writes its per-row data in the same pass. Partitions are
// independent, so the result does not depend on scheduling. The run
// nodes, whose count is known only once derived, are joined at the end.
// Groups and run nodes lie device by device (layout.stretchAt), so a
// device's upload sends one stretch of each as it lies. Full builds and
// KernelBenchmark both lay out through here, so they cannot disagree on
// the order or on the run tree.
func newLayout(specs []partitionSpec, nDev int, fill func(p int, members []int32, off uint32)) *layout {
	l := &layout{parts: make([]partition, len(specs)), groups: make([]groupSlot, len(specs))}
	var nSets uint32
	for i := range specs {
		p := &l.parts[i]
		*p = partition{mask: specs[i].mask, off: nSets, n: uint32(len(specs[i].members))}
		if nDev > 0 {
			p.dev = i % nDev
		}
		nSets += p.n
	}
	// Device d's partitions are d, d+nDev, ...; a layout without devices
	// is one stretch of every partition.
	nStretch := max(nDev, 1)
	l.stretchAt = make([]stretch, nStretch+1)
	groupAt := make([]uint32, len(specs))
	var nG uint32
	for d := range nStretch {
		l.stretchAt[d].groups = nG
		for i := d; i < len(specs); i += nStretch {
			p := &l.parts[i]
			groupAt[i], p.devOff = nG, nG-l.stretchAt[d].groups
			nG += p.nGroups()
		}
	}
	l.stretchAt[nStretch].groups = nG
	l.sets = make([]bitvec.Vector, nSets)
	l.groupBuf = make([]bitvec.SlicedGroup, nG)
	runs := make([][]runNode, len(specs))
	weight := clusterWeights(specs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(specs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := clusterer{weight: weight}
			for i := int(next.Add(1)) - 1; i < len(specs); i = int(next.Add(1)) - 1 {
				p := &l.parts[i]
				rows := l.sets[p.off : p.off+p.n]
				c.layOut(&specs[i], rows)
				at := groupAt[i]
				g := bitvec.AppendSlicedGroups(l.groupBuf[at:at:at+p.nGroups()], rows)
				l.groups[i].g = g
				runs[i] = deriveRuns(nil, g)
				if fill != nil {
					fill(i, specs[i].members, p.off)
				}
			}
		}()
	}
	wg.Wait()
	nR := 0
	for i := range runs {
		nR += len(runs[i])
	}
	l.runs = make([]runNode, 0, nR)
	for d := range nStretch {
		l.stretchAt[d].runs = uint32(len(l.runs))
		for i := d; i < len(specs); i += nStretch {
			p := &l.parts[i]
			p.runOff, p.nRuns = uint32(len(l.runs)), uint32(len(runs[i]))
			p.devRunOff = p.runOff - l.stretchAt[d].runs
			l.runs = append(l.runs, runs[i]...)
		}
	}
	l.stretchAt[nStretch].runs = uint32(len(l.runs))
	return l
}

// stretchOf returns device d's groups and run nodes, as newLayout laid
// them out. Only a freshly built layout, whose cache holds every
// partition's groups, has them.
func (idx *layout) stretchOf(d int) ([]bitvec.SlicedGroup, []runNode) {
	lo, hi := idx.stretchAt[d], idx.stretchAt[d+1]
	return idx.groupBuf[lo.groups:hi.groups], idx.runs[lo.runs:hi.runs]
}

// slicedPart returns partition pid's slice of the transposed index — its
// groups and their run nodes — for a host-side match. When the devices
// hold the groups, the first call on the layout builds the partition's
// from its rows and caches them; reduce workers asking at once wait for
// that one build.
func (idx *layout) slicedPart(pid uint32) ([]bitvec.SlicedGroup, []runNode) {
	p, s := &idx.parts[pid], &idx.groups[pid]
	s.once.Do(func() {
		if s.g == nil {
			s.g = bitvec.BuildSlicedGroups(idx.sets[p.off : p.off+p.n])
			idx.hostBytes.Add(int64(len(s.g)) * slicedGroupBytes)
		}
	})
	return s.g, idx.runs[p.runOff : p.runOff+p.nRuns]
}

// dropGroups empties the group cache of a layout whose devices accepted
// its upload. The layout is not yet published, so no slot is being built.
func (idx *layout) dropGroups() {
	for i := range idx.groups {
		idx.groups[i].g = nil
	}
	idx.groupBuf = nil
}

// appendKeys extends the key CSR by one row holding ents.
func (idx *index) appendKeys(ents entryList, withTags bool) {
	idx.keys = append(idx.keys, ents.keys...)
	if withTags {
		idx.keyTags = append(idx.keyTags, ents.tags...)
	}
	idx.keyOff = append(idx.keyOff, uint32(len(idx.keys)))
}

// hostBytesFor is the host memory accounting (Fig 9), by the capacity the
// index holds: the tagset table (24 B/set), the key table and its CSR
// offsets, the row table (4 B per slot), the run nodes (40 B each), the
// partition descriptors with their group-cache slots, and the partition
// table (scalar bins + bit-sliced groups) — the paper's host side. The
// transposed groups (1592 B per 64-set SlicedGroup ≈ 24.9 B/set) count
// only while the host holds them: all of them on an index without
// devices, none on a device-backed one until a host-side match builds
// some (slicedPart adds those).
func hostBytesFor(idx *index) int64 {
	var held int64
	for i := range idx.groups {
		held += int64(len(idx.groups[i].g))
	}
	return int64(cap(idx.sets))*24 +
		int64(len(idx.rows))*4 +
		held*slicedGroupBytes +
		int64(cap(idx.runs))*runNodeBytes +
		int64(cap(idx.keys))*4 +
		int64(cap(idx.keyOff))*4 +
		int64(idx.pt.entries())*28 +
		idx.pt.slicedBytes() +
		int64(cap(idx.parts))*int64(unsafe.Sizeof(partition{})) +
		int64(cap(idx.groups))*int64(unsafe.Sizeof(groupSlot{}))
}

// attachDevices uploads a freshly built layout to the configured devices
// and opens its stream pools; the host then drops its groups. On failure
// the layout is degraded in place to a usable CPU-only form (dispatch
// sees no devices and runs every batch on the host, against the groups
// the build left in the cache) and an ErrDeviceDegraded-wrapped error is
// returned.
func (e *Engine) attachDevices(idx *layout) error {
	if len(idx.devices) == 0 {
		return nil
	}
	if err := e.uploadToDevices(idx); err != nil {
		// Device upload failed (out of device memory, too few streams, a
		// dead device): degrade to a CPU-only index rather than leaving
		// the engine without a database.
		idx.release()
		idx.devices = nil
		idx.slots = nil
		return fmt.Errorf("%w: %w", ErrDeviceDegraded, err)
	}
	idx.dropGroups()
	return nil
}

// slicedGroupBytes is the in-memory size of one bitvec.SlicedGroup:
// 192 column words + 3 used-mask words + the valid word + the 3-word
// gate, 8 bytes each. Asserted against unsafe.Sizeof in the tests.
const slicedGroupBytes = (bitvec.W + bitvec.Blocks + 1 + bitvec.Blocks) * 8

// uploadToDevices allocates and fills the device-resident index — the
// transposed groups and their run nodes — and opens the stream pools with
// their per-stream batch buffers. Device d holds only the partitions it
// owns (partition.dev), its stretch of the layout (stretchOf).
func (e *Engine) uploadToDevices(idx *layout) error {
	idx.devShards = make([]shard, len(idx.devices))
	for d, dev := range idx.devices {
		groups, runs := idx.stretchOf(d)
		var err error
		if idx.devShards[d], err = uploadShard(dev, groups, runs); err != nil {
			return fmt.Errorf("uploading index to %s: %w", dev.Name(), err)
		}
	}

	idx.slots = newSlotPool(len(idx.devices) * e.cfg.StreamsPerGPU)
	for d, dev := range idx.devices {
		for i := 0; i < e.cfg.StreamsPerGPU; i++ {
			s, err := dev.OpenStream()
			if err != nil {
				if errors.Is(err, gpu.ErrTooManyStreams) && i > 0 {
					break // use as many as the device allows
				}
				return err
			}
			// Feed every device op issued through the stream into the
			// per-op-kind histograms and the issuing batch's trace (the
			// stream rides on the op's attribution tag).
			s.OnOp(e.observeGPUOp)
			sl := &streamSlot{dev: d, stream: s}
			sl.qbuf, err = gpu.Alloc[bitvec.Vector](dev, e.cfg.BatchSize)
			if err == nil {
				// The segment table; a batch has at most one segment
				// per entry.
				sl.tab, err = gpu.Alloc[uint32](dev, e.cfg.BatchSize*segWords)
			}
			if err == nil {
				sl.hdr, err = gpu.Alloc[uint32](dev, resHeaderWords)
			}
			if err == nil {
				sl.pairs, err = gpu.Alloc[byte](dev, pairBufBytes(e.cfg.maxPairsPerBatch))
			}
			if err != nil {
				sl.close()
				return fmt.Errorf("allocating stream buffers on %s: %w", dev.Name(), err)
			}
			idx.allStreams = append(idx.allStreams, sl)
			idx.slots.put(sl)
		}
	}
	return nil
}

// uploadBuffer allocates a device buffer holding src.
func uploadBuffer[T any](dev *gpu.Device, src []T) (*gpu.Buffer[T], error) {
	buf, err := gpu.Alloc[T](dev, len(src))
	if err != nil {
		return nil, err
	}
	if err := buf.CopyToDevice(0, src); err != nil {
		buf.Free()
		return nil, err
	}
	return buf, nil
}

// uploadShard allocates the device buffers of one shard of the transposed
// index.
func uploadShard(dev *gpu.Device, groups []bitvec.SlicedGroup, runs []runNode) (s shard, err error) {
	if s.groups, err = uploadBuffer(dev, groups); err != nil {
		return shard{}, err
	}
	if s.runs, err = uploadBuffer(dev, runs); err != nil {
		s.groups.Free()
		return shard{}, err
	}
	return s, nil
}

// release frees a layout's device resources. Called only after the
// pipeline has drained, so no kernel references the buffers. The
// dispatching fence additionally waits out attempt chains — a retry's
// goroutine among them — that can still be enqueueing stream operations
// after the drain.
func (idx *layout) release() {
	idx.dispatching.Wait()
	for _, sl := range idx.allStreams {
		sl.stream.Synchronize()
		sl.close()
	}
	idx.allStreams = nil
	for _, s := range idx.devShards {
		s.free()
	}
	idx.devShards = nil
}

// Close drains the pipeline and releases all resources, the simulated
// devices last. The engine cannot be used afterwards: Submit returns
// ErrClosed.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Stop the background consolidator before tearing the pipeline down:
	// a swap in flight completes (its drain still has live workers), and
	// no new one can start once closed is set.
	if e.consolStop != nil {
		close(e.consolStop)
		<-e.consolDone
	}
	// Dispatchers parked waiting for a stream slot — the flusher among
	// them — give up on the closed engine and finish on the host.
	if p := e.idx.Load().slots; p != nil {
		p.wake()
	}
	// The workers go first: one may be waiting for the flusher to take
	// its kick. The write lock waits out every submitter that found the
	// engine open, so none sends on the closed channel.
	e.submitMu.Lock()
	close(e.inputCh)
	e.submitMu.Unlock()
	e.workerWg.Wait()
	close(e.flushStop)
	<-e.flushDone
	// Preprocess workers are gone; flush whatever they logged and wait for
	// the in-flight batches to land.
	e.await(context.Background(), func() bool { return e.inflightBatches.Load() == 0 })
	close(e.reduceCh)
	e.reduceWg.Wait()
	e.idx.Load().release()
	for _, d := range e.devices {
		d.Close()
	}
	return nil
}

// Drain blocks until every submitted query has completed and its done
// callback has returned, flushing the entry log as needed. A done
// callback must therefore not call Drain itself.
func (e *Engine) Drain() {
	e.await(context.Background(), func() bool { return e.obs.Flow.Completed.Load() >= e.obs.Flow.Submitted.Load() })
}

// await blocks until cond holds or ctx ends, and reports whether cond
// held. It is the engine's one wait on pipeline progress: Drain, Match's
// wait for its result, SubmitWait's for capacity and Close's for the
// batches in flight. It is event-driven: each progress event (a query
// routed or completed, a batch leaving reduce, and ctx's end) wakes the
// waiter, which re-checks cond. It flushes the entry log before each
// check, so what it waits for never rests on the flush timeout; one flush
// would not do, as it can run before the pre-process stage has logged the
// entries. The epoch check closes the lost-wakeup window where
// progress happens while the waiter is flushing or inside cond: the
// waiter only sleeps if nothing has progressed since before its flush,
// and any later event must broadcast under drainMu. Go's sequentially
// consistent atomics make the waiter-count/epoch handshake with
// notifyProgress safe.
func (e *Engine) await(ctx context.Context, cond func() bool) bool {
	e.drainWaiters.Add(1)
	defer e.drainWaiters.Add(-1)
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, e.notifyProgress)()
	}
	for {
		ep := e.progressEpoch.Load()
		e.flushPass(e.idx.Load(), dispatchFlush)
		// Read before cond: what cond finds by the time the end is seen —
		// a result that raced a cancellation — still counts.
		ended := ctx.Err() != nil
		if cond() {
			return true
		}
		if ended {
			return false
		}
		e.drainMu.Lock()
		if e.progressEpoch.Load() == ep && ctx.Err() == nil {
			e.drainCond.Wait()
		}
		e.drainMu.Unlock()
	}
}

// Stats returns a snapshot of engine counters: every field whose JSON
// name is a declared metric's key (obs.Pipeline.Fill), and each device's
// memory in use.
func (e *Engine) Stats() Stats {
	var st Stats
	e.obs.Fill(&st)
	for _, dev := range e.idx.Load().devices {
		st.DeviceBytes = append(st.DeviceBytes, dev.MemInUse())
	}
	return st
}
