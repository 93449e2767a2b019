package core

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

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
//	match(q)                Match / Submit
//	match-unique(q)         MatchUnique / SubmitUnique
//
// Additions and removals are staged in an operation log and, by
// default, simultaneously absorbed into a match-visible delta overlay
// (see delta.go): an AddSet is matchable by the very next query, and a
// RemoveSet suppresses its key immediately, without waiting for a
// rebuild. A background consolidator folds the overlay into the
// partitioned main index (Algorithm 1) once it outgrows
// Config.DeltaMaxSets / Config.DeltaMaxRatio, pausing traffic only for
// the drain + device-upload swap. Consolidate remains as the explicit
// synchronous (stop-the-world) form; Config.DisableDeltaOverlay
// restores the legacy staged-until-Consolidate semantics.
type Engine struct {
	cfg Config

	// submitMu serializes index swaps against query submission: Submit
	// holds it shared for the enqueue only; Consolidate holds it
	// exclusively across drain + rebuild.
	submitMu sync.RWMutex

	// stagedMu guards the master database and staging area. The delta
	// overlay is updated in the same critical section that appends a
	// staged op (lock order stagedMu -> delta.mu), keeping overlay and
	// op log in lockstep.
	stagedMu sync.Mutex
	db       map[bitvec.Vector][]dbEntry // consolidated master copy
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
	swapPauseNs   atomic.Int64 // last background swap pause, nanoseconds
	incFolds      atomic.Int64 // background folds that took the incremental path

	idx atomic.Pointer[index] // immutable between consolidates; swapped under submitMu

	inputCh  chan *query
	reduceCh chan *batchResult
	workerWg sync.WaitGroup
	reduceWg sync.WaitGroup

	flushStop chan struct{}
	flushDone chan struct{}
	flushKick chan struct{} // a worker found the log full; holds one kick

	// drainCond is broadcast on pipeline progress (a query finishing
	// pre-processing or completing, a batch leaving the reduce stage) so
	// drain and close wait event-driven instead of polling. The
	// broadcast is skipped entirely while drainWaiters is zero.
	drainMu       sync.Mutex
	drainCond     *sync.Cond
	drainWaiters  atomic.Int32
	progressEpoch atomic.Int64

	// obs is the pipeline-wide observability layer: per-stage latency
	// histograms, per-partition hot-spot counters, sampled traces.
	obs *obs.Pipeline

	closed atomic.Bool

	submitted       atomic.Int64
	completed       atomic.Int64
	dispatchSeq     atomic.Uint64 // stamps each dispatched batch; see dispatch
	batches         atomic.Int64
	batchesTimedOut atomic.Int64
	inflightBatches atomic.Int64
	pairs           atomic.Int64
	keysDelivered   atomic.Int64
	overflows       atomic.Int64
	partsSearched   atomic.Int64

	consolidateTime atomic.Int64 // nanoseconds

	// Cumulative per-stage busy time (nanoseconds), for the stage
	// breakdown diagnostic. Subset-match time covers dispatch to result
	// arrival (queueing + kernel + transfer); on the CPU path it is the
	// synchronous matching time.
	preprocessNs atomic.Int64
	matchNs      atomic.Int64
	reduceNs     atomic.Int64

	// pools recycles hot-path objects (queries, batches, results,
	// reduce scratch); see pool.go.
	pools enginePools

	// queryLockAcqs counts reduce-stage acquisitions of query mutexes.
	// The batch-local reduce takes each query's lock at most once per
	// (query, batch) — regression-tested against this counter.
	queryLockAcqs atomic.Int64

	// health holds the per-device circuit breakers of the fault-tolerant
	// dispatch path, indexed like cfg.Devices; see health.go.
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

// dbEntry is one (key, tags) association of the master database. tags is
// nil unless the engine runs in ExactVerify mode.
type dbEntry struct {
	key  Key
	tags []string
}

// index is the consolidated, immutable matching state (the entry log
// below is the one mutable part, guarded by its own mutex).
type index struct {
	// sets is the flat tagset table, partition-major. Within a partition
	// the rows are in the order appendPartitions laid them out: 64-aligned
	// clusters for the bit-sliced kernel (partition.go: clusterer), sorted
	// lexicographically under Config.ScalarKernel.
	sets []bitvec.Vector
	// groups is the column-transposed mirror of sets for the bit-sliced
	// subset-match kernel: partition-major ⌈n/64⌉-group runs, local set
	// i of a partition in lane i%64 of group grpOff+i/64 (see
	// partition.grpOff). Nil when Config.ScalarKernel disables the
	// sliced flavor. The host copy also serves the CPU execution path
	// and the overflow/fault fallback.
	groups []bitvec.SlicedGroup
	// runs holds the run nodes of every partition's groups, partition-major
	// (partition.runOff/nRuns; kernel_sliced.go: runNode). Appended with
	// the groups and aliased with them by incremental folds.
	runs     []runNode
	keyOff   []uint32 // CSR offsets into keys; len(sets)+1
	keys     []Key
	keyTags  [][]string // aligned with keys; populated only in ExactVerify mode
	parts    []partition
	pt       *partitionTable
	maskless []uint32 // partitions with empty mask (degenerate databases)

	// log holds the entries routed against this generation until a flush
	// pass takes them. A consolidation drains the pipeline before it swaps
	// generations, so a retired index's log is empty.
	log entryLog

	devices   []*gpu.Device
	devBufs   []*gpu.Buffer[bitvec.Vector]
	devShards []shard // transposed index per device (zero per entry when sliced kernel disabled)

	// devExts/devShardExts hold the per-device extent buffers appended by
	// incremental folds: devExts[d][e-1] backs the partitions with
	// dev==d, ext==e. The base buffers above hold every row uploaded by
	// the last full build; an incremental swap carries them (and the
	// streams below) over from the previous generation untouched and
	// uploads only these extents — the zero-drain pause is drain +
	// O(delta) copy, never O(database) (see adoptDevices).
	devExts      [][]*gpu.Buffer[bitvec.Vector]
	devShardExts [][]shard

	slots      *slotPool // the idle streams of every device
	allStreams []*streamSlot

	// dispatching fences release() against attempt chains that may still
	// enqueue stream operations. Before hedging every chain completed
	// before its queries did, so the drain implied quiescence; a losing
	// attempt now outlives its batch's settlement (and the queries'
	// completion), and enqueueing on a closed stream would panic. Held
	// from chain start until the chain can no longer touch a stream;
	// armed hedge timers hold it too.
	dispatching sync.WaitGroup

	hostBytes int64

	// Incremental-fold bookkeeping (see buildIncrementalIndex). fullSets
	// is the row count at the last full rebuild; dudRows counts rows
	// whose key list emptied in place (their signatures still occupy a
	// kernel lane until the next full rebuild); rowOf maps each
	// signature to its live row, built lazily by the first incremental
	// fold and handed forward — under consolidateMu — from generation
	// to generation.
	fullSets int
	dudRows  int
	rowOf    map[bitvec.Vector]uint32

	// patched overrides the key CSR for rows whose entry list changed in
	// an incremental fold: the fold aliases the previous generation's
	// keys/keyOff arrays untouched and records only the changed rows
	// here, so a fold's cost stays O(delta) instead of an O(rows+keys)
	// CSR rewrite. The reduce consults it before the CSR (see visit in
	// reduceBatch); nil after a full rebuild. Bounded by
	// incrementalEligible — too many patched rows forces a full rebuild
	// that folds them back into a flat CSR.
	patched map[uint32]patchedRow
}

// routedEntry is one (partition, query) pair of a query's fan-out.
type routedEntry struct {
	pid uint32
	q   *query
}

// entryLog is an index generation's routed-entry log: the entries routed
// and not yet taken by a flush pass, in hand-over order. Workers append
// whole runs under mu; a pass takes the whole log and leaves the emptied
// buffer of an earlier pass in its place (see passScratch).
type entryLog struct {
	mu      sync.Mutex
	entries []routedEntry
	opened  time.Time // when the oldest entry was handed over
}

// patchedRow is one row's replacement entry list (see index.patched).
// tags is parallel to keys and nil unless the engine runs in ExactVerify
// mode.
type patchedRow struct {
	keys []Key
	tags [][]string
}

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("tagmatch: engine closed")

// ErrBatchSizeTooLarge is returned by New for Config.BatchSize > 256.
// Query ids within a batch are 8-bit in the packed result layout
// (§3.3.1) and throughout the reduce stage, so a larger batch size
// would silently alias query indices and corrupt results.
var ErrBatchSizeTooLarge = errors.New("tagmatch: BatchSize exceeds 256 (query ids within a batch are 8-bit)")

// ErrOverloaded is returned by Submit-family calls rejected by the
// admission gate: Config.MaxInFlight queries were already in flight. The
// caller should shed load or back off and retry (the HTTP layer maps
// this to 503 with a Retry-After); SubmitCtx blocks for capacity
// instead.
var ErrOverloaded = errors.New("tagmatch: engine overloaded")

// ErrDeadlineExceeded is the terminal status of a query whose context
// deadline passed (or whose context was cancelled) before its batches
// launched: the query completes early with MatchResult.Err matching this
// error, and its expired batch slots never reach a kernel. Deadlines are
// only observed at pipeline stage boundaries — a query already running
// on a device finishes normally.
var ErrDeadlineExceeded = errors.New("tagmatch: query deadline exceeded")

// ErrUnknownHedgeMode is returned by New for a Config.HedgePolicy.Mode
// that is none of HedgeOff, HedgeFixed, HedgePercentile.
var ErrUnknownHedgeMode = errors.New("tagmatch: unknown hedge mode")

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
	e := &Engine{
		cfg:      cfg,
		db:       make(map[bitvec.Vector][]dbEntry),
		inputCh:  make(chan *query, 4*cfg.BatchSize),
		reduceCh: make(chan *batchResult, 64),

		flushStop: make(chan struct{}),
		flushDone: make(chan struct{}),
		flushKick: make(chan struct{}, 1),
		obs: obs.New(obs.Options{
			Disabled:   cfg.DisableObservability,
			TraceEvery: cfg.TraceEvery,
			TraceKeep:  cfg.TraceKeep,
		}),
	}
	e.drainCond = sync.NewCond(&e.drainMu)
	e.log = cfg.Logger
	if e.log == nil {
		e.log = slog.New(slog.DiscardHandler)
	}
	e.pools.disabled = cfg.DisablePooling
	e.idx.Store(&index{pt: &partitionTable{}})
	e.initHealth()
	e.registerGauges()
	e.delta.init()
	if !cfg.DisableDeltaOverlay {
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

// logger returns the engine's structured logger (never nil).
func (e *Engine) logger() *slog.Logger { return e.log }

// registerGauges wires the queue-depth and stream-pool gauges the export
// surfaces (GET /metrics) evaluate at scrape time.
func (e *Engine) registerGauges() {
	e.obs.RegisterGauge("tagmatch_queue_depth",
		"Queued items per pipeline queue.",
		obs.Labels{{"queue", "input"}}, func() float64 { return float64(len(e.inputCh)) })
	e.obs.RegisterGauge("tagmatch_queue_depth",
		"Queued items per pipeline queue.",
		obs.Labels{{"queue", "reduce"}}, func() float64 { return float64(len(e.reduceCh)) })
	e.obs.RegisterGauge("tagmatch_inflight_batches",
		"Batches dispatched to the subset-match stage and not yet reduced.",
		nil, func() float64 { return float64(e.inflightBatches.Load()) })
	e.obs.RegisterGauge("tagmatch_staged_ops",
		"Staged add/remove operations awaiting Consolidate.",
		nil, func() float64 { return float64(e.PendingOps()) })
	e.obs.RegisterGauge("tagmatch_delta_sets",
		"Live delta-overlay adds matchable ahead of consolidation.",
		nil, func() float64 { return float64(e.delta.addsLive.Load()) })
	e.obs.RegisterGauge("tagmatch_delta_tombstones",
		"Live tombstones suppressing main-index keys ahead of consolidation.",
		nil, func() float64 { return float64(e.delta.tombsLive.Load()) })
	e.obs.RegisterGauge("tagmatch_delta_age_seconds",
		"Seconds since the delta overlay last became non-empty (0 when empty).",
		nil, e.delta.ageSeconds)
	e.obs.RegisterGauge("tagmatch_routed_log_entries",
		"Routed (query, partition) entries logged and not yet taken by a flush pass.",
		nil, func() float64 {
			lg := &e.idx.Load().log
			lg.mu.Lock()
			defer lg.mu.Unlock()
			return float64(len(lg.entries))
		})
	e.obs.RegisterGauge("tagmatch_streams_idle",
		"GPU stream dispatch slots currently idle in the acquisition pools.",
		nil, func() float64 {
			if p := e.idx.Load().slots; p != nil {
				return float64(p.idle())
			}
			return 0
		})
	e.obs.RegisterGauge("tagmatch_pipeline_overlap_fraction",
		"Fraction of cumulative kernel time overlapped with copies, aggregated across devices.",
		nil, func() float64 {
			var kernelNs, overlapNs int64
			for _, dev := range e.cfg.Devices {
				s := dev.OverlapStats()
				kernelNs += s.KernelNs
				overlapNs += s.OverlapNs
			}
			if kernelNs == 0 {
				return 0
			}
			return float64(overlapNs) / float64(kernelNs)
		})
	e.obs.RegisterGauge("tagmatch_devices_quarantined",
		"Devices currently quarantined by the failure circuit breaker.",
		nil, func() float64 {
			n := 0
			for i := range e.health {
				if e.health[i].quarantined.Load() {
					n++
				}
			}
			return float64(n)
		})
	e.obs.RegisterGauge("tagmatch_stream_ops_pending",
		"Device operations queued on GPU streams and not yet executed.",
		nil, func() float64 {
			n := 0
			for _, sl := range e.idx.Load().allStreams {
				n += sl.stream.QueueDepth()
			}
			return float64(n)
		})
	for di, dev := range e.cfg.Devices {
		di, dev := di, dev
		labels := obs.Labels{{"device", dev.Name()}}
		e.obs.RegisterGauge("tagmatch_gpu_overlap_fraction",
			"Fraction of cumulative kernel time overlapped with copies on the device.",
			labels, dev.OverlapFraction)
		e.obs.RegisterGauge("tagmatch_gpu_utilization",
			"Fraction of device SM-worker capacity busy executing blocks since creation.",
			labels, dev.Utilization)
		e.obs.RegisterGauge("tagmatch_gpu_stream_queue_depth",
			"Device operations queued (not yet started) across the device's streams.",
			labels, func() float64 {
				n := 0
				for _, sl := range e.idx.Load().allStreams {
					if sl.dev == di {
						n += sl.stream.QueueDepth()
					}
				}
				return float64(n)
			})
	}
}

// partCounters returns the hot-spot counters for a partition, or nil
// when observability is disabled (or the index was swapped mid-flight).
func (e *Engine) partCounters(pid uint32) *obs.PartitionCounters {
	if !e.obs.On {
		return nil
	}
	return e.obs.Parts.Get(pid)
}

// notifyProgress advances the progress epoch and wakes drain/close
// waiters after a pipeline progress event. The atomic waiter check keeps
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
// Config.DisableDeltaOverlay defers visibility to the next Consolidate).
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
	if !e.cfg.DisableDeltaOverlay {
		e.delta.absorb(e.db, op)
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
// the index: the balanced partitioning of Algorithm 1, the row order
// within partitions (clustered for the bit-sliced kernel, lexicographic
// for the scalar one), the partition table, the key table, and the
// device-resident tagset tables. It drains in-flight queries first
// and blocks new submissions for the full rebuild — the stop-the-world
// form, kept as the explicit bulk-load API and as the ablation baseline
// for the background consolidator (which runs the same rebuild but
// pauses traffic only for the drain + device-upload swap; see
// consolidator.go).
//
// If the device upload fails (errors.Is(err, ErrDeviceDegraded), with
// the underlying cause — e.g. gpu.ErrOutOfMemory — in the chain), the
// rebuilt index is still installed in CPU-only form: matching keeps
// working on the host, only the GPU offload is lost.
func (e *Engine) Consolidate() error {
	if e.closed.Load() {
		return ErrClosed
	}
	return e.consolidateOnce(false, nil)
}

// buildHostIndex constructs the host-side half of a fresh index from a
// database snapshot: partitioning, ordered flat table, transposed mirror,
// key table, partition table. It touches no device state, so the
// background consolidator can run it while the previous index still
// holds every device's memory; attachDevices completes the index inside
// the swap's critical section.
func (e *Engine) buildHostIndex(sigs []bitvec.Vector, entriesBySet [][]dbEntry) *index {
	specs := e.partition(sigs)
	idx := &index{devices: e.cfg.Devices}
	// The row and group arrays carry ~12% slack so incremental folds can
	// append new partitions in place (buildIncrementalIndex aliases these
	// arrays rather than copying them); once the slack is gone, append's
	// own growth re-establishes headroom for the folds that follow.
	idx.sets = make([]bitvec.Vector, 0, len(sigs)+len(sigs)/8+1024)
	if !e.cfg.ScalarKernel && len(sigs) > 0 {
		// idx.groups stays nil for an empty build — it doubles as the
		// "sliced kernel in use" sentinel.
		idx.groups = make([]bitvec.SlicedGroup, 0, len(sigs)/64+len(specs)+len(sigs)/512+64)
	}
	idx.keyOff = make([]uint32, 1, len(sigs)+len(sigs)/8+1025)
	idx.parts = make([]partition, 0, len(specs))

	idx.appendPartitions(sigs, specs, !e.cfg.ScalarKernel, len(e.cfg.Devices), func(m int32, _ uint32) {
		idx.appendKeys(entriesBySet[m], e.cfg.ExactVerify)
	})
	idx.pt, idx.maskless = buildPartitionTable(idx.parts)
	idx.hostBytes = hostBytesFor(idx)
	// A fresh full build has no duds and no carried row map; incremental
	// folds measure their drift against this baseline.
	idx.fullSets = len(idx.sets)
	return idx
}

// partition runs the configured partitioner over sigs.
func (e *Engine) partition(sigs []bitvec.Vector) []partitionSpec {
	if e.cfg.FirstFitPartitioning {
		return firstFitPartition(sigs, e.cfg.MaxPartitionSize)
	}
	return balancedPartition(sigs, e.cfg.MaxPartitionSize)
}

// appendPartitions is the one place partitions become rows: it orders each
// spec's members (orderMembers: clustered when sliced, lexicographic for
// the scalar kernel), appends them to idx.sets partition-major, calls row
// for every member with its global row id so the caller can extend its key
// table in step, column-transposes the partition into idx.groups when
// sliced, derives the partition's run nodes from the new groups' gates
// into idx.runs, and appends the partition descriptors, dealt round-robin
// over nDev devices. Full builds, incremental folds and KernelBenchmark
// all lay out through here, so they cannot disagree on the order or on
// the run tree.
func (idx *index) appendPartitions(sigs []bitvec.Vector, specs []partitionSpec, sliced bool, nDev int, row func(m int32, r uint32)) {
	orderMembers(sigs, specs, sliced)
	for i := range specs {
		spec := &specs[i]
		off := uint32(len(idx.sets))
		for _, m := range spec.members {
			idx.sets = append(idx.sets, sigs[m])
			if row != nil {
				row(m, uint32(len(idx.sets)-1))
			}
		}
		p := partition{mask: spec.mask, off: off, n: uint32(len(spec.members)), grpOff: uint32(len(idx.groups))}
		if nDev > 0 {
			p.dev = len(idx.parts) % nDev
		}
		if sliced {
			idx.groups = append(idx.groups, bitvec.BuildSlicedGroups(idx.sets[off:])...)
			p.runOff = uint32(len(idx.runs))
			idx.runs = deriveRuns(idx.runs, idx.groups[p.grpOff:])
			p.nRuns = uint32(len(idx.runs)) - p.runOff
		}
		idx.parts = append(idx.parts, p)
	}
}

// slicedPart returns partition p's slice of the transposed index: its
// groups and their run nodes.
func (idx *index) slicedPart(p *partition) ([]bitvec.SlicedGroup, []runNode) {
	return idx.groups[p.grpOff : p.grpOff+(p.n+63)/64], idx.runs[p.runOff : p.runOff+p.nRuns]
}

// appendKeys extends the key CSR by one row holding entries.
func (idx *index) appendKeys(entries []dbEntry, withTags bool) {
	for _, en := range entries {
		idx.keys = append(idx.keys, en.key)
		if withTags {
			idx.keyTags = append(idx.keyTags, en.tags)
		}
	}
	idx.keyOff = append(idx.keyOff, uint32(len(idx.keys)))
}

// hostBytesFor is the host memory accounting (Fig 9): tagset table host
// copy (24 B/set), its transposed mirror for the sliced kernel (1592 B
// per 64-set SlicedGroup ≈ 24.9 B/set) with its run nodes (40 B each),
// key table, CSR offsets, partition table (scalar bins + bit-sliced
// groups).
func hostBytesFor(idx *index) int64 {
	return int64(len(idx.sets))*24 +
		int64(len(idx.groups))*slicedGroupBytes +
		int64(len(idx.runs))*runNodeBytes +
		int64(len(idx.keys))*4 +
		int64(len(idx.keyOff))*4 +
		int64(idx.pt.entries())*28 +
		idx.pt.slicedBytes() +
		int64(len(idx.parts))*48
}

// attachDevices uploads a host-built index to the configured devices and
// opens its stream pools. On failure the index is degraded in place to a
// usable CPU-only form (dispatch sees no devices and runs every batch on
// the host) and an ErrDeviceDegraded-wrapped error is returned.
func (e *Engine) attachDevices(idx *index) error {
	if len(idx.devices) == 0 {
		return nil
	}
	if err := e.uploadToDevices(idx); err != nil {
		// Device upload failed (out of device memory, too few streams, a
		// dead device): degrade to a CPU-only index rather than leaving
		// the engine without a database.
		idx.release()
		idx.devices = nil
		idx.devBufs = nil
		idx.devShards = nil
		idx.slots = nil
		return fmt.Errorf("%w: %w", ErrDeviceDegraded, err)
	}
	return nil
}

// slicedGroupBytes is the in-memory size of one bitvec.SlicedGroup:
// 192 column words + 3 used-mask words + the valid word + the 3-word
// gate, 8 bytes each. Asserted against unsafe.Sizeof in the tests.
const slicedGroupBytes = (bitvec.W + bitvec.Blocks + 1 + bitvec.Blocks) * 8

// uploadToDevices allocates and fills the device-resident index and
// opens the stream pools with their per-stream batch buffers. A device
// holds only the layout the configured kernel reads: the transposed
// groups and their run nodes for the bit-sliced kernel, the row table for
// the scalar one (idx.groups is nil then, and for an empty index).
func (e *Engine) uploadToDevices(idx *index) error {
	nDev := len(idx.devices)
	idx.devBufs = make([]*gpu.Buffer[bitvec.Vector], nDev)
	idx.devShards = make([]shard, nDev)
	// A full upload lays every row into the base shards (extent ids from
	// an incrementally-built host index whose adoption fell through would
	// otherwise point at buffers this index never had): under replication
	// a partition's device row is its range of the flat table.
	idx.devExts, idx.devShardExts = nil, nil
	sliced := idx.groups != nil
	for pi := range idx.parts {
		p := &idx.parts[pi]
		p.ext, p.devOff, p.devLen = 0, p.off, p.n
		if sliced {
			p.devOff, p.devLen, p.devRunOff = p.grpOff, (p.n+63)/64, p.runOff
		}
	}

	for d, dev := range idx.devices {
		// Full replication: every device holds the whole index.
		// Partitioned placement: device d holds only its partitions,
		// re-packed contiguously. Because partitions are assigned
		// round-robin in partition order and the flat table is
		// partition-major, each device's slice is a gather of ranges
		// (whole-group runs for the transposed index, with their nodes).
		rows, groups, runs := idx.sets, idx.groups, idx.runs
		if !e.cfg.Replicate {
			rows, groups, runs = nil, nil, nil
			for pi := range idx.parts {
				p := &idx.parts[pi]
				if p.dev != d {
					continue
				}
				if sliced {
					p.devOff, p.devRunOff = uint32(len(groups)), uint32(len(runs))
					g, r := idx.slicedPart(p)
					groups, runs = append(groups, g...), append(runs, r...)
				} else {
					p.devOff = uint32(len(rows))
					rows = append(rows, idx.sets[p.off:p.off+p.n]...)
				}
			}
		}
		var err error
		if sliced {
			idx.devShards[d], err = uploadShard(dev, groups, runs)
		} else {
			idx.devBufs[d], err = uploadBuffer(dev, rows)
		}
		if err != nil {
			return fmt.Errorf("uploading index to %s: %w", dev.Name(), err)
		}
	}

	idx.slots = newSlotPool(nDev * e.cfg.StreamsPerDevice)
	for d, dev := range idx.devices {
		for i := 0; i < e.cfg.StreamsPerDevice; i++ {
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
				// One index per entry plus the segment table; a batch
				// has at most one segment per entry.
				sl.tab, err = gpu.Alloc[uint32](dev, e.cfg.BatchSize*(1+segWords))
			}
			if err == nil {
				sl.hdr, err = gpu.Alloc[uint32](dev, resHeaderWords)
			}
			if err == nil {
				sl.pairs, err = gpu.Alloc[byte](dev, pairBufBytes(e.cfg.MaxPairsPerBatch))
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

// extsOf returns device dev's extent buffers (none before the first
// incremental fold).
func extsOf[T any](exts [][]T, dev int) []T {
	if exts == nil {
		return nil
	}
	return exts[dev]
}

// release frees an index's device resources. Called only after the
// pipeline has drained, so no kernel references the buffers. The
// dispatching fence additionally waits out losing hedge-race attempts,
// which can still be enqueueing stream operations after the drain.
func (idx *index) release() {
	idx.dispatching.Wait()
	for _, sl := range idx.allStreams {
		sl.stream.Synchronize()
		sl.close()
	}
	idx.allStreams = nil
	for _, b := range idx.devBufs {
		b.Free()
	}
	idx.devBufs = nil
	for _, s := range idx.devShards {
		s.free()
	}
	idx.devShards = nil
	for _, exts := range idx.devExts {
		for _, b := range exts {
			b.Free()
		}
	}
	idx.devExts = nil
	for _, exts := range idx.devShardExts {
		for _, s := range exts {
			s.free()
		}
	}
	idx.devShardExts = nil
}

// Close drains the pipeline and releases all resources. The engine cannot
// be used afterwards.
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
	// its kick.
	close(e.inputCh)
	e.workerWg.Wait()
	close(e.flushStop)
	<-e.flushDone
	// Preprocess workers are gone; flush whatever they logged, then
	// wait (event-driven, woken by each batch leaving the reduce stage)
	// for the in-flight batches to land.
	e.flushAll(e.idx.Load())
	e.drainWaiters.Add(1)
	e.drainMu.Lock()
	for e.inflightBatches.Load() > 0 {
		e.drainCond.Wait()
	}
	e.drainMu.Unlock()
	e.drainWaiters.Add(-1)
	close(e.reduceCh)
	e.reduceWg.Wait()
	e.idx.Load().release()
	return nil
}

// Drain blocks until every submitted query has completed, flushing the
// entry log as needed.
func (e *Engine) Drain() {
	e.flushAll(e.idx.Load())
	e.awaitDrain()
}

// awaitDrain blocks until every submitted query has completed. It is
// event-driven: each progress event (a query finishing pre-processing or
// completing, a batch leaving reduce) wakes the waiter, which re-flushes
// the entry log so queries parked there make progress. The epoch check
// closes the lost-wakeup window where entries are handed over while the
// waiter is inside flushAll: the waiter only sleeps
// if nothing has progressed since before its flush, and any later event
// must broadcast under drainMu. Go's sequentially consistent atomics
// make the waiter-count/epoch handshake with notifyProgress safe.
func (e *Engine) awaitDrain() {
	if e.completed.Load() >= e.submitted.Load() {
		return
	}
	e.drainWaiters.Add(1)
	defer e.drainWaiters.Add(-1)
	for {
		ep := e.progressEpoch.Load()
		e.flushAll(e.idx.Load())
		if e.completed.Load() >= e.submitted.Load() {
			return
		}
		e.drainMu.Lock()
		if e.progressEpoch.Load() == ep && e.completed.Load() < e.submitted.Load() {
			e.drainCond.Wait()
		}
		e.drainMu.Unlock()
	}
}

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats {
	idx := e.idx.Load()
	st := Stats{
		UniqueSets:          len(idx.sets),
		Partitions:          len(idx.parts),
		Keys:                len(idx.keys),
		QueriesSubmitted:    e.submitted.Load(),
		QueriesCompleted:    e.completed.Load(),
		BatchesDispatched:   e.batches.Load(),
		BatchesTimedOut:     e.batchesTimedOut.Load(),
		PairsProduced:       e.pairs.Load(),
		KeysDelivered:       e.keysDelivered.Load(),
		ResultOverflows:     e.overflows.Load(),
		PartitionsSearched:  e.partsSearched.Load(),
		RoutedSliced:        e.obs.Routing.SlicedQueries.Load(),
		RoutedScalar:        e.obs.Routing.ScalarQueries.Load(),
		RouteMergeLocks:     e.obs.Routing.MergeLockAcqs.Load(),
		RouteAppends:        e.obs.Routing.MergedAppends.Load(),
		KernelSliced:        e.obs.Kernel.SlicedBatches.Load(),
		KernelScalar:        e.obs.Kernel.ScalarBatches.Load(),
		KernelGateChecks:    e.obs.Kernel.GateChecks.Load(),
		KernelGatePruned:    e.obs.Kernel.GatePruned.Load(),
		KernelGateTests:     e.obs.Kernel.GateTests.Load(),
		KernelGroupScans:    e.obs.Kernel.GroupScans.Load(),
		KernelColumnsWalked: e.obs.Kernel.ColumnsWalked.Load(),
		H2DQueryBytes:       e.obs.Streams.H2DQueryBytes.Load(),
		QuerySlots:          e.obs.Streams.QuerySlots.Load(),
		SegmentsDispatched:  e.obs.Streams.SegmentsPerBatch.Sum(),
		StreamAcquireWait:   time.Duration(e.obs.Streams.AcquireWait.Sum()),
		HostBytes:           idx.hostBytes,
		LastConsolidate:     time.Duration(e.consolidateTime.Load()),
		PreprocessTime:      time.Duration(e.preprocessNs.Load()),
		SubsetMatchTime:     time.Duration(e.matchNs.Load()),
		ReduceTime:          time.Duration(e.reduceNs.Load()),
		GPUFaults:           e.obs.Faults.GPUFaults.Load(),
		BatchRetries:        e.obs.Faults.BatchRetries.Load(),
		CPUFallbacks:        e.obs.Faults.CPUFallbacks.Load(),
		DeviceQuarantines:   e.obs.Faults.Quarantines.Load(),
		RecoveryProbes:      e.obs.Faults.Probes.Load(),
		DeviceRecoveries:    e.obs.Faults.Recoveries.Load(),
		QueriesShed:         e.obs.Faults.QueriesShed.Load(),
		DeadlineExpired:     e.obs.Faults.DeadlineExpired.Load(),
		BatchesCancelled:    e.obs.Faults.BatchesCancelled.Load(),
		HedgesFired:         e.obs.Faults.HedgesFired.Load(),
		HedgesWon:           e.obs.Faults.HedgesWon.Load(),
		HedgesLost:          e.obs.Faults.HedgesLost.Load(),
		HedgesCancelled:     e.obs.Faults.HedgesCancelled.Load(),
		DeltaAdds:           e.delta.addsLive.Load(),
		DeltaTombstones:     e.delta.tombsLive.Load(),
		DeltaAbsorbedOps:    e.obs.Delta.AbsorbedOps.Load(),
		DeltaMatches:        e.obs.Delta.OverlayMatches.Load(),
		DeltaKeys:           e.obs.Delta.OverlayKeys.Load(),
		TombstoneSuppressed: e.obs.Delta.TombSuppressed.Load(),
		AutoConsolidations:  e.obs.Delta.AutoConsolidations.Load(),
		IncrementalFolds:    e.incFolds.Load(),
		LastSwapPause:       time.Duration(e.swapPauseNs.Load()),
	}
	for _, dev := range idx.devices {
		st.DeviceBytes = append(st.DeviceBytes, dev.MemInUse())
	}
	return st
}
