// Package core implements the TagMatch subset-matching engine of
// Rogora et al., "High-Throughput Subset Matching on Commodity GPU-Based
// Systems" (EuroSys 2017).
//
// The engine indexes a database of tag sets, represented as 192-bit
// Bloom-filter signatures, into balanced partitions (Algorithm 1 of the
// paper). Queries flow through a four-stage pipeline: pre-process on CPUs
// (Algorithm 2), subset match on (simulated) GPUs (a bit-sliced form of
// Algorithms 3 and 4), key lookup/reduce on CPUs, and merge on CPUs.
// Batching, the flush timeout, GPU streams carrying one batch at a time,
// and the packed result transfer follow §3.3 and §3.4 of the paper.
// New creates the engine's Config.GPUs simulated devices (internal/gpu)
// and Close closes them.
package core

import (
	"cmp"
	"errors"
	"log/slog"
	"time"

	"tagmatch/internal/bitvec"
)

// Key is the application-supplied value associated with a tag set; in the
// Twitter-like workload a Key is a user id.
type Key uint32

// SetID identifies a unique tag set in the consolidated tagset table.
type SetID uint32

// Config configures an Engine; tagmatch.Config is this type. The zero
// value is a valid CPU-only configuration with defaults suitable for
// small databases. Each field is a parameter the paper's evaluation
// tunes (GPUs and streams, MAX_P, the flush timeout, threads), one of its
// ablations, or an operator's need; the rest are constants.
type Config struct {
	// GPUs is the number of simulated GPU devices the engine creates and
	// closes. Zero runs the same pipeline CPU-only, the subset-match
	// stage on the dispatching thread (Table 1's "CPU-only, TagMatch").
	// The partitions are dealt round-robin over the devices: each holds
	// only its partitions' groups and run nodes and serves only their
	// batches.
	GPUs int
	// GPUWorkers is the number of simulated streaming multiprocessors
	// per device, i.e. thread blocks executing in parallel. Defaults to 4.
	GPUWorkers int
	// GPUMemBytes is the per-device memory budget (default 12 GiB, one
	// TITAN X as in the paper's testbed). An index that does not fit
	// leaves the engine CPU-only (ErrDeviceDegraded).
	GPUMemBytes int64
	// RealisticGPUCosts enables the calibrated kernel-launch and
	// PCIe-copy cost model. Leave false in unit tests, set true in
	// benchmarks: batching and stream effects only appear with costs.
	RealisticGPUCosts bool
	// StreamsPerGPU is the number of streams opened per GPU (default 10,
	// as on the paper's platform). A stream carries one batch at a time —
	// copy, kernel, copy (§3.3) — so this is also the number of batches a
	// device has in flight.
	StreamsPerGPU int

	// MaxPartitionSize is MAX_P of Algorithm 1, the most tag sets per
	// partition (default 1024). The paper's sweet spot was 200K sets for a
	// 212M set database (Fig 7); the caller scales it, as the database
	// size is not known when the engine is created.
	MaxPartitionSize int
	// BatchSize is the most routed (query, partition) entries a GPU batch
	// holds (default 256): a flush pass cuts the routed-entry log into
	// batches of this many, a partition's entries one segment of a batch.
	// The log is full, and leaves without waiting for BatchTimeout, at
	// BatchSize entries per partition. Entry ids inside a batch are 8-bit
	// in the packed result layout (§3.3.1), so New rejects a BatchSize
	// over 256 with ErrBatchSizeTooLarge rather than alias query indices.
	BatchSize int
	// BatchTimeout is how long a routed entry may wait in the log for
	// company (§3, "configurable timeout period"): a flush pass takes the
	// log once its oldest entry is this old, within a tick (a quarter of
	// the timeout, at least 1ms). Zero disables the timeout: entries wait
	// until the log is full or a blocking Match, Drain, Consolidate or
	// Close flushes it.
	BatchTimeout time.Duration
	// Threads is the number of CPU worker threads shared by the
	// pre-process and key-lookup/reduce/merge stages. Defaults to 4.
	Threads int

	// MaxInFlight bounds the submitted-but-incomplete queries the engine
	// admits: at the bound, Submit and Match return ErrOverloaded
	// (SubmitWait, tagmatch's SubmitCtx, waits for capacity). Zero, the
	// default, disables the gate, leaving only channel backpressure.
	MaxInFlight int
	// HedgeAfter is the straggler budget: a batch whose device attempt
	// has held a stream this long without settling is re-run on the
	// host — the only other holder of its partitions — and the settle CAS
	// delivers exactly one of the two results. The budget starts when the
	// attempt acquires a stream, so a batch waiting for one is not
	// hedged. Zero or negative, the default, disables hedging.
	HedgeAfter time.Duration
	// ExactVerify keeps the original tag sets and re-checks every match
	// exactly during key lookup, eliminating Bloom false positives (§3:
	// "the system or the application can perform an additional exact
	// subset check"). Sets staged via AddSignature and queries submitted
	// without tags cannot be verified and pass through unchecked.
	ExactVerify bool

	// DeltaMaxSets is the live-op count (overlay adds + tombstones) at
	// which the background consolidator folds the delta overlay into the
	// main index. Defaults to 4096.
	DeltaMaxSets int
	// DeltaMaxRatio raises that threshold to this fraction of the main
	// index's set count when it is larger (default 0.25), keeping rebuild
	// cost amortized-geometric as the database grows.
	DeltaMaxRatio float64
	// DisableLiveUpdates turns off the match-visible delta overlay and
	// the background consolidator: adds and removes take effect only at
	// an explicit Consolidate. A bulk loader that consolidates once at the
	// end wants this (the benchmark's snapshot builder, tagmatch-server's
	// -no-live-updates).
	DisableLiveUpdates bool

	// DisablePrefilter is the paper's Algorithm 4 ablation: the kernel's
	// run and group gates, which stand in for the block pre-filter, are
	// off, so every routed entry walks every group's columns.
	DisablePrefilter bool
	// FirstFitPartitioning is the paper's Algorithm 1 ablation: sets
	// sorted lexicographically and cut into MAX_P-sized runs, each run's
	// mask the intersection of its members. Such masks are often empty or
	// tiny, so pre-processing prunes far fewer partitions.
	FirstFitPartitioning bool

	// TraceEvery samples one query in N for full pipeline tracing,
	// retrievable via Obs().Tracer or GET /debug/stats. Zero, the
	// default, disables tracing.
	TraceEvery int
	// DisableObservability turns off the stage histograms, per-partition
	// counters, traces and per-device op logs (DeviceOpRecords), keeping
	// only the cumulative Stats counters. Observability costs a few
	// percent at most (tagmatch-bench obs-overhead).
	DisableObservability bool
	// Logger receives structured records of operationally significant
	// events: device quarantine entry/exit, device death, CPU fallbacks.
	// Nil disables logging; tagmatch-server wires slog.Default().
	Logger *slog.Logger

	// Overrides of the constants of the same names, set only by this
	// package's tests to reach what their inputs cannot: blocks of a few
	// groups, result buffers of a few pairs, recovery probes within
	// milliseconds. Zero keeps the constant.
	blockDim          int
	maxPairsPerBatch  int // default maxPairsFactor × BatchSize
	quarantineBackoff time.Duration
}

const (
	// blockDim is the kernel's thread-block size: one thread per 64-set
	// group, so a partition of up to 64 × blockDim sets is one block.
	blockDim = 256
	// maxPairsFactor sizes a batch's result buffer in (query, set) pairs
	// per entry; a batch producing more re-matches on the host
	// (Stats.ResultOverflows).
	maxPairsFactor = 16
	// opLogSize is each device's ring of recent operation records
	// (DeviceOpRecords, GET /debug/timeline) unless DisableObservability.
	opLogSize = 2048
)

// validate rejects configurations that would corrupt results rather
// than merely perform badly. It runs before applyDefaults, on the
// caller's values.
func (c *Config) validate() error {
	if c.GPUs < 0 {
		return errors.New("tagmatch: negative GPU count")
	}
	if c.BatchSize > maxBatchSize {
		return ErrBatchSizeTooLarge
	}
	return nil
}

func (c *Config) applyDefaults() {
	if c.MaxPartitionSize <= 0 {
		c.MaxPartitionSize = 1024
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.StreamsPerGPU <= 0 {
		c.StreamsPerGPU = 10
	}
	c.blockDim = cmp.Or(c.blockDim, blockDim)
	c.maxPairsPerBatch = cmp.Or(c.maxPairsPerBatch, maxPairsFactor*c.BatchSize)
	c.quarantineBackoff = cmp.Or(c.quarantineBackoff, quarantineBackoff)
	if c.DeltaMaxSets <= 0 {
		c.DeltaMaxSets = 4096
	}
	if c.DeltaMaxRatio <= 0 {
		c.DeltaMaxRatio = 0.25
	}
}

// Stats is a snapshot of engine activity. The JSON field names are part
// of the GET /stats contract of internal/httpserver. Engine.Stats fills
// every field whose JSON name is the key of a metric declared in
// internal/obs (see its counters.go for what each counts); a field with
// no such metric stays as documented here.
type Stats struct {
	// Database shape after the last Consolidate.
	UniqueSets int `json:"unique_sets"`
	Partitions int `json:"partitions"`
	Keys       int `json:"keys"`

	// Pipeline counters (obs.FlowCounters). BatchesTimedOut counts
	// batches by what started their flush pass: the passes the flusher's
	// tick started because the log's oldest entry had waited
	// BatchTimeout. A tick-started pass still cuts full batches, so it
	// does not say whether a batch filled. Batches of a pass a worker's
	// kick started because the log was full, or of an explicit flush
	// (blocking Match, Drain, Consolidate, Close), are not among them.
	QueriesSubmitted   int64 `json:"queries_submitted"`
	QueriesCompleted   int64 `json:"queries_completed"`
	BatchesDispatched  int64 `json:"batches_dispatched"`
	BatchesTimedOut    int64 `json:"batches_timed_out"`
	PairsProduced      int64 `json:"pairs_produced"`
	KeysDelivered      int64 `json:"keys_delivered"`
	ResultOverflows    int64 `json:"result_overflows"`
	PartitionsSearched int64 `json:"partitions_searched"`

	// Routing counters (obs.RoutingCounters). RouteAppends equals
	// PartitionsSearched once the workers are idle.
	RoutedSliced    int64 `json:"routed_sliced"`
	RouteMergeLocks int64 `json:"route_merge_locks"`
	RouteAppends    int64 `json:"route_appends"`

	// Subset-match kernel counters (obs.KernelCounters).
	KernelSliced        int64 `json:"kernel_sliced"`
	KernelGateChecks    int64 `json:"kernel_gate_checks"`
	KernelGatePruned    int64 `json:"kernel_gate_pruned"`
	KernelGateTests     int64 `json:"kernel_gate_tests"`
	KernelGroupScans    int64 `json:"kernel_group_scans"`
	KernelColumnsWalked int64 `json:"kernel_columns_walked"`

	// Query upload accounting (obs.StreamCounters): H2DQueryBytes /
	// QuerySlots is the mean H2D bytes per dispatched batch entry — its
	// 24-byte signature and its share of the segment table.
	H2DQueryBytes int64 `json:"h2d_query_bytes"`
	QuerySlots    int64 `json:"query_slots"`

	// Always zero: the per-device query window and the second dispatch
	// slot per stream they counted were measured and removed
	// (EXPERIMENTS.md, "Query window and stream depth: verdict"). The
	// fields stay because bench/layers.go, which only a [benchmark] PR
	// may edit, still reads them.
	WindowHits          int64 `json:"window_hits"`
	WindowMisses        int64 `json:"window_misses"`
	WindowFallbacks     int64 `json:"window_fallbacks"`
	PipelinedDispatches int64 `json:"pipelined_dispatches"`

	// Multi-partition batching: the sums of obs.StreamCounters'
	// SegmentsPerBatch and AcquireWait histograms.
	SegmentsDispatched int64         `json:"segments_dispatched"`
	StreamAcquireWait  time.Duration `json:"stream_acquire_wait_ns"`

	// Fault-tolerance counters (obs.FaultCounters).
	GPUFaults         int64 `json:"gpu_faults"`
	BatchRetries      int64 `json:"batch_retries"`
	CPUFallbacks      int64 `json:"cpu_fallbacks"`
	DeviceQuarantines int64 `json:"device_quarantines"`
	RecoveryProbes    int64 `json:"recovery_probes"`
	DeviceRecoveries  int64 `json:"device_recoveries"`
	QueriesShed       int64 `json:"queries_shed"`
	DeadlineExpired   int64 `json:"deadline_expired"`
	BatchesCancelled  int64 `json:"batches_cancelled"`
	HedgesFired       int64 `json:"hedges_fired"`
	HedgesWon         int64 `json:"hedges_won"`
	HedgesLost        int64 `json:"hedges_lost"`
	HedgesCancelled   int64 `json:"hedges_cancelled"`

	// Live-update counters (obs.DeltaCounters) and the overlay's live
	// sizes (obs.EngineGauges).
	DeltaAdds           int64         `json:"delta_adds"`
	DeltaTombstones     int64         `json:"delta_tombstones"`
	DeltaAbsorbedOps    int64         `json:"delta_absorbed_ops"`
	DeltaMatches        int64         `json:"delta_matches"`
	DeltaKeys           int64         `json:"delta_keys"`
	TombstoneSuppressed int64         `json:"tombstone_suppressions"`
	AutoConsolidations  int64         `json:"auto_consolidations"`
	IncrementalFolds    int64         `json:"incremental_folds"`
	LastSwapPause       time.Duration `json:"last_swap_pause_ns"`

	// Memory accounting (Fig 9): host side, and each device's memory in
	// use (the per-device tagmatch_device_mem_bytes series).
	HostBytes   int64   `json:"host_bytes"`
	DeviceBytes []int64 `json:"device_bytes,omitempty"`

	// LastConsolidate is the duration of the most recent consolidation
	// (Fig 8).
	LastConsolidate time.Duration `json:"last_consolidate_ns"`

	// Cumulative busy time per pipeline stage, summed across workers
	// (obs.FlowCounters). Useful for locating the pipeline bottleneck on
	// a given host and workload.
	PreprocessTime  time.Duration `json:"preprocess_time_ns"`
	SubsetMatchTime time.Duration `json:"subset_match_time_ns"`
	ReduceTime      time.Duration `json:"reduce_time_ns"`
}

// MatchResult carries the outcome of one query through the pipeline.
type MatchResult struct {
	// Keys holds the matched keys: a multiset, deduplicated for a
	// Request with Unique set. Nil when Err is set.
	Keys []Key
	// Latency is the end-to-end time from submission to merge (or to
	// the early completion when Err is set).
	Latency time.Duration
	// Err is non-nil when the query terminated without matching: it
	// matches ErrDeadlineExceeded (joined with the causing context
	// error, if any) when the query's deadline passed — or its context
	// was cancelled — before its batches launched.
	Err error
}

// partition is one entry of the partition table: the defining mask and the
// half-open range [off, off+n) of the consolidated tagset table.
type partition struct {
	mask bitvec.Vector
	off  uint32 // offset in the global flat tagset table
	n    uint32
	dev  int // the one device holding and matching the partition

	// The partition's ⌈n/64⌉ bit-sliced groups, local set i in lane i%64
	// of group i/64, are in index.groups[pid] while the host holds them,
	// and on the device at devOff below.

	// runOff and nRuns locate the partition's run nodes in index.runs
	// (kernel_sliced.go: runNode); nRuns is zero for a partition of one
	// group, or with no run of groups sharing more than all of them do.
	runOff uint32
	nRuns  uint32

	// The partition's place in its device's shard: devOff where its
	// nGroups groups start, and devRunOff where its nRuns run nodes start
	// beside them. gatherDevice resolves them when it packs the
	// shard.
	devOff    uint32
	devRunOff uint32
}

// nGroups is the number of 64-set groups the partition's n sets fill.
func (p *partition) nGroups() uint32 { return (p.n + 63) / 64 }
