// Package tagmatch is a high-throughput subset-matching engine for
// hybrid CPU/GPU systems, reproducing Rogora et al., "High-Throughput
// Subset Matching on Commodity GPU-Based Systems" (EuroSys 2017).
//
// An Engine stores a database of tag sets, each associated with an
// application key, and answers streaming subset queries: Match(q)
// returns the keys of every stored set s with s ⊆ q. Sets are
// represented internally as 192-bit Bloom filters with 7 hash functions,
// partitioned with the paper's balanced partitioning (Algorithm 1), and
// matched through a four-stage CPU/GPU pipeline (pre-process → subset
// match → key lookup/reduce → merge) with query batching, flush
// timeouts, GPU streams, and packed result transfers.
//
// Because this reproduction runs without GPU hardware, the subset-match
// stage executes on simulated GPU devices (package internal/gpu): SPMD
// kernels over thread blocks with modeled kernel-launch and PCIe-copy
// costs. Setting Config.GPUs to zero selects the CPU-only pipeline.
//
// # Quick start
//
//	eng, err := tagmatch.New(tagmatch.Config{GPUs: 2})
//	if err != nil { ... }
//	defer eng.Close()
//
//	eng.AddSet([]string{"en_go", "en_gpu"}, 1001)   // user 1001's interest
//	eng.AddSet([]string{"en_go"}, 1002)
//
//	keys, err := eng.MatchUnique([]string{"en_go", "en_gpu", "en_eurosys"})
//	// keys == [1001, 1002]
//
// Updates are live: AddSet and RemoveSet take effect on the very next
// query through a CPU-side delta overlay (staged adds matched by a
// bit-sliced mini-index, removes suppressed by tombstones), while a
// background consolidator periodically folds the overlay into the
// partitioned GPU index with only a brief swap pause. An explicit
// Consolidate forces that fold synchronously.
//
// For maximal throughput, stream queries with Submit/SubmitUnique and a
// BatchTimeout instead of the blocking Match calls.
package tagmatch

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"time"

	"tagmatch/internal/core"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// ErrOverloaded is returned by Submit-family calls rejected by the
// Config.MaxInFlight admission gate. Shed load or back off and retry;
// SubmitCtx blocks for capacity instead.
var ErrOverloaded = core.ErrOverloaded

// ErrDeviceDegraded wraps Consolidate errors that left the engine
// running CPU-only after a device upload failure (typically device
// memory exhaustion). The engine stays fully usable.
var ErrDeviceDegraded = core.ErrDeviceDegraded

// ErrDeadlineExceeded is carried by MatchResult.Err (and returned by the
// MatchCtx family) when a query's context ended before its batch was
// dispatched. Deadlines are observed at stage boundaries: a query whose
// batch is already running on a device finishes normally.
var ErrDeadlineExceeded = core.ErrDeadlineExceeded

// HedgePolicy configures hedged batch re-dispatch: a dispatched batch
// exceeding its straggler budget is speculatively re-run on another
// healthy device (or the host), the first completion winning. The zero
// value disables hedging. See the HedgeFixed and HedgePercentile modes.
type HedgePolicy = core.HedgePolicy

// HedgeMode selects how the straggler budget is derived.
type HedgeMode = core.HedgeMode

// Hedge modes: off (zero value), a fixed budget, or an adaptive budget
// tracking a percentile of the device's own batch service time.
const (
	HedgeOff        = core.HedgeOff
	HedgeFixed      = core.HedgeFixed
	HedgePercentile = core.HedgePercentile
)

// Key is the application value associated with a stored tag set — a user
// id in the paper's Twitter-like workload.
type Key = core.Key

// MatchResult carries the outcome of one streamed query.
type MatchResult = core.MatchResult

// Stats is a snapshot of engine activity and memory usage.
type Stats = core.Stats

// Config configures an Engine. The zero value is a valid CPU-only
// configuration with defaults suitable for small databases.
type Config struct {
	// GPUs is the number of simulated GPU devices to create. Zero runs
	// the pipeline CPU-only.
	GPUs int
	// GPUWorkers is the number of simulated streaming multiprocessors
	// per device, i.e. thread blocks executing in parallel. Defaults to 4.
	GPUWorkers int
	// GPUMemBytes is the per-device memory budget (default 12 GiB, one
	// TITAN X as in the paper's testbed).
	GPUMemBytes int64
	// RealisticGPUCosts enables the calibrated kernel-launch and
	// PCIe-copy cost model. Leave false in unit tests, set true in
	// benchmarks: batching and stream effects only appear with costs.
	RealisticGPUCosts bool

	// MaxPartitionSize is MAX_P of Algorithm 1 (0 = 1024 sets; the
	// paper's ratio is dbSize/1000, which the caller must compute — the
	// database size is not known when the engine is created).
	MaxPartitionSize int
	// BatchSize is the most routed (query, partition) entries a GPU batch
	// holds (max 256): routed entries wait in one log, which a flush pass
	// cuts into batches of this many. The log is full, and flushed at
	// once, when it holds this many entries per partition.
	BatchSize int
	// BatchTimeout is how long a routed entry may wait in the log for
	// company before a flush pass takes it (0 = no timeout: entries leave
	// when the log is full; the blocking Match calls flush explicitly).
	BatchTimeout time.Duration
	// Threads is the number of CPU worker threads across pipeline stages.
	Threads int
	// StreamsPerGPU is the number of streams per device (default 10).
	StreamsPerGPU int
	// Replicate replicates the tagset table on every device (default
	// true). When explicitly disabled with PartitionAcrossGPUs, each
	// device holds only its share of the partitions.
	PartitionAcrossGPUs bool
	// MaxInFlight bounds the number of submitted-but-incomplete queries
	// admitted before Submit-family calls return ErrOverloaded (the
	// SubmitCtx variants block for capacity instead). Zero disables the
	// gate.
	MaxInFlight int
	// FailureThreshold is the number of consecutive failed batch
	// attempts before a GPU is quarantined and its batches re-route to
	// surviving devices or the CPU (default 3).
	FailureThreshold int
	// QuarantineBackoff is the delay before a quarantined GPU receives
	// its first recovery probe; failed probes double it, up to 64x
	// (default 250ms).
	QuarantineBackoff time.Duration
	// Hedge configures hedged re-dispatch of straggling batches. The
	// zero value disables hedging.
	Hedge HedgePolicy
	// ExactVerify re-checks every match against the original tag sets
	// during key lookup, eliminating Bloom-filter false positives at the
	// cost of storing the tags and one string-set containment check per
	// candidate key.
	ExactVerify bool

	// DeltaMaxSets is the number of live overlay entries (staged adds
	// plus tombstones) that triggers a background consolidation
	// (default 4096). Together with DeltaMaxRatio it bounds how much of
	// each query is answered by the slower CPU-side overlay before the
	// consolidator folds it into the partitioned index.
	DeltaMaxSets int
	// DeltaMaxRatio triggers background consolidation when the overlay
	// grows past this fraction of the main index's set count (default
	// 0.25). The effective threshold is max(DeltaMaxSets,
	// DeltaMaxRatio × sets), so small databases are not consolidated on
	// every handful of updates.
	DeltaMaxRatio float64
	// DisableLiveUpdates turns off the match-visible delta overlay and
	// the background consolidator: adds and removes stage silently and
	// take effect only at an explicit Consolidate, the pre-live-update
	// batch contract. Intended for ablation benchmarks.
	DisableLiveUpdates bool

	// TraceEvery samples one query in N for full pipeline tracing,
	// retrievable via Obs().Tracer or GET /debug/stats. Zero disables
	// tracing (the default).
	TraceEvery int

	// DisableObservability turns off the stage histograms, per-partition
	// counters and traces of the observability layer, keeping only the
	// cumulative Stats counters. It also disables the per-device op log
	// (DeviceOpRecords). Overhead with observability on is a few percent
	// at most (see cmd/tagmatch-bench obs-overhead).
	DisableObservability bool

	// Logger receives structured records of operationally significant
	// events (device quarantine entry/exit, device death, CPU fallbacks).
	// Nil disables logging.
	Logger *slog.Logger
}

// opLogSize is the per-device ring of recent operation records kept for
// GET /debug/timeline and DeviceOpRecords (when observability is on).
const opLogSize = 2048

// Engine is a TagMatch subset-matching engine. See the package
// documentation for the lifecycle; all methods are safe for concurrent
// use.
type Engine struct {
	core    *core.Engine
	devices []*gpu.Device
}

// New creates an engine and its simulated GPU devices.
func New(cfg Config) (*Engine, error) {
	if cfg.GPUs < 0 {
		return nil, fmt.Errorf("tagmatch: negative GPU count")
	}
	var devices []*gpu.Device
	for i := 0; i < cfg.GPUs; i++ {
		gcfg := gpu.Config{
			Name:           fmt.Sprintf("sim-gpu-%d", i),
			Workers:        cfg.GPUWorkers,
			GlobalMemBytes: cfg.GPUMemBytes,
		}
		if !cfg.DisableObservability {
			gcfg.OpLogSize = opLogSize
		}
		if cfg.RealisticGPUCosts {
			gcfg.Cost = gpu.DefaultCost
		}
		devices = append(devices, gpu.New(gcfg))
	}
	ccfg := core.Config{
		MaxPartitionSize:     cfg.MaxPartitionSize,
		BatchSize:            cfg.BatchSize,
		BatchTimeout:         cfg.BatchTimeout,
		Threads:              cfg.Threads,
		Devices:              devices,
		StreamsPerDevice:     cfg.StreamsPerGPU,
		Replicate:            !cfg.PartitionAcrossGPUs,
		MaxInFlight:          cfg.MaxInFlight,
		FailureThreshold:     cfg.FailureThreshold,
		QuarantineBackoff:    cfg.QuarantineBackoff,
		HedgePolicy:          cfg.Hedge,
		ExactVerify:          cfg.ExactVerify,
		DeltaMaxSets:         cfg.DeltaMaxSets,
		DeltaMaxRatio:        cfg.DeltaMaxRatio,
		DisableDeltaOverlay:  cfg.DisableLiveUpdates,
		TraceEvery:           cfg.TraceEvery,
		DisableObservability: cfg.DisableObservability,
		Logger:               cfg.Logger,
	}
	eng, err := core.New(ccfg)
	if err != nil {
		for _, d := range devices {
			d.Close()
		}
		return nil, err
	}
	return &Engine{core: eng, devices: devices}, nil
}

// AddSet adds a tag set associated with key. The association is
// matchable immediately: it is staged into the delta overlay, answered
// alongside the main index, and folded into the partitioned GPU index by
// the next consolidation (background or explicit). With
// Config.DisableLiveUpdates it stays invisible until Consolidate.
func (e *Engine) AddSet(tags []string, key Key) { e.core.AddSet(tags, key) }

// RemoveSet removes one (set, key) association. The removal takes
// effect immediately: a tombstone suppresses the association from every
// subsequent Match and MatchUnique until a consolidation rebuilds the
// index without it. Removing an association that does not exist is a
// no-op. With Config.DisableLiveUpdates the removal waits for
// Consolidate.
func (e *Engine) RemoveSet(tags []string, key Key) { e.core.RemoveSet(tags, key) }

// PendingOps returns the number of staged operations not yet folded
// into the partitioned index. With live updates enabled these are
// already match-visible through the overlay; the background consolidator
// drains them once the overlay outgrows Config.DeltaMaxSets /
// Config.DeltaMaxRatio.
func (e *Engine) PendingOps() int { return e.core.PendingOps() }

// Consolidate synchronously folds all staged operations into the
// partitioned index, rebuilding it offline and uploading the tagset
// table to the GPUs. With live updates enabled this is optional — the
// background consolidator does the same work automatically — but remains
// useful to force a clean index before benchmarking, or as the only
// update mechanism when Config.DisableLiveUpdates is set.
func (e *Engine) Consolidate() error { return e.core.Consolidate() }

// Match returns the multiset of keys of every stored set that is a
// subset of the query tags (blocking).
func (e *Engine) Match(tags []string) ([]Key, error) { return e.core.Match(tags) }

// MatchUnique returns the deduplicated keys of all matching sets
// (blocking).
func (e *Engine) MatchUnique(tags []string) ([]Key, error) { return e.core.MatchUnique(tags) }

// MatchCtx is Match with an end-to-end deadline: the context's deadline
// and cancellation propagate into the pipeline, where expired queries
// are completed with an error matching ErrDeadlineExceeded before any
// kernel launch, and the call returns promptly when the context ends.
func (e *Engine) MatchCtx(ctx context.Context, tags []string) ([]Key, error) {
	return e.core.MatchCtx(ctx, tags)
}

// MatchUniqueCtx is MatchUnique with MatchCtx's deadline propagation.
func (e *Engine) MatchUniqueCtx(ctx context.Context, tags []string) ([]Key, error) {
	return e.core.MatchUniqueCtx(ctx, tags)
}

// Submit enqueues a streaming match; done is called exactly once.
func (e *Engine) Submit(tags []string, done func(MatchResult)) error {
	return e.core.Submit(tags, done)
}

// SubmitUnique enqueues a streaming match-unique.
func (e *Engine) SubmitUnique(tags []string, done func(MatchResult)) error {
	return e.core.SubmitUnique(tags, done)
}

// SubmitCtx is Submit that blocks for admission capacity instead of
// returning ErrOverloaded, up to the context's deadline. On cancellation
// it returns an error matching both ErrOverloaded and the context error.
func (e *Engine) SubmitCtx(ctx context.Context, tags []string, done func(MatchResult)) error {
	return e.core.SubmitCtx(ctx, tags, done)
}

// SubmitUniqueCtx is SubmitUnique with SubmitCtx's blocking admission.
func (e *Engine) SubmitUniqueCtx(ctx context.Context, tags []string, done func(MatchResult)) error {
	return e.core.SubmitUniqueCtx(ctx, tags, done)
}

// Drain blocks until every submitted query has completed.
func (e *Engine) Drain() { e.core.Drain() }

// Stats returns engine counters, database shape and memory usage.
func (e *Engine) Stats() Stats { return e.core.Stats() }

// Obs returns the engine's observability layer: per-stage latency
// histograms (p50/p99/max), per-partition hot-spot counters, queue-depth
// gauges, and sampled query traces. See internal/obs.
func (e *Engine) Obs() *obs.Pipeline { return e.core.Obs() }

// DeviceStat pairs a simulated GPU's name with its activity counters.
type DeviceStat struct {
	Name  string    `json:"name"`
	Stats gpu.Stats `json:"stats"`
}

// DeviceStats returns per-device counters: kernel launches, blocks,
// copies and bytes in each direction, atomics, and memory in use.
func (e *Engine) DeviceStats() []DeviceStat {
	out := make([]DeviceStat, len(e.devices))
	for i, d := range e.devices {
		out[i] = DeviceStat{Name: d.Name(), Stats: d.Stats()}
	}
	return out
}

// DeviceOps pairs a simulated GPU's name with its recent operation
// records, oldest first.
type DeviceOps struct {
	Name string         `json:"name"`
	Ops  []gpu.OpRecord `json:"ops"`
}

// DeviceOpRecords returns each device's ring of recent operations (H2D
// copies, kernel launches, D2H copies) with per-op queue-wait and
// service times — the raw feed of GET /debug/timeline's device tracks.
// Empty when DisableObservability is set.
func (e *Engine) DeviceOpRecords() []DeviceOps {
	out := make([]DeviceOps, len(e.devices))
	for i, d := range e.devices {
		out[i] = DeviceOps{Name: d.Name(), Ops: d.OpRecords()}
	}
	return out
}

// SaveSnapshot writes the database to w in the engine's binary snapshot
// format. Staged (unconsolidated) operations are included: the stream
// carries the logical database with pending adds and removes applied, so
// a snapshot taken mid-churn restores to exactly what a Consolidate at
// the same instant would have committed.
func (e *Engine) SaveSnapshot(w io.Writer) error { return e.core.SaveSnapshot(w) }

// LoadSnapshot stages a previously saved database from r and
// consolidates. Load into a freshly created engine to restore state, or
// into a populated one to merge.
func (e *Engine) LoadSnapshot(r io.Reader) error { return e.core.LoadSnapshot(r) }

// Close drains the pipeline and releases all resources, including the
// simulated devices.
func (e *Engine) Close() error {
	err := e.core.Close()
	for _, d := range e.devices {
		d.Close()
	}
	return err
}
