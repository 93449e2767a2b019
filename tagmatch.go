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
// costs. New creates Config.GPUs of them and Close closes them; setting
// Config.GPUs to zero selects the CPU-only pipeline. Config is declared
// once, in the engine package, with each field's documentation.
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
	"io"

	"tagmatch/internal/bloom"
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

// Key is the application value associated with a stored tag set — a user
// id in the paper's Twitter-like workload.
type Key = core.Key

// MatchResult carries the outcome of one streamed query.
type MatchResult = core.MatchResult

// Stats is a snapshot of engine activity and memory usage.
type Stats = core.Stats

// Config configures an Engine; see core.Config for each field. The zero
// value is a valid CPU-only configuration with defaults suitable for
// small databases.
type Config = core.Config

// Engine is a TagMatch subset-matching engine. See the package
// documentation for the lifecycle; all methods are safe for concurrent
// use.
type Engine struct {
	core *core.Engine
}

// New creates an engine and its Config.GPUs simulated GPU devices.
func New(cfg Config) (*Engine, error) {
	eng, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{core: eng}, nil
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

// request is the engine request of a tag query: the tags' signature,
// checked against the tags themselves under Config.ExactVerify.
func request(tags []string, unique bool) core.Request {
	return core.Request{Sig: bloom.Signature(tags), Tags: tags, Unique: unique}
}

// Match returns the multiset of keys of every stored set that is a
// subset of the query tags (blocking).
func (e *Engine) Match(tags []string) ([]Key, error) {
	return e.core.Match(context.Background(), request(tags, false))
}

// MatchUnique returns the deduplicated keys of all matching sets
// (blocking).
func (e *Engine) MatchUnique(tags []string) ([]Key, error) {
	return e.core.Match(context.Background(), request(tags, true))
}

// MatchCtx is Match with an end-to-end deadline: the context's deadline
// and cancellation propagate into the pipeline, where expired queries
// are completed with an error matching ErrDeadlineExceeded before any
// kernel launch, and the call returns promptly when the context ends.
func (e *Engine) MatchCtx(ctx context.Context, tags []string) ([]Key, error) {
	return e.core.Match(ctx, request(tags, false))
}

// MatchUniqueCtx is MatchUnique with MatchCtx's deadline propagation.
func (e *Engine) MatchUniqueCtx(ctx context.Context, tags []string) ([]Key, error) {
	return e.core.Match(ctx, request(tags, true))
}

// Submit enqueues a streaming match; done is called exactly once.
func (e *Engine) Submit(tags []string, done func(MatchResult)) error {
	return e.core.Submit(context.Background(), request(tags, false), done)
}

// SubmitUnique enqueues a streaming match-unique.
func (e *Engine) SubmitUnique(tags []string, done func(MatchResult)) error {
	return e.core.Submit(context.Background(), request(tags, true), done)
}

// SubmitCtx is Submit that blocks for admission capacity instead of
// returning ErrOverloaded, up to the context's deadline. On cancellation
// it returns an error matching both ErrOverloaded and the context error.
func (e *Engine) SubmitCtx(ctx context.Context, tags []string, done func(MatchResult)) error {
	return e.core.SubmitWait(ctx, request(tags, false), done)
}

// SubmitUniqueCtx is SubmitUnique with SubmitCtx's blocking admission.
func (e *Engine) SubmitUniqueCtx(ctx context.Context, tags []string, done func(MatchResult)) error {
	return e.core.SubmitWait(ctx, request(tags, true), done)
}

// Drain blocks until every submitted query has completed and its done
// callback has returned; a done callback must not call Drain.
func (e *Engine) Drain() { e.core.Drain() }

// Stats returns engine counters, database shape and memory usage.
func (e *Engine) Stats() Stats { return e.core.Stats() }

// Obs returns the engine's observability layer: per-stage latency
// histograms (p50/p99/max), per-partition hot-spot counters, queue-depth
// gauges, and sampled query traces. See internal/obs.
func (e *Engine) Obs() *obs.Pipeline { return e.core.Obs() }

// DeviceStat pairs a simulated GPU's name with its activity counters and
// derived gauges.
type DeviceStat struct {
	Name   string           `json:"name"`
	Stats  gpu.Stats        `json:"stats"`
	Gauges obs.DeviceGauges `json:"gauges"`
}

// DeviceStats returns per-device counters: kernel launches, blocks,
// copies and bytes in each direction, atomics, and memory in use; and
// the device's copy/compute overlap, utilization and stream queue depth.
func (e *Engine) DeviceStats() []DeviceStat {
	devs := e.core.Devices()
	out := make([]DeviceStat, len(devs))
	for i, d := range devs {
		out[i] = DeviceStat{Name: d.Name(), Stats: d.Stats(), Gauges: e.core.DeviceGauges(i)}
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
	devs := e.core.Devices()
	out := make([]DeviceOps, len(devs))
	for i, d := range devs {
		out[i] = DeviceOps{Name: d.Name(), Ops: d.OpRecords()}
	}
	return out
}

// SaveSnapshot writes the database to w in the engine's binary snapshot
// format. Staged (unconsolidated) operations are included: the stream
// carries the logical database with pending adds and removes applied, so
// a snapshot taken mid-churn restores to exactly what a Consolidate at
// the same instant would have committed. Two saves of an unchanged
// engine write the same bytes.
func (e *Engine) SaveSnapshot(w io.Writer) error { return e.core.SaveSnapshot(w) }

// LoadSnapshot loads a previously saved database from r and
// consolidates it, after any staged operations. Load into a freshly
// created engine to restore state, or into a populated one to merge.
func (e *Engine) LoadSnapshot(r io.Reader) error { return e.core.LoadSnapshot(r) }

// Close drains the pipeline and releases all resources, including the
// simulated devices.
func (e *Engine) Close() error { return e.core.Close() }
