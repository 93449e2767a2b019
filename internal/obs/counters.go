package obs

import "sync/atomic"

// The declarations of the pipeline's counters and gauges (see
// registry.go for the tags). Unlike the latency histograms they are NOT
// gated by Pipeline.On: they feed the engine's Stats and the regression
// tests, and each costs one atomic add on its path — the kernels
// accumulate theirs in locals and flush one bulk add per thread block
// (per segment on the host path), never per (group, query).

// FlowCounters count the queries and batches through the pipeline and
// each stage's cumulative busy time, summed across workers: pre-process
// (Algorithm 2 and the hand-over to the log), subset match (dispatch to
// result arrival; on the host path the synchronous match) and reduce.
type FlowCounters struct {
	Submitted atomic.Int64 `prom:"tagmatch_queries_submitted_total" json:"queries_submitted" help:"Queries accepted by Submit/Match."`
	Completed atomic.Int64 `prom:"tagmatch_queries_completed_total" json:"queries_completed" help:"Queries whose results were delivered."`
	Batches   atomic.Int64 `prom:"tagmatch_batches_dispatched_total" json:"batches_dispatched" help:"Batches dispatched to the subset-match stage."`
	// BatchesTimedOut counts batches by what started their flush pass:
	// the flusher's tick, because the log's oldest entry had waited
	// BatchTimeout. Such a pass still cuts full batches.
	BatchesTimedOut    atomic.Int64 `prom:"tagmatch_batches_timed_out_total" json:"batches_timed_out" help:"Batches cut by a flush pass the flusher's tick started (the oldest logged entry had waited BatchTimeout); counts what started the pass, not whether the batch filled."`
	Pairs              atomic.Int64 `prom:"tagmatch_pairs_produced_total" json:"pairs_produced" help:"(query,set) candidate pairs produced by subset match."`
	KeysDelivered      atomic.Int64 `prom:"tagmatch_keys_delivered_total" json:"keys_delivered" help:"Keys delivered to callers across all queries."`
	Overflows          atomic.Int64 `prom:"tagmatch_result_overflows_total" json:"result_overflows" help:"Batches whose result buffer overflowed (CPU fallback)."`
	PartitionsSearched atomic.Int64 `prom:"tagmatch_partitions_searched_total" json:"partitions_searched" help:"Partition visits after Algorithm 2 pruning."`
	PreprocessNs       atomic.Int64 `prom:"tagmatch_stage_busy_seconds_total{stage=preprocess}" json:"preprocess_time_ns" help:"Cumulative busy time per pipeline stage, summed across workers."`
	MatchNs            atomic.Int64 `prom:"tagmatch_stage_busy_seconds_total{stage=subset_match}" json:"subset_match_time_ns"`
	ReduceNs           atomic.Int64 `prom:"tagmatch_stage_busy_seconds_total{stage=reduce}" json:"reduce_time_ns"`
}

// FaultCounters is the fault-tolerance event log: GPU batch failures,
// retries, CPU fallbacks, device quarantine transitions, load shedding,
// deadlines and HTTP timeouts.
type FaultCounters struct {
	GPUFaults        atomic.Int64 `prom:"tagmatch_gpu_faults_total" json:"gpu_faults" help:"GPU batch attempts failed (copy, launch, or result-transfer error)."`
	BatchRetries     atomic.Int64 `prom:"tagmatch_batch_retries_total" json:"batch_retries" help:"Batches re-dispatched on their owning device after a failure."`
	CPUFallbacks     atomic.Int64 `prom:"tagmatch_cpu_fallbacks_total" json:"cpu_fallbacks" help:"Batches re-run on the host after GPU failure or quarantine."`
	Quarantines      atomic.Int64 `prom:"tagmatch_device_quarantines_total" json:"device_quarantines" help:"Devices quarantined by the consecutive-failure circuit breaker."`
	Probes           atomic.Int64 `prom:"tagmatch_device_recovery_probes_total" json:"recovery_probes" help:"Recovery probes sent to quarantined devices."`
	Recoveries       atomic.Int64 `prom:"tagmatch_device_recoveries_total" json:"device_recoveries" help:"Devices returned to rotation by a successful probe."`
	QueriesShed      atomic.Int64 `prom:"tagmatch_queries_shed_total" json:"queries_shed" help:"Query submissions rejected by the overload gate."`
	DeadlineExpired  atomic.Int64 `prom:"tagmatch_deadline_expired_total" json:"deadline_expired" help:"Queries completed with ErrDeadlineExceeded before their batch launched."`
	BatchesCancelled atomic.Int64 `prom:"tagmatch_batches_cancelled_total" json:"batches_cancelled" help:"Batches dropped before device work because every query had expired."`
	HTTPTimeouts     atomic.Int64 `prom:"tagmatch_http_timeouts_total" json:"http_timeouts" help:"HTTP match requests answered 504 (deadline exceeded or request cancelled)."`
}

// RoutingCounters count the pre-process routing path: queries routed
// through the bit-sliced partition table, and the hand-overs to the
// routed-entry log — one lock acquisition per burst of queries a worker
// routed. RouteAppends / MergeLockAcqs is the entries per hand-over;
// per-entry locking would hold it at 1. The queries series keeps its
// flavor label, always "sliced", as the kernel's batches series does.
type RoutingCounters struct {
	SlicedQueries atomic.Int64 `prom:"tagmatch_routing_queries_total{flavor=sliced}" json:"routed_sliced" help:"Queries routed by the pre-process stage, by lookup flavor."`
	MergeLockAcqs atomic.Int64 `prom:"tagmatch_routing_merge_locks_total" json:"route_merge_locks" help:"Acquisitions of the routed-entry log's mutex, one per pre-process burst."`
	MergedAppends atomic.Int64 `prom:"tagmatch_routing_merged_appends_total" json:"route_appends" help:"(query,partition) entries handed over to the routed-entry log."`
}

// KernelCounters count the subset-match stage. GateChecks counts the
// (entry, group) pairs the gates decided and GatePruned those rejected —
// the group's 64 sets discarded — before any column was read; GateTests
// counts the three-word tests that took: fewer than one per pair where a
// rejected run of groups decides all the groups beneath it.
// ColumnsWalked / GroupScans is the mean scan depth of the sliced walk.
type KernelCounters struct {
	SlicedBatches atomic.Int64 `prom:"tagmatch_kernel_batches_total{flavor=sliced}" json:"kernel_sliced" help:"Batch subset matches executed by the bit-sliced kernel, on a device or the host."`
	GateChecks    atomic.Int64 `prom:"tagmatch_kernel_gate_checks_total" json:"kernel_gate_checks" help:"(group, query) pairs decided by the sliced kernel's gates."`
	GatePruned    atomic.Int64 `prom:"tagmatch_kernel_gate_pruned_total" json:"kernel_gate_pruned" help:"(group, query) pairs whose 64-set group was discarded before any column was read."`
	GateTests     atomic.Int64 `prom:"tagmatch_kernel_gate_tests_total" json:"kernel_gate_tests" help:"Three-word gate tests executed, on run nodes and on groups."`
	GroupScans    atomic.Int64 `prom:"tagmatch_kernel_group_scans_total" json:"kernel_group_scans" help:"Column walks executed after a passing (or disabled) gate."`
	ColumnsWalked atomic.Int64 `prom:"tagmatch_kernel_columns_walked_total" json:"kernel_columns_walked" help:"Column words touched by sliced subset scans."`
	Columns       Histogram    `prom:"tagmatch_kernel_columns_per_block" json:"kernel_columns_per_block" help:"Column words walked per thread block (per segment on the host path)."`
}

// StreamCounters count the GPU dispatch path: the H2D bytes spent moving
// query data (the batch's signatures, entry indices and segment table)
// over the batch entries they paid for — a query routed to k partitions
// occupies k — and the wait for a stream. SegmentsPerBatch's sum is the
// segments dispatched: SegmentsPerBatch / batches is the mean number of
// partitions sharing one copy/launch/copy.
type StreamCounters struct {
	H2DQueryBytes    atomic.Int64 `prom:"tagmatch_h2d_query_bytes_total" json:"h2d_query_bytes" help:"Host-to-device bytes spent moving query data."`
	QuerySlots       atomic.Int64 `prom:"tagmatch_query_slots_total" json:"query_slots" help:"Batch query slots dispatched to devices."`
	BytesPerSlot     Gauge        `prom:"tagmatch_h2d_query_bytes_per_query" json:"h2d_query_bytes_per_slot" help:"Mean H2D query bytes per dispatched batch query slot (lower is better)."`
	SegmentsPerBatch Histogram    `prom:"tagmatch_batch_segments" json:"segments_dispatched" help:"Segments (partitions) per dispatched batch."`
	AcquireWait      Histogram    `prom:"tagmatch_stream_acquire_wait_seconds" json:"stream_acquire_wait_ns" help:"Time a dispatch attempt waited for a stream slot."`
}

// DeltaCounters count the live-update subsystem — the match-visible
// overlay (staged adds matchable ahead of consolidation, removes as
// tombstones) — and the consolidator that folds it into the main index.
// SwapPause is the traffic pause of a background fold: the drain, index
// swap and device upload that exclude submissions, as opposed to the
// full rebuild a synchronous Consolidate blocks for (LastConsolidateNs).
type DeltaCounters struct {
	AbsorbedOps        atomic.Int64 `prom:"tagmatch_delta_absorbed_ops_total" json:"delta_absorbed_ops" help:"Staged add/remove operations absorbed into the match-visible delta overlay."`
	OverlayMatches     atomic.Int64 `prom:"tagmatch_delta_overlay_matches_total" json:"delta_matches" help:"Queries that drew at least one key from the delta overlay."`
	OverlayKeys        atomic.Int64 `prom:"tagmatch_delta_overlay_keys_total" json:"delta_keys" help:"Keys delivered from the delta overlay."`
	TombSuppressed     atomic.Int64 `prom:"tagmatch_delta_tombstone_suppressions_total" json:"tombstone_suppressions" help:"Main-index key entries suppressed by live tombstones at reduce time."`
	AutoConsolidations atomic.Int64 `prom:"tagmatch_auto_consolidations_total" json:"auto_consolidations" help:"Background consolidations triggered by the delta overlay threshold."`
	IncrementalFolds   atomic.Int64 `prom:"tagmatch_incremental_folds_total" json:"incremental_folds" help:"Background consolidations that folded the overlay incrementally instead of rebuilding the index."`
	SwapPause          Histogram    `prom:"tagmatch_consolidation_swap_pause_seconds" json:"swap_pause_ns" help:"Traffic pause of a background consolidation swap (drain + index swap + device upload)."`
	LastSwapPauseNs    atomic.Int64 `prom:"tagmatch_last_swap_pause_seconds" json:"last_swap_pause_ns" help:"Traffic pause of the most recent background consolidation swap."`
	LastConsolidateNs  atomic.Int64 `prom:"tagmatch_last_consolidate_seconds" json:"last_consolidate_ns" help:"Duration of the most recent Consolidate."`
}

// EngineGauges read the engine's state at export time; the engine
// installs them when it starts.
type EngineGauges struct {
	UniqueSets         Gauge `prom:"tagmatch_db_sets" json:"unique_sets" help:"Unique tag sets in the consolidated index."`
	Partitions         Gauge `prom:"tagmatch_db_partitions" json:"partitions" help:"Partitions in the consolidated index."`
	Keys               Gauge `prom:"tagmatch_db_keys" json:"keys" help:"Distinct (set,key) associations."`
	HostBytes          Gauge `prom:"tagmatch_host_bytes" json:"host_bytes" help:"Host memory held by the index."`
	InputQueue         Gauge `prom:"tagmatch_queue_depth{queue=input}" json:"queue_depth_input" help:"Queued items per pipeline queue."`
	ReduceQueue        Gauge `prom:"tagmatch_queue_depth{queue=reduce}" json:"queue_depth_reduce"`
	InflightBatches    Gauge `prom:"tagmatch_inflight_batches" json:"inflight_batches" help:"Batches dispatched to the subset-match stage and not yet reduced."`
	StagedOps          Gauge `prom:"tagmatch_staged_ops" json:"staged_ops" help:"Staged add/remove operations awaiting Consolidate."`
	DeltaAdds          Gauge `prom:"tagmatch_delta_sets" json:"delta_adds" help:"Live delta-overlay adds matchable ahead of consolidation."`
	DeltaTombstones    Gauge `prom:"tagmatch_delta_tombstones" json:"delta_tombstones" help:"Live tombstones suppressing main-index keys ahead of consolidation."`
	DeltaAge           Gauge `prom:"tagmatch_delta_age_seconds" json:"delta_age_ns" help:"Seconds since the delta overlay last became non-empty (0 when empty)."`
	RoutedLogEntries   Gauge `prom:"tagmatch_routed_log_entries" json:"routed_log_entries" help:"Routed (query, partition) entries logged and not yet taken by a flush pass."`
	StreamsIdle        Gauge `prom:"tagmatch_streams_idle" json:"streams_idle" help:"GPU stream dispatch slots currently idle in the acquisition pools."`
	OverlapFraction    Gauge `prom:"tagmatch_pipeline_overlap_fraction" json:"pipeline_overlap_fraction" help:"Fraction of cumulative kernel time overlapped with copies, aggregated across devices."`
	DevicesQuarantined Gauge `prom:"tagmatch_devices_quarantined" json:"devices_quarantined" help:"Devices currently quarantined by the failure circuit breaker."`
	StreamOpsPending   Gauge `prom:"tagmatch_stream_ops_pending" json:"stream_ops_pending" help:"Device operations queued on GPU streams and not yet executed."`
}

// DeviceGauges are one device's derived gauges, exported beside its
// gpu.Stats counters under the same device label (Pipeline.Devices) and
// beside them in /debug/stats' devices section.
type DeviceGauges struct {
	OverlapFraction  float64 `json:"overlap_fraction" prom:"tagmatch_gpu_overlap_fraction" help:"Fraction of cumulative kernel time overlapped with copies on the device."`
	Utilization      float64 `json:"utilization" prom:"tagmatch_gpu_utilization" help:"Fraction of device SM-worker capacity busy executing blocks since creation."`
	StreamQueueDepth int     `json:"stream_queue_depth" prom:"tagmatch_gpu_stream_queue_depth" help:"Device operations queued (not yet started) across the device's streams."`
}
