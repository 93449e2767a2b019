package obs

import "sync/atomic"

// RoutingCounters instruments the pre-process routing path: which
// lookup flavor served each query, and how many entries each hand-over
// to the routed-entry log carried. Like FaultCounters they are NOT
// gated by Pipeline.On — they feed the engine's Stats and the
// contention regression tests, and they cost one bulk atomic add per
// query or per hand-over, not per (query, partition).
type RoutingCounters struct {
	// SlicedQueries counts queries routed through the bit-sliced
	// (column-transposed) partition-table lookup.
	SlicedQueries atomic.Int64
	// ScalarQueries counts queries routed through the retained scalar
	// Algorithm 2 scan (Config.ScalarRouting, CPU fallback baselines).
	ScalarQueries atomic.Int64
	// MergeLockAcqs counts acquisitions of the routed-entry log's mutex:
	// one per burst of queries a pre-process worker hands over.
	MergeLockAcqs atomic.Int64
	// MergedAppends counts the (query, partition) entries handed over
	// under those acquisitions. MergedAppends / MergeLockAcqs is the
	// entries per hand-over; per-entry locking would hold it at 1.
	MergedAppends atomic.Int64
}

// RoutingSnapshot is the JSON-facing view of RoutingCounters.
type RoutingSnapshot struct {
	SlicedQueries int64 `json:"sliced_queries"`
	ScalarQueries int64 `json:"scalar_queries"`
	MergeLockAcqs int64 `json:"merge_lock_acquisitions"`
	MergedAppends int64 `json:"merged_appends"`
}

// Snapshot returns an atomic-per-field copy for export.
func (r *RoutingCounters) Snapshot() RoutingSnapshot {
	return RoutingSnapshot{
		SlicedQueries: r.SlicedQueries.Load(),
		ScalarQueries: r.ScalarQueries.Load(),
		MergeLockAcqs: r.MergeLockAcqs.Load(),
		MergedAppends: r.MergedAppends.Load(),
	}
}

// writeProm emits the routing counters in Prometheus text format.
func (r *RoutingCounters) writeProm(w *PromWriter) {
	w.Counter("tagmatch_routing_queries_total",
		"Queries routed by the pre-process stage, by lookup flavor.",
		Labels{{"flavor", "sliced"}}, float64(r.SlicedQueries.Load()))
	w.Counter("tagmatch_routing_queries_total",
		"Queries routed by the pre-process stage, by lookup flavor.",
		Labels{{"flavor", "scalar"}}, float64(r.ScalarQueries.Load()))
	w.Counter("tagmatch_routing_merge_locks_total",
		"Acquisitions of the routed-entry log's mutex, one per pre-process burst.",
		nil, float64(r.MergeLockAcqs.Load()))
	w.Counter("tagmatch_routing_merged_appends_total",
		"(query,partition) entries handed over to the routed-entry log.",
		nil, float64(r.MergedAppends.Load()))
}
