package obs

import "sync/atomic"

// StreamCounters instruments the pipelined GPU dispatch path: the
// per-device query window (signature reuse across partition fan-out)
// and the double-buffered stream slots (batch overlap on one stream).
// Like FaultCounters and KernelCounters they are NOT gated by
// Pipeline.On — they feed the engine's Stats, the pipeline bench
// assertions, and the /metrics gauges that derive h2d bytes/query.
type StreamCounters struct {
	// WindowHits counts batch query slots resolved to an already-ready
	// window ring entry (no signature upload); WindowMisses counts slots
	// whose signature had to be uploaded into a freshly claimed ring
	// entry. Misses / (Hits + Misses) is the residual upload rate.
	WindowHits   atomic.Int64
	WindowMisses atomic.Int64
	// WindowEvictions counts ready ring entries reclaimed by the clock
	// hand to make room for new signatures.
	WindowEvictions atomic.Int64
	// WindowFallbacks counts batches that bypassed the window entirely —
	// ring exhausted by pinned in-flight entries, or the fill fragmented
	// into too many copy runs — and uploaded densely instead.
	WindowFallbacks atomic.Int64
	// H2DQueryBytes accumulates the host-to-device bytes spent moving
	// query data (signature fills plus index arrays, or dense signature
	// batches); QuerySlots accumulates the batch query slots those bytes
	// paid for. H2DQueryBytes / QuerySlots is the h2d_bytes_per_query
	// figure the window is meant to shrink: a query routed to k
	// partitions occupies k slots but, with the window on, uploads its
	// signature once.
	H2DQueryBytes atomic.Int64
	QuerySlots    atomic.Int64
	// PipelinedDispatches counts batches dispatched onto a stream that
	// already had at least one batch in flight — the double-buffering
	// actually overlapping, not just configured.
	PipelinedDispatches atomic.Int64

	// SlotOccupancy is the distribution of in-flight batches per stream
	// observed at each dispatch (1 = the stream was idle; StreamDepth =
	// the pipeline was full).
	SlotOccupancy Histogram

	// SegmentsPerBatch is the distribution of segments — partitions — per
	// dispatched batch: 1 for a partition batch that filled, up to one
	// per entry when a flush packs sparse partitions together.
	SegmentsPerBatch Histogram
	// AcquireWait is the time (nanoseconds) each dispatch attempt spent
	// acquiring a stream slot: near zero with idle slots, the slot
	// turnaround when the pool — the batching governor — is exhausted.
	AcquireWait Histogram
}

// StreamSnapshot is the JSON-facing view of StreamCounters.
type StreamSnapshot struct {
	WindowHits          int64        `json:"window_hits"`
	WindowMisses        int64        `json:"window_misses"`
	WindowEvictions     int64        `json:"window_evictions"`
	WindowFallbacks     int64        `json:"window_fallbacks"`
	H2DQueryBytes       int64        `json:"h2d_query_bytes"`
	QuerySlots          int64        `json:"query_slots"`
	PipelinedDispatches int64        `json:"pipelined_dispatches"`
	SlotOccupancy       HistSnapshot `json:"slot_occupancy"`
	SegmentsPerBatch    HistSnapshot `json:"segments_per_batch"`
	AcquireWait         HistSnapshot `json:"stream_acquire_wait_ns"`
}

// Snapshot returns an atomic-per-field copy for export.
func (s *StreamCounters) Snapshot() StreamSnapshot {
	return StreamSnapshot{
		WindowHits:          s.WindowHits.Load(),
		WindowMisses:        s.WindowMisses.Load(),
		WindowEvictions:     s.WindowEvictions.Load(),
		WindowFallbacks:     s.WindowFallbacks.Load(),
		H2DQueryBytes:       s.H2DQueryBytes.Load(),
		QuerySlots:          s.QuerySlots.Load(),
		PipelinedDispatches: s.PipelinedDispatches.Load(),
		SlotOccupancy:       s.SlotOccupancy.Snapshot(),
		SegmentsPerBatch:    s.SegmentsPerBatch.Snapshot(),
		AcquireWait:         s.AcquireWait.Snapshot(),
	}
}

// HitRate returns the window hit fraction, 0 before any assignment.
func (s *StreamCounters) HitRate() float64 {
	h, m := s.WindowHits.Load(), s.WindowMisses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// BytesPerQuerySlot returns the mean H2D query bytes per batch query
// slot, 0 before any dispatch.
func (s *StreamCounters) BytesPerQuerySlot() float64 {
	q := s.QuerySlots.Load()
	if q == 0 {
		return 0
	}
	return float64(s.H2DQueryBytes.Load()) / float64(q)
}

// writeProm emits the stream counters in Prometheus text format.
func (s *StreamCounters) writeProm(w *PromWriter) {
	w.Counter("tagmatch_query_window_lookups_total",
		"Batch query slots resolved against the device query window, by outcome.",
		Labels{{"outcome", "hit"}}, float64(s.WindowHits.Load()))
	w.Counter("tagmatch_query_window_lookups_total",
		"Batch query slots resolved against the device query window, by outcome.",
		Labels{{"outcome", "miss"}}, float64(s.WindowMisses.Load()))
	w.Counter("tagmatch_query_window_evictions_total",
		"Ready window ring entries reclaimed by the clock hand.",
		nil, float64(s.WindowEvictions.Load()))
	w.Counter("tagmatch_query_window_fallbacks_total",
		"Batches that bypassed the window and uploaded signatures densely.",
		nil, float64(s.WindowFallbacks.Load()))
	w.Counter("tagmatch_h2d_query_bytes_total",
		"Host-to-device bytes spent moving query data.",
		nil, float64(s.H2DQueryBytes.Load()))
	w.Counter("tagmatch_query_slots_total",
		"Batch query slots dispatched to devices.",
		nil, float64(s.QuerySlots.Load()))
	w.Counter("tagmatch_pipelined_dispatches_total",
		"Batches dispatched onto a stream that already had a batch in flight.",
		nil, float64(s.PipelinedDispatches.Load()))
	w.Gauge("tagmatch_h2d_query_bytes_per_query",
		"Mean H2D query bytes per dispatched batch query slot (lower is better).",
		nil, s.BytesPerQuerySlot())
	w.Histogram("tagmatch_stream_slot_occupancy",
		"In-flight batches per stream observed at dispatch.",
		nil, s.SlotOccupancy.Snapshot(), 1)
	w.Histogram("tagmatch_batch_segments",
		"Segments (partitions) per dispatched batch.",
		nil, s.SegmentsPerBatch.Snapshot(), 1)
	w.Histogram("tagmatch_stream_acquire_wait_seconds",
		"Time a dispatch attempt waited for a stream slot.",
		nil, s.AcquireWait.Snapshot(), 1e-9)
}
