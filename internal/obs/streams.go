package obs

import "sync/atomic"

// StreamCounters instruments the GPU dispatch path: what a batch uploads
// and how long it waits for a stream. Like FaultCounters and
// KernelCounters they are NOT gated by Pipeline.On — they feed the
// engine's Stats and the /metrics gauge that derives h2d bytes/query.
type StreamCounters struct {
	// H2DQueryBytes accumulates the host-to-device bytes spent moving
	// query data (the batch's signatures, its entry indices and its
	// segment table); QuerySlots accumulates the batch entries those
	// bytes paid for. A query routed to k partitions occupies k entries.
	H2DQueryBytes atomic.Int64
	QuerySlots    atomic.Int64

	// SegmentsPerBatch is the distribution of segments — partitions — per
	// dispatched batch: 1 when one partition's run fills the batch, up to
	// one per entry when the log is spread thinly over many partitions.
	SegmentsPerBatch Histogram
	// AcquireWait is the time (nanoseconds) each dispatch attempt spent
	// acquiring a stream: near zero with idle streams, the stream
	// turnaround when the pool — the batching governor — is exhausted.
	AcquireWait Histogram
}

// StreamSnapshot is the JSON-facing view of StreamCounters.
type StreamSnapshot struct {
	H2DQueryBytes    int64        `json:"h2d_query_bytes"`
	QuerySlots       int64        `json:"query_slots"`
	SegmentsPerBatch HistSnapshot `json:"segments_per_batch"`
	AcquireWait      HistSnapshot `json:"stream_acquire_wait_ns"`
}

// Snapshot returns an atomic-per-field copy for export.
func (s *StreamCounters) Snapshot() StreamSnapshot {
	return StreamSnapshot{
		H2DQueryBytes:    s.H2DQueryBytes.Load(),
		QuerySlots:       s.QuerySlots.Load(),
		SegmentsPerBatch: s.SegmentsPerBatch.Snapshot(),
		AcquireWait:      s.AcquireWait.Snapshot(),
	}
}

// BytesPerQuerySlot returns the mean H2D query bytes per batch entry,
// 0 before any dispatch.
func (s *StreamCounters) BytesPerQuerySlot() float64 {
	q := s.QuerySlots.Load()
	if q == 0 {
		return 0
	}
	return float64(s.H2DQueryBytes.Load()) / float64(q)
}

// writeProm emits the stream counters in Prometheus text format.
func (s *StreamCounters) writeProm(w *PromWriter) {
	w.Counter("tagmatch_h2d_query_bytes_total",
		"Host-to-device bytes spent moving query data.",
		nil, float64(s.H2DQueryBytes.Load()))
	w.Counter("tagmatch_query_slots_total",
		"Batch query slots dispatched to devices.",
		nil, float64(s.QuerySlots.Load()))
	w.Gauge("tagmatch_h2d_query_bytes_per_query",
		"Mean H2D query bytes per dispatched batch query slot (lower is better).",
		nil, s.BytesPerQuerySlot())
	w.Histogram("tagmatch_batch_segments",
		"Segments (partitions) per dispatched batch.",
		nil, s.SegmentsPerBatch.Snapshot(), 1)
	w.Histogram("tagmatch_stream_acquire_wait_seconds",
		"Time a dispatch attempt waited for a stream slot.",
		nil, s.AcquireWait.Snapshot(), 1e-9)
}
