package obs

import "sync/atomic"

// FaultCounters is the fault-tolerance event log of the pipeline: GPU
// batch failures, retries, CPU fallbacks, device quarantine transitions,
// and load-shedding rejections. Unlike the latency histograms these are
// NOT gated by Pipeline.On — they feed the engine's Stats and the
// acceptance criteria of the failure-handling logic, and they only cost
// an atomic increment on paths that are already off the happy path.
type FaultCounters struct {
	// GPUFaults counts batch attempts that failed on a device (copy,
	// launch, or result-transfer error, including a dead device).
	GPUFaults atomic.Int64
	// BatchRetries counts batches re-dispatched after a failed attempt,
	// on a stream of the device that owns their partitions.
	BatchRetries atomic.Int64
	// CPUFallbacks counts batches re-run on the host because no healthy
	// device attempt remained (quarantine, repeated failure).
	CPUFallbacks atomic.Int64
	// Quarantines counts devices taken out of rotation by the
	// consecutive-failure circuit breaker.
	Quarantines atomic.Int64
	// Probes counts recovery probes: single batches let through to a
	// quarantined device after its backoff elapsed.
	Probes atomic.Int64
	// Recoveries counts devices returned to rotation by a successful
	// probe.
	Recoveries atomic.Int64
	// QueriesShed counts submissions rejected by the overload gate
	// (ErrOverloaded).
	QueriesShed atomic.Int64
	// DeadlineExpired counts queries completed with ErrDeadlineExceeded
	// because their context deadline passed (or the context was
	// cancelled) before their batch launched.
	DeadlineExpired atomic.Int64
	// BatchesCancelled counts batches dropped before any device work
	// because every query in them had already expired.
	BatchesCancelled atomic.Int64
	// HedgesFired counts straggler hedges launched: a batch exceeded its
	// straggler budget and was re-run on the host while the primary
	// attempt was still running.
	HedgesFired atomic.Int64
	// HedgesWon counts hedges whose result was delivered (the primary
	// attempt lost the race and was discarded).
	HedgesWon atomic.Int64
	// HedgesLost counts hedges that completed after the primary had
	// already settled the batch — wasted but harmless work.
	HedgesLost atomic.Int64
	// HedgesCancelled counts straggler budgets that expired after the
	// batch had already settled, so no hedge was launched.
	HedgesCancelled atomic.Int64
	// HTTPTimeouts counts HTTP match requests answered 504 because the
	// query's deadline expired or its request context was cancelled.
	HTTPTimeouts atomic.Int64
}

// FaultSnapshot is the JSON-facing view of FaultCounters.
type FaultSnapshot struct {
	GPUFaults        int64 `json:"gpu_faults"`
	BatchRetries     int64 `json:"batch_retries"`
	CPUFallbacks     int64 `json:"cpu_fallbacks"`
	Quarantines      int64 `json:"device_quarantines"`
	Probes           int64 `json:"recovery_probes"`
	Recoveries       int64 `json:"device_recoveries"`
	QueriesShed      int64 `json:"queries_shed"`
	DeadlineExpired  int64 `json:"deadline_expired"`
	BatchesCancelled int64 `json:"batches_cancelled"`
	HedgesFired      int64 `json:"hedges_fired"`
	HedgesWon        int64 `json:"hedges_won"`
	HedgesLost       int64 `json:"hedges_lost"`
	HedgesCancelled  int64 `json:"hedges_cancelled"`
	HTTPTimeouts     int64 `json:"http_timeouts"`
}

// Snapshot returns a consistent-enough copy for export (each counter is
// read atomically; the set is not a transaction).
func (f *FaultCounters) Snapshot() FaultSnapshot {
	return FaultSnapshot{
		GPUFaults:        f.GPUFaults.Load(),
		BatchRetries:     f.BatchRetries.Load(),
		CPUFallbacks:     f.CPUFallbacks.Load(),
		Quarantines:      f.Quarantines.Load(),
		Probes:           f.Probes.Load(),
		Recoveries:       f.Recoveries.Load(),
		QueriesShed:      f.QueriesShed.Load(),
		DeadlineExpired:  f.DeadlineExpired.Load(),
		BatchesCancelled: f.BatchesCancelled.Load(),
		HedgesFired:      f.HedgesFired.Load(),
		HedgesWon:        f.HedgesWon.Load(),
		HedgesLost:       f.HedgesLost.Load(),
		HedgesCancelled:  f.HedgesCancelled.Load(),
		HTTPTimeouts:     f.HTTPTimeouts.Load(),
	}
}

// writeProm emits the fault counters in Prometheus text format.
func (f *FaultCounters) writeProm(w *PromWriter) {
	w.Counter("tagmatch_gpu_faults_total",
		"GPU batch attempts failed (copy, launch, or result-transfer error).",
		nil, float64(f.GPUFaults.Load()))
	w.Counter("tagmatch_batch_retries_total",
		"Batches re-dispatched on their owning device after a failure.",
		nil, float64(f.BatchRetries.Load()))
	w.Counter("tagmatch_cpu_fallbacks_total",
		"Batches re-run on the host after GPU failure or quarantine.",
		nil, float64(f.CPUFallbacks.Load()))
	w.Counter("tagmatch_device_quarantines_total",
		"Devices quarantined by the consecutive-failure circuit breaker.",
		nil, float64(f.Quarantines.Load()))
	w.Counter("tagmatch_device_recovery_probes_total",
		"Recovery probes sent to quarantined devices.",
		nil, float64(f.Probes.Load()))
	w.Counter("tagmatch_device_recoveries_total",
		"Devices returned to rotation by a successful probe.",
		nil, float64(f.Recoveries.Load()))
	w.Counter("tagmatch_queries_shed_total",
		"Query submissions rejected by the overload gate.",
		nil, float64(f.QueriesShed.Load()))
	w.Counter("tagmatch_deadline_expired_total",
		"Queries completed with ErrDeadlineExceeded before their batch launched.",
		nil, float64(f.DeadlineExpired.Load()))
	w.Counter("tagmatch_batches_cancelled_total",
		"Batches dropped before device work because every query had expired.",
		nil, float64(f.BatchesCancelled.Load()))
	w.Counter("tagmatch_hedges_total",
		"Straggler hedges by outcome (fired: launched; won: hedge result used; lost: primary won the race; cancelled: budget expired after settle).",
		Labels{{"outcome", "fired"}}, float64(f.HedgesFired.Load()))
	w.Counter("tagmatch_hedges_total", "",
		Labels{{"outcome", "won"}}, float64(f.HedgesWon.Load()))
	w.Counter("tagmatch_hedges_total", "",
		Labels{{"outcome", "lost"}}, float64(f.HedgesLost.Load()))
	w.Counter("tagmatch_hedges_total", "",
		Labels{{"outcome", "cancelled"}}, float64(f.HedgesCancelled.Load()))
	w.Counter("tagmatch_http_timeouts_total",
		"HTTP match requests answered 504 (deadline exceeded or request cancelled).",
		nil, float64(f.HTTPTimeouts.Load()))
}
