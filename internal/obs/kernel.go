package obs

import "sync/atomic"

// KernelCounters instruments the subset-match stage: how many batches
// the bit-sliced kernel matched and how much work its walk actually did. Like FaultCounters and RoutingCounters they are NOT
// gated by Pipeline.On — they feed the engine's Stats and the
// kernel-parity regression tests — and the kernels accumulate them in
// locals, flushing one bulk atomic add per thread block (per segment on
// the host path), never per (group, query).
type KernelCounters struct {
	// SlicedBatches counts batch subset matches executed by the
	// bit-sliced (column-transposed) kernel, on device or host.
	SlicedBatches atomic.Int64
	// GateChecks counts the (group, query) pairs the gates decided;
	// GatePruned counts those rejected — the group's 64 sets discarded —
	// before any column was read. GatePruned / GateChecks is the gate
	// hit rate. GateTests counts the three-word intersection tests that
	// took: fewer than one per pair where a rejected run of groups
	// decides all the groups beneath it with one test per entry.
	GateChecks atomic.Int64
	GatePruned atomic.Int64
	GateTests  atomic.Int64
	// GroupScans counts column walks that ran because the gate passed
	// (or was disabled); ColumnsWalked accumulates the column words
	// those walks touched. ColumnsWalked / GroupScans is the mean scan
	// depth — the early-exit effectiveness of the sliced walk, to be
	// compared against the ~64×3 word operations a one-set-per-thread
	// kernel spends per (group, query) worth of sets.
	GroupScans    atomic.Int64
	ColumnsWalked atomic.Int64

	// Columns is the distribution of column words walked per thread
	// block (per segment on the host path): the per-launch-unit work
	// profile of the sliced kernel.
	Columns Histogram
}

// KernelSnapshot is the JSON-facing view of KernelCounters.
type KernelSnapshot struct {
	SlicedBatches int64        `json:"sliced_batches"`
	GateChecks    int64        `json:"gate_checks"`
	GatePruned    int64        `json:"gate_pruned"`
	GateTests     int64        `json:"gate_tests"`
	GroupScans    int64        `json:"group_scans"`
	ColumnsWalked int64        `json:"columns_walked"`
	Columns       HistSnapshot `json:"columns_per_block"`
}

// Snapshot returns an atomic-per-field copy for export.
func (k *KernelCounters) Snapshot() KernelSnapshot {
	return KernelSnapshot{
		SlicedBatches: k.SlicedBatches.Load(),
		GateChecks:    k.GateChecks.Load(),
		GatePruned:    k.GatePruned.Load(),
		GateTests:     k.GateTests.Load(),
		GroupScans:    k.GroupScans.Load(),
		ColumnsWalked: k.ColumnsWalked.Load(),
		Columns:       k.Columns.Snapshot(),
	}
}

// writeProm emits the kernel counters in Prometheus text format.
func (k *KernelCounters) writeProm(w *PromWriter) {
	w.Counter("tagmatch_kernel_batches_total",
		"Batch subset matches executed by the bit-sliced kernel, on a device or the host.",
		Labels{{"flavor", "sliced"}}, float64(k.SlicedBatches.Load()))
	w.Counter("tagmatch_kernel_gate_checks_total",
		"(group, query) pairs decided by the sliced kernel's gates.",
		nil, float64(k.GateChecks.Load()))
	w.Counter("tagmatch_kernel_gate_pruned_total",
		"(group, query) pairs whose 64-set group was discarded before any column was read.",
		nil, float64(k.GatePruned.Load()))
	w.Counter("tagmatch_kernel_gate_tests_total",
		"Three-word gate tests executed, on run nodes and on groups.",
		nil, float64(k.GateTests.Load()))
	w.Counter("tagmatch_kernel_group_scans_total",
		"Column walks executed after a passing (or disabled) gate.",
		nil, float64(k.GroupScans.Load()))
	w.Counter("tagmatch_kernel_columns_walked_total",
		"Column words touched by sliced subset scans.",
		nil, float64(k.ColumnsWalked.Load()))
	w.Histogram("tagmatch_kernel_columns_per_block",
		"Column words walked per thread block (per segment on the host path).",
		nil, k.Columns.Snapshot(), 1)
}
