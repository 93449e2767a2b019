package main

import (
	"reflect"
	"runtime"
	"slices"

	"tagmatch"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// capture is everything the engine exports, read at one instant. The
// traced phase takes one at each end of its segment; every T-metric is a
// difference of the two.
type capture struct {
	t         int64
	completed int64
	stats     tagmatch.Stats
	devices   []tagmatch.DeviceStat
	mem       runtime.MemStats

	inputWait, batchWait, occupancy             obs.HistSnapshot
	subsetMatch, reduce, merge                  obs.HistSnapshot
	kernelWait, kernelService, h2dWait, d2hWait obs.HistSnapshot
	swapPause                                   obs.HistSnapshot
}

func takeCapture(eng *tagmatch.Engine, completed int64) capture {
	o := eng.Obs()
	c := capture{
		t: now(), completed: completed,
		stats: eng.Stats(), devices: eng.DeviceStats(),
		inputWait: o.InputWait.Snapshot(),
		batchWait: o.BatchWait.Snapshot(), occupancy: o.BatchOccupancy.Snapshot(),
		subsetMatch: o.SubsetMatch.Snapshot(), reduce: o.Reduce.Snapshot(), merge: o.Merge.Snapshot(),
		kernelWait: o.GPUKernel.Wait.Snapshot(), kernelService: o.GPUKernel.Service.Snapshot(),
		h2dWait: o.GPUH2D.Wait.Snapshot(), d2hWait: o.GPUD2H.Wait.Snapshot(),
		swapPause: o.Delta.SwapPause.Snapshot(),
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// histDelta is the histogram of the samples recorded between two
// snapshots of one cumulative histogram.
func histDelta(before, after obs.HistSnapshot) obs.HistSnapshot {
	d := obs.HistSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	old := make(map[int64]uint64, len(before.Buckets))
	for _, b := range before.Buckets {
		old[b.Upper] = b.Count
	}
	for _, b := range after.Buckets {
		if n := b.Count - old[b.Upper]; n > 0 {
			d.Buckets = append(d.Buckets, obs.Bucket{Upper: b.Upper, Count: n})
		}
	}
	// The exact maximum is cumulative; within the segment it is known to
	// one bucket.
	if n := len(d.Buckets); n > 0 {
		d.Max = min(after.Max, d.Buckets[n-1].Upper)
	}
	return d
}

// counterDelta subtracts every int64 field of a from b. The engine's
// stats structs mix counters with a few gauges; gauges are read from the
// later capture itself.
func counterDelta[T any](b, a T) T {
	vb, va := reflect.ValueOf(&b).Elem(), reflect.ValueOf(a)
	for i := 0; i < vb.NumField(); i++ {
		if f := vb.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(f.Int() - va.Field(i).Int())
		}
	}
	return b
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics computes the T-metrics: per-layer counts, busy time and
// waits over the traced segment, per completed query.
func layerMetrics(a, b capture, m metrics, samples map[string]int) {
	q := float64(b.completed - a.completed)
	wall := float64(b.t - a.t)
	s := counterDelta(b.stats, a.stats)
	// pct stores a percentile of the segment's share of a histogram, in
	// units of scale nanoseconds, with its sample count.
	pct := func(name string, before, after obs.HistSnapshot, p, scale float64) {
		h := histDelta(before, after)
		m[name] = float64(h.Quantile(p)) / scale
		samples[name] = int(h.Count)
	}
	batches := float64(s.BatchesDispatched)

	m["core.preprocess.busy_ns_per_query"] = ratio(float64(s.PreprocessTime), q)
	m["core.preprocess.partitions_per_query"] = ratio(float64(s.PartitionsSearched), q)
	m["core.preprocess.appends_per_lock"] = ratio(
		float64(s.RouteAppends),
		float64(s.RouteMergeLocks))
	pct("core.preprocess.input_wait_p50_us", a.inputWait, b.inputWait, 0.50, 1e3)
	pct("core.preprocess.input_wait_p99_us", a.inputWait, b.inputWait, 0.99, 1e3)

	m["core.batch.batches_per_query"] = ratio(batches, q)
	m["core.batch.occupancy_mean"] = histDelta(a.occupancy, b.occupancy).Mean()
	m["core.batch.timeout_share"] = ratio(float64(s.BatchesTimedOut), batches)
	pct("core.batch.wait_p50_us", a.batchWait, b.batchWait, 0.50, 1e3)
	pct("core.batch.wait_p99_us", a.batchWait, b.batchWait, 0.99, 1e3)

	m["core.dispatch.busy_ns_per_query"] = ratio(float64(s.SubsetMatchTime), q)
	pct("core.dispatch.batch_p50_us", a.subsetMatch, b.subsetMatch, 0.50, 1e3)
	pct("core.dispatch.batch_p99_us", a.subsetMatch, b.subsetMatch, 0.99, 1e3)
	m["core.dispatch.h2d_query_bytes_per_query"] = ratio(float64(s.H2DQueryBytes), q)
	hits := float64(s.WindowHits)
	m["core.dispatch.window_hit_rate"] = ratio(hits, hits+float64(s.WindowMisses))
	m["core.dispatch.window_fallbacks_per_kbatch"] = 1e3 * ratio(float64(s.WindowFallbacks), batches)
	m["core.dispatch.pipelined_share"] = ratio(float64(s.PipelinedDispatches), batches)

	pairs := float64(s.PairsProduced)
	m["core.kernel.columns_per_query"] = ratio(float64(s.KernelColumnsWalked), q)
	m["core.kernel.gate_prune_rate"] = ratio(
		float64(s.KernelGatePruned),
		float64(s.KernelGateChecks))
	m["core.kernel.group_scans_per_query"] = ratio(float64(s.KernelGroupScans), q)
	m["core.kernel.pairs_per_query"] = ratio(pairs, q)
	m["core.kernel.overflows_per_kbatch"] = 1e3 * ratio(float64(s.ResultOverflows), batches)
	pct("core.kernel.service_p50_us", a.kernelService, b.kernelService, 0.50, 1e3)
	pct("core.kernel.wait_p50_us", a.kernelWait, b.kernelWait, 0.50, 1e3)

	m["core.reduce.busy_ns_per_query"] = ratio(float64(s.ReduceTime), q)
	pct("core.reduce.service_p50_us", a.reduce, b.reduce, 0.50, 1e3)
	m["core.reduce.keys_per_pair"] = ratio(float64(s.KeysDelivered), pairs)
	pct("core.merge.service_p50_us", a.merge, b.merge, 0.50, 1e3)
	pct("core.merge.service_p99_us", a.merge, b.merge, 0.99, 1e3)

	m["core.delta.matches_per_kquery"] = 1e3 * ratio(float64(s.DeltaMatches), q)
	m["core.delta.tombstone_suppressions_per_kquery"] = 1e3 * ratio(float64(s.TombstoneSuppressed), q)
	folds := float64(s.AutoConsolidations)
	m["core.consolidator.folds"] = folds
	m["core.consolidator.full_rebuilds"] = folds - float64(s.IncrementalFolds)
	pct("core.consolidator.swap_pause_p99_ms", a.swapPause, b.swapPause, 0.99, 1e6)
	pct("core.consolidator.swap_pause_max_ms", a.swapPause, b.swapPause, 1, 1e6)

	m["core.host_index_mb"] = float64(b.stats.HostBytes) / 1e6
	m["core.fault_fallbacks"] = float64(s.GPUFaults + s.BatchRetries + s.CPUFallbacks)

	// Device counters, summed over devices.
	var dd gpu.Stats
	var launches []float64
	for i := range b.devices {
		x := counterDelta(b.devices[i].Stats, a.devices[i].Stats)
		dd.KernelLaunches += x.KernelLaunches
		dd.CopiesHtoD += x.CopiesHtoD
		dd.CopiesDtoH += x.CopiesDtoH
		dd.BytesHtoD += x.BytesHtoD
		dd.BytesDtoH += x.BytesDtoH
		dd.AtomicOps += x.AtomicOps
		dd.SMBusyNs += x.SMBusyNs
		dd.KernelActiveNs += x.KernelActiveNs
		dd.OverlapNs += x.OverlapNs
		launches = append(launches, float64(x.KernelLaunches))
	}
	workers := len(b.devices) * fixedGPUWorkers
	m["gpu.launches_per_query"] = ratio(float64(dd.KernelLaunches), q)
	m["gpu.h2d_copies_per_query"] = ratio(float64(dd.CopiesHtoD), q)
	m["gpu.d2h_copies_per_query"] = ratio(float64(dd.CopiesDtoH), q)
	m["gpu.h2d_bytes_per_query"] = ratio(float64(dd.BytesHtoD), q)
	m["gpu.d2h_bytes_per_query"] = ratio(float64(dd.BytesDtoH), q)
	m["gpu.atomics_per_query"] = ratio(float64(dd.AtomicOps), q)
	// Computed from the counts and gpu.DefaultCost, not measured: what the
	// modeled bus and driver charge per query.
	cost := gpu.DefaultCost
	modeled := float64(dd.CopiesHtoD+dd.CopiesDtoH)*float64(cost.CopyOverhead) +
		float64(dd.BytesHtoD+dd.BytesDtoH)/cost.CopyBytesPerSec*1e9 +
		float64(dd.KernelLaunches)*float64(cost.LaunchOverhead)
	m["gpu.modeled_cost_ns_per_query"] = ratio(modeled, q)
	m["gpu.sm_busy_ns_per_query"] = ratio(float64(dd.SMBusyNs), q)
	m["gpu.sm_utilization"] = ratio(float64(dd.SMBusyNs), wall*float64(workers))
	m["gpu.overlap_fraction"] = ratio(float64(dd.OverlapNs), float64(dd.KernelActiveNs))
	pct("gpu.h2d_wait_p50_us", a.h2dWait, b.h2dWait, 0.50, 1e3)
	pct("gpu.d2h_wait_p50_us", a.d2hWait, b.d2hWait, 0.50, 1e3)
	var mean float64
	for _, l := range launches {
		mean += l / float64(len(launches))
	}
	m["gpu.device_imbalance"] = ratio(slices.Max(launches)-slices.Min(launches), mean)

	m["tagmatch.allocs_per_query"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), q)
	m["tagmatch.heap_bytes_per_query"] = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), q)
	m["tagmatch.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
}
