// Package obs is the pipeline-wide observability layer of the TagMatch
// reproduction: lock-free log-bucketed latency histograms for every
// pipeline stage (the measurements behind the paper's Fig 6 latency
// distributions and its stage-breakdown tuning arguments), per-partition
// hot-spot counters exposing the skew of Algorithm 1's splits, sampled
// per-query trace spans, and export helpers for the Prometheus text
// format and JSON debug snapshots.
//
// Recording is allocation-free on the hot path — atomic bucket
// increments only — so the engine keeps it enabled by default;
// cmd/tagmatch-bench's obs-overhead experiment (make bench-obs) verifies
// the cost stays within 2% of throughput.
package obs

import (
	"sync"
	"time"
)

// Stage names used consistently across histograms, traces, Prometheus
// labels and log lines.
const (
	StagePreprocess  = "preprocess"
	StageSubsetMatch = "subset_match"
	StageReduce      = "reduce"
	StageMerge       = "merge"
	StageE2E         = "e2e"
)

// Options configures a Pipeline.
type Options struct {
	// Disabled turns every recording call into a no-op branch; used by
	// the overhead benchmark and available to operators who want the
	// last percent of throughput.
	Disabled bool
	// TraceEvery samples one query in N for full tracing; 0 disables
	// tracing (the default).
	TraceEvery int
	// TraceKeep is the completed-trace ring size (default 128).
	TraceKeep int
	// TopPartitions caps the per-partition series exported in Prometheus
	// text format (the JSON snapshot always carries all partitions).
	// Default 20.
	TopPartitions int
}

// Pipeline is the engine-wide observability state. All recording methods
// are safe for concurrent use and nil-safe where documented.
type Pipeline struct {
	// On gates instrumentation at the call sites: hot paths check it
	// before taking timestamps, so a disabled pipeline costs one branch.
	On bool

	// Per-stage latency histograms (nanoseconds). Preprocess and the
	// merge stage are per-query; SubsetMatch and Reduce are per-batch
	// (dispatch→result-arrival and key-lookup respectively); E2E is the
	// submit→merge latency Fig 6 reports.
	Preprocess  Histogram
	SubsetMatch Histogram
	Reduce      Histogram
	Merge       Histogram
	E2E         Histogram

	// BatchOccupancy records queries-per-batch at dispatch: how full
	// batches are when they leave (fullness vs. timeout tuning).
	BatchOccupancy Histogram

	// InputWait is the submit→preprocess-pickup queue wait per query;
	// BatchWait is the batch-open→dispatch wait per batch (the price of
	// batching amortization, §3.3.1). Together with the GPU op wait
	// histograms they split E2E latency into wait vs service components;
	// see Attribution.
	InputWait Histogram
	BatchWait Histogram

	// DeadlineSlack records, for deadline-carrying queries at batch
	// dispatch, the time remaining until their deadline (clamped at
	// zero): the headroom the admission and batching stages left the
	// device path. A distribution piling up at zero means batching is
	// eating the budget before any device work starts.
	DeadlineSlack Histogram

	// GPUH2D/GPUKernel/GPUD2H record device-operation latencies split
	// into queue wait (stream enqueue→start) and service (start→done).
	GPUH2D    OpHist
	GPUKernel OpHist
	GPUD2H    OpHist

	// Parts carries the per-partition hot-spot counters.
	Parts Partitions

	// Faults counts fault-tolerance events (GPU failures, retries, CPU
	// fallbacks, quarantines, load shedding). Always recorded, even when
	// On is false; see FaultCounters.
	Faults FaultCounters

	// Routing counts pre-process routing activity: queries routed and
	// the lock amortization of the worker-local batch accumulators. Always recorded, like Faults; see RoutingCounters.
	Routing RoutingCounters

	// Kernel counts subset-match activity: batches matched, gate
	// effectiveness, and columns walked by the bit-sliced scan. Always recorded, like Faults; see KernelCounters.
	Kernel KernelCounters

	// Streams counts GPU dispatch activity: H2D query bytes, segments
	// per batch and the wait for a stream. Always recorded, like Faults;
	// see StreamCounters.
	Streams StreamCounters

	// Delta counts live-update activity: overlay absorption and match
	// contribution, tombstone suppressions, background consolidations
	// and their swap-pause distribution. Always recorded, like Faults;
	// see DeltaCounters.
	Delta DeltaCounters

	// Tracer samples per-query traces.
	Tracer *Tracer

	topPartitions int

	gaugeMu sync.Mutex
	gauges  []gauge
}

// OpHist is a pair of histograms for one device-operation kind,
// separating time spent queued behind the stream from time spent on the
// (simulated) hardware.
type OpHist struct {
	Wait    Histogram
	Service Histogram
}

// Observe records one operation's wait and service durations.
func (o *OpHist) Observe(wait, service time.Duration) {
	o.Wait.ObserveDuration(wait)
	o.Service.ObserveDuration(service)
}

// GPUOpHist returns the histogram pair for a device-op kind name
// ("h2d", "kernel", "d2h"), or nil.
func (p *Pipeline) GPUOpHist(kind string) *OpHist {
	switch kind {
	case "h2d":
		return &p.GPUH2D
	case "kernel":
		return &p.GPUKernel
	case "d2h":
		return &p.GPUD2H
	}
	return nil
}

type gauge struct {
	name   string
	help   string
	labels Labels
	read   func() float64
}

// New builds a Pipeline. A disabled pipeline still answers snapshots
// (all empty) so export surfaces need no special cases.
func New(o Options) *Pipeline {
	p := &Pipeline{
		On:            !o.Disabled,
		Tracer:        NewTracer(o.TraceEvery, o.TraceKeep),
		topPartitions: o.TopPartitions,
	}
	if p.topPartitions <= 0 {
		p.topPartitions = 20
	}
	if o.Disabled {
		p.Tracer = NewTracer(0, 1)
	}
	return p
}

// Tracing reports whether per-query tracing is active.
func (p *Pipeline) Tracing() bool { return p.On && p.Tracer.Enabled() }

// StageHistogram returns the histogram for a stage name, or nil.
func (p *Pipeline) StageHistogram(stage string) *Histogram {
	switch stage {
	case StagePreprocess:
		return &p.Preprocess
	case StageSubsetMatch:
		return &p.SubsetMatch
	case StageReduce:
		return &p.Reduce
	case StageMerge:
		return &p.Merge
	case StageE2E:
		return &p.E2E
	}
	return nil
}

// RegisterGauge adds a callback-backed gauge evaluated at export time.
// Gauges registered with the same name are exported as one family.
func (p *Pipeline) RegisterGauge(name, help string, labels Labels, read func() float64) {
	p.gaugeMu.Lock()
	p.gauges = append(p.gauges, gauge{name: name, help: help, labels: labels, read: read})
	p.gaugeMu.Unlock()
}

// StageSnapshot is the digest of one stage histogram.
type StageSnapshot struct {
	Stage  string        `json:"stage"`
	Count  int64         `json:"count"`
	MeanNs float64       `json:"mean_ns"`
	P50    time.Duration `json:"p50_ns"`
	P99    time.Duration `json:"p99_ns"`
	Max    time.Duration `json:"max_ns"`
}

// Snapshot is the JSON-facing view of the whole pipeline's observability
// state (GET /debug/stats).
type Snapshot struct {
	Stages         []StageSnapshot        `json:"stages"`
	BatchOccupancy HistSnapshot           `json:"batch_occupancy"`
	Faults         FaultSnapshot          `json:"faults"`
	Routing        RoutingSnapshot        `json:"routing"`
	Kernel         KernelSnapshot         `json:"kernel"`
	Streams        StreamSnapshot         `json:"streams"`
	Delta          DeltaSnapshot          `json:"delta"`
	Gauges         map[string]float64     `json:"gauges,omitempty"`
	Attribution    []AttributionComponent `json:"attribution,omitempty"`
	Exemplars      []Exemplar             `json:"exemplars,omitempty"`
	HotPartitions  []PartitionSnapshot    `json:"hot_partitions,omitempty"`
	Partitions     []PartitionSnapshot    `json:"partitions,omitempty"`
	Traces         []TraceRecord          `json:"traces,omitempty"`
}

func stageSnap(name string, h *Histogram) StageSnapshot {
	s := h.Snapshot()
	return StageSnapshot{
		Stage:  name,
		Count:  s.Count,
		MeanNs: s.Mean(),
		P50:    s.QuantileDuration(0.50),
		P99:    s.QuantileDuration(0.99),
		Max:    time.Duration(s.Max),
	}
}

// Stages returns the per-stage digests in pipeline order.
func (p *Pipeline) Stages() []StageSnapshot {
	return []StageSnapshot{
		stageSnap(StagePreprocess, &p.Preprocess),
		stageSnap(StageSubsetMatch, &p.SubsetMatch),
		stageSnap(StageReduce, &p.Reduce),
		stageSnap(StageMerge, &p.Merge),
		stageSnap(StageE2E, &p.E2E),
	}
}

// Snapshot collects the full observability state. includeAllPartitions
// additionally inlines every partition's counters (the Prometheus export
// always caps at TopPartitions).
func (p *Pipeline) Snapshot(includeAllPartitions bool) Snapshot {
	s := Snapshot{
		Stages:         p.Stages(),
		BatchOccupancy: p.BatchOccupancy.Snapshot(),
		Faults:         p.Faults.Snapshot(),
		Routing:        p.Routing.Snapshot(),
		Kernel:         p.Kernel.Snapshot(),
		Streams:        p.Streams.Snapshot(),
		Delta:          p.Delta.Snapshot(),
		Attribution:    p.Attribution(),
		Exemplars:      p.Tracer.Exemplars(),
		HotPartitions:  p.Parts.Hottest(p.topPartitions),
		Traces:         p.Tracer.Recent(),
	}
	if includeAllPartitions {
		s.Partitions = p.Parts.Snapshot()
	}
	p.gaugeMu.Lock()
	gauges := append([]gauge(nil), p.gauges...)
	p.gaugeMu.Unlock()
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for _, g := range gauges {
			key := g.name
			if lbl := g.labels.String(); lbl != "" {
				key += lbl
			}
			s.Gauges[key] = g.read()
		}
	}
	return s
}

// WriteProm emits the pipeline's metrics in Prometheus text format:
// per-stage latency histograms (seconds), the batch-occupancy histogram,
// registered gauges, and the hottest TopPartitions partitions' counters
// labeled by partition id.
func (p *Pipeline) WriteProm(w *PromWriter) {
	for _, st := range []struct {
		name string
		h    *Histogram
	}{
		{StagePreprocess, &p.Preprocess},
		{StageSubsetMatch, &p.SubsetMatch},
		{StageReduce, &p.Reduce},
		{StageMerge, &p.Merge},
		{StageE2E, &p.E2E},
	} {
		w.Histogram("tagmatch_stage_duration_seconds",
			"Latency of each pipeline stage (preprocess/merge/e2e per query; subset_match/reduce per batch).",
			Labels{{"stage", st.name}}, st.h.Snapshot(), 1e-9)
	}
	w.Histogram("tagmatch_batch_occupancy_queries",
		"Queries per batch at dispatch time.",
		nil, p.BatchOccupancy.Snapshot(), 1)
	w.Histogram("tagmatch_queue_wait_seconds",
		"Queue wait before a pipeline stage (input: submit->preprocess pickup per query; batch: batch open->dispatch per batch).",
		Labels{{"queue", "input"}}, p.InputWait.Snapshot(), 1e-9)
	w.Histogram("tagmatch_queue_wait_seconds", "",
		Labels{{"queue", "batch"}}, p.BatchWait.Snapshot(), 1e-9)
	w.Histogram("tagmatch_deadline_slack_seconds",
		"Remaining deadline headroom of deadline-carrying queries at batch dispatch.",
		nil, p.DeadlineSlack.Snapshot(), 1e-9)
	for _, op := range []struct {
		kind string
		h    *OpHist
	}{
		{"h2d", &p.GPUH2D},
		{"kernel", &p.GPUKernel},
		{"d2h", &p.GPUD2H},
	} {
		w.Histogram("tagmatch_gpu_op_duration_seconds",
			"Device operation latency by kind and phase (wait: stream enqueue->start; service: start->done).",
			Labels{{"op", op.kind}, {"phase", "wait"}}, op.h.Wait.Snapshot(), 1e-9)
		w.Histogram("tagmatch_gpu_op_duration_seconds", "",
			Labels{{"op", op.kind}, {"phase", "service"}}, op.h.Service.Snapshot(), 1e-9)
	}
	p.Faults.writeProm(w)
	p.Routing.writeProm(w)
	p.Kernel.writeProm(w)
	p.Streams.writeProm(w)
	p.Delta.writeProm(w)

	p.gaugeMu.Lock()
	gauges := append([]gauge(nil), p.gauges...)
	p.gaugeMu.Unlock()
	for _, g := range gauges {
		w.Gauge(g.name, g.help, g.labels, g.read())
	}

	hot := p.Parts.Hottest(p.topPartitions)
	for _, ps := range hot {
		lbl := Labels{{"partition", itoa(ps.ID)}}
		w.Counter("tagmatch_partition_queries_routed_total",
			"Queries routed to the partition's batches.", lbl, float64(ps.QueriesRouted))
		w.Counter("tagmatch_partition_batches_full_total",
			"Batches dispatched because they filled.", lbl, float64(ps.BatchesFull))
		w.Counter("tagmatch_partition_batches_timeout_total",
			"Batches dispatched by the flush timeout.", lbl, float64(ps.BatchesTimedOut))
		w.Counter("tagmatch_partition_batches_flushed_total",
			"Batches dispatched by explicit flush/drain.", lbl, float64(ps.BatchesFlushed))
		w.Counter("tagmatch_partition_pairs_total",
			"(query,set) pairs produced by the partition.", lbl, float64(ps.Pairs))
		w.Counter("tagmatch_partition_overflows_total",
			"Result-buffer overflows (CPU fallback) in the partition.", lbl, float64(ps.Overflows))
		w.Counter("tagmatch_partition_prefilter_blocks_total",
			"Thread blocks that evaluated the Algorithm 4 prefilter.", lbl, float64(ps.PrefilterBlocks))
		w.Counter("tagmatch_partition_prefilter_pruned_total",
			"Blocks where the prefilter rejected the whole batch.", lbl, float64(ps.PrefilterPruned))
	}
	if n := p.Parts.Len(); n > len(hot) {
		w.Gauge("tagmatch_partition_series_truncated",
			"Partitions not individually exported (see /debug/stats for all).",
			nil, float64(n-len(hot)))
	}
}
