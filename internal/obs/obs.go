// Package obs is the pipeline-wide observability layer of the TagMatch
// reproduction: lock-free log-bucketed latency histograms for every
// pipeline stage (the measurements behind the paper's Fig 6 latency
// distributions and its stage-breakdown tuning arguments), per-partition
// hot-spot counters exposing the skew of Algorithm 1's splits, sampled
// per-query trace spans, and the always-recorded counters and gauges.
// Each metric is declared once, by struct tags on the field that holds it
// (registry.go); the Prometheus text format, the JSON debug snapshot and
// core.Stats all derive from those declarations.
//
// Recording is allocation-free on the hot path — atomic bucket
// increments only — so the engine keeps it enabled by default;
// cmd/tagmatch-bench's obs-overhead experiment (make bench-obs) verifies
// the cost stays within 2% of throughput.
package obs

import "time"

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
	// TopPartitions caps the per-partition series exported in Prometheus
	// text format (the JSON snapshot always carries all partitions).
	// Default 20.
	TopPartitions int
}

// Pipeline is the engine-wide observability state. All recording methods
// are safe for concurrent use and nil-safe where documented. Its fields
// declare the metrics it exports (see registry.go).
type Pipeline struct {
	// On gates instrumentation at the call sites: hot paths check it
	// before taking timestamps, so a disabled pipeline costs one branch.
	On bool

	// Per-stage latency histograms (nanoseconds). Preprocess and the
	// merge stage are per-query; SubsetMatch and Reduce are per-batch
	// (dispatch→result-arrival and key-lookup respectively); E2E is the
	// submit→merge latency Fig 6 reports.
	Preprocess  Histogram `prom:"tagmatch_stage_duration_seconds{stage=preprocess}" json:"stage_preprocess_ns" help:"Latency of each pipeline stage (preprocess/merge/e2e per query; subset_match/reduce per batch)."`
	SubsetMatch Histogram `prom:"tagmatch_stage_duration_seconds{stage=subset_match}" json:"stage_subset_match_ns"`
	Reduce      Histogram `prom:"tagmatch_stage_duration_seconds{stage=reduce}" json:"stage_reduce_ns"`
	Merge       Histogram `prom:"tagmatch_stage_duration_seconds{stage=merge}" json:"stage_merge_ns"`
	E2E         Histogram `prom:"tagmatch_stage_duration_seconds{stage=e2e}" json:"stage_e2e_ns"`

	// BatchOccupancy records queries-per-batch at dispatch: how full
	// batches are when they leave (fullness vs. timeout tuning).
	BatchOccupancy Histogram `prom:"tagmatch_batch_occupancy_queries" json:"batch_occupancy" help:"Queries per batch at dispatch time."`

	// InputWait is the submit→preprocess-pickup queue wait per query;
	// BatchWait is the batch-open→dispatch wait per batch (the price of
	// batching amortization, §3.3.1). Together with the GPU op wait
	// histograms they split E2E latency into wait vs service components;
	// see Attribution.
	InputWait Histogram `prom:"tagmatch_queue_wait_seconds{queue=input}" json:"input_wait_ns" help:"Queue wait before a pipeline stage (input: submit->preprocess pickup per query; batch: batch open->dispatch per batch)."`
	BatchWait Histogram `prom:"tagmatch_queue_wait_seconds{queue=batch}" json:"batch_wait_ns"`

	// DeadlineSlack records, for deadline-carrying queries at batch
	// dispatch, the time remaining until their deadline (clamped at
	// zero): the headroom the admission and batching stages left the
	// device path. A distribution piling up at zero means batching is
	// eating the budget before any device work starts.
	DeadlineSlack Histogram `prom:"tagmatch_deadline_slack_seconds" json:"deadline_slack_ns" help:"Remaining deadline headroom of deadline-carrying queries at batch dispatch."`

	// GPUH2D/GPUKernel/GPUD2H record device-operation latencies split
	// into queue wait (stream enqueue→start) and service (start→done).
	GPUH2D    OpHist `prom:"{op=h2d}" json:"gpu_h2d"`
	GPUKernel OpHist `prom:"{op=kernel}" json:"gpu_kernel"`
	GPUD2H    OpHist `prom:"{op=d2h}" json:"gpu_d2h"`

	// Parts carries the per-partition hot-spot counters. WriteProm
	// exports the TopPartitions partitions with the most routed queries;
	// PartitionsTruncated counts the rest.
	Parts               Partitions
	PartitionsTruncated Gauge `prom:"tagmatch_partition_series_truncated" json:"partition_series_truncated" help:"Partitions not individually exported (see /debug/stats for all)."`

	// The always-recorded counters and the engine's gauges; see
	// counters.go.
	Flow    FlowCounters
	Faults  FaultCounters
	Routing RoutingCounters
	Kernel  KernelCounters
	Streams StreamCounters
	Delta   DeltaCounters
	Gauges  EngineGauges

	// Devices, when set, returns each device's gpu.Stats and
	// DeviceGauges labeled {device=name}, for WriteProm.
	Devices func() []Labeled

	// Tracer samples per-query traces.
	Tracer *Tracer

	topPartitions int

	metrics []metric           // every declared series, family by family
	byKey   map[string]*metric // the same, by JSON key
}

// OpHist is a pair of histograms for one device-operation kind,
// separating time spent queued behind the stream from time spent on the
// (simulated) hardware.
type OpHist struct {
	Wait    Histogram `prom:"tagmatch_gpu_op_duration_seconds{phase=wait}" json:"wait_ns" help:"Device operation latency by kind and phase (wait: stream enqueue->start; service: start->done)."`
	Service Histogram `prom:"tagmatch_gpu_op_duration_seconds{phase=service}" json:"service_ns"`
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

// New builds a Pipeline. A disabled pipeline still answers snapshots
// (all empty) so export surfaces need no special cases.
func New(o Options) *Pipeline {
	p := &Pipeline{
		On:            !o.Disabled,
		Tracer:        NewTracer(o.TraceEvery, 0),
		topPartitions: o.TopPartitions,
	}
	if p.topPartitions <= 0 {
		p.topPartitions = 20
	}
	if o.Disabled {
		p.Tracer = NewTracer(0, 1)
	}
	p.Streams.BytesPerSlot = func() float64 {
		return float64(p.Streams.H2DQueryBytes.Load()) / float64(max(p.Streams.QuerySlots.Load(), 1))
	}
	p.PartitionsTruncated = func() float64 {
		return float64(max(p.Parts.Len()-p.topPartitions, 0))
	}
	p.register()
	return p
}

// Tracing reports whether per-query tracing is active.
func (p *Pipeline) Tracing() bool { return p.On && p.Tracer.Enabled() }

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
// state (GET /debug/stats). Metrics holds every declared series by its
// key: a counter's value, a gauge's, or a histogram's snapshot.
type Snapshot struct {
	Stages        []StageSnapshot        `json:"stages"`
	Metrics       map[string]any         `json:"metrics"`
	Attribution   []AttributionComponent `json:"attribution,omitempty"`
	Exemplars     []Exemplar             `json:"exemplars,omitempty"`
	HotPartitions []PartitionSnapshot    `json:"hot_partitions,omitempty"`
	Partitions    []PartitionSnapshot    `json:"partitions,omitempty"`
	Traces        []TraceRecord          `json:"traces,omitempty"`
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
		Stages:        p.Stages(),
		Metrics:       p.values(),
		Attribution:   p.Attribution(),
		Exemplars:     p.Tracer.Exemplars(),
		HotPartitions: p.Parts.Hottest(p.topPartitions),
		Traces:        p.Tracer.Recent(),
	}
	if includeAllPartitions {
		s.Partitions = p.Parts.Snapshot()
	}
	return s
}
