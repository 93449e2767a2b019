package gpu

import (
	"sync"
	"time"
)

// Device-level operation telemetry: per-op records (kind, bytes,
// enqueue→start wait, start→done service), copy/compute overlap
// accounting, and SM-worker busy time. This is the measurement layer
// behind the paper's workflow-optimization claims (§3.3.2): stream
// double-buffering is supposed to hide H2D/D2H copies behind kernel
// time, and the overlap fraction computed here makes that directly
// observable instead of inferred from end-to-end throughput.
//
// The aggregate accounting (overlap intervals, busy time) is always on:
// it costs one short mutex acquisition per device operation, and device
// operations are per batch, not per query. The per-op record ring is
// sized by Config.OpLogSize and disabled at 0 (the default for bare
// gpu.New; the tagmatch facade enables it alongside the obs layer) so
// timeline export is opt-in.

// OpKind classifies a recorded device operation.
type OpKind uint8

const (
	// OpH2D is a host-to-device copy.
	OpH2D OpKind = iota
	// OpD2H is a device-to-host copy.
	OpD2H
	// OpKernel is a kernel launch (grid dispatch to completion).
	OpKernel
)

func (k OpKind) String() string {
	switch k {
	case OpH2D:
		return "h2d"
	case OpD2H:
		return "d2h"
	default:
		return "kernel"
	}
}

// MarshalJSON renders the kind as its stable string name.
func (k OpKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// OpRecord is one completed device operation. For operations issued
// through a Stream, Enqueue is the time the operation entered the
// stream's FIFO and Start-Enqueue is its queue wait; for synchronous
// host calls Enqueue equals Start and the wait is zero.
type OpRecord struct {
	Device  string    `json:"device"`
	Stream  int       `json:"stream"` // -1 for direct (non-stream) operations
	Kind    OpKind    `json:"op"`
	Bytes   int64     `json:"bytes,omitempty"`  // copies: payload size
	Blocks  int       `json:"blocks,omitempty"` // kernels: grid size
	Enqueue time.Time `json:"enqueue"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`

	// Tag is the issuer-provided attribution handle passed to the
	// enqueue call (the engine tags each op with its stream slot so a
	// pipelined stream's interleaved batches stay distinguishable). It
	// is delivered to the OnOp observer and never serialized.
	Tag any `json:"-"`
}

// KindName returns the operation kind as a stable string ("h2d", "d2h",
// "kernel") for labels and JSON.
func (r OpRecord) KindName() string { return r.Kind.String() }

// Wait returns the enqueue→start queue wait.
func (r OpRecord) Wait() time.Duration { return r.Start.Sub(r.Enqueue) }

// Service returns the start→done service time.
func (r OpRecord) Service() time.Duration { return r.End.Sub(r.Start) }

// opSite carries the issuing context of a device operation down into
// the buffer/launch internals: the stream id (or -1), the stream
// enqueue timestamp (zero for synchronous calls), the stream's op
// observer, invoked with the completed record, and the issuer's
// attribution tag.
type opSite struct {
	stream  int
	enqueue time.Time
	observe func(OpRecord)
	tag     any
}

// directSite is the opSite of synchronous host calls.
var directSite = opSite{stream: -1}

// opRecorder is the per-device telemetry state. One mutex guards both
// the overlap state machine and the record ring; transitions happen at
// op boundaries only, far off the per-set compute path.
type opRecorder struct {
	mu sync.Mutex

	// Overlap accounting: wall-clock is divided into intervals at op
	// start/end transitions, and each interval is charged to the
	// categories active during it.
	lastT         time.Time
	activeCopies  int
	activeKernels int
	kernelNs      int64 // wall time with ≥1 kernel active
	copyNs        int64 // wall time with ≥1 copy active
	overlapNs     int64 // wall time with a kernel AND a copy active

	// Record ring (opLog most recent ops, oldest first on read).
	ring   []OpRecord
	next   int
	filled bool
}

// accumulate charges the interval since the previous transition to the
// currently active categories. Callers hold mu.
func (o *opRecorder) accumulate(now time.Time) {
	if !o.lastT.IsZero() {
		dt := now.Sub(o.lastT).Nanoseconds()
		if dt > 0 {
			if o.activeKernels > 0 {
				o.kernelNs += dt
				if o.activeCopies > 0 {
					o.overlapNs += dt
				}
			}
			if o.activeCopies > 0 {
				o.copyNs += dt
			}
		}
	}
	o.lastT = now
}

// opBegin marks an operation active and returns its start timestamp.
func (d *Device) opBegin(kind OpKind) time.Time {
	now := time.Now()
	o := &d.rec
	o.mu.Lock()
	o.accumulate(now)
	if kind == OpKernel {
		o.activeKernels++
	} else {
		o.activeCopies++
	}
	o.mu.Unlock()
	return now
}

// opDone marks the operation finished, appends its record to the ring,
// and invokes the site observer (outside the recorder lock).
func (d *Device) opDone(kind OpKind, site opSite, bytes int64, blocks int, start time.Time) {
	now := time.Now()
	enq := site.enqueue
	if enq.IsZero() {
		enq = start
	}
	rec := OpRecord{
		Device:  d.name,
		Stream:  site.stream,
		Kind:    kind,
		Bytes:   bytes,
		Blocks:  blocks,
		Enqueue: enq,
		Start:   start,
		End:     now,
		Tag:     site.tag,
	}
	o := &d.rec
	o.mu.Lock()
	o.accumulate(now)
	if kind == OpKernel {
		o.activeKernels--
	} else {
		o.activeCopies--
	}
	if len(o.ring) > 0 {
		o.ring[o.next] = rec
		o.next++
		if o.next == len(o.ring) {
			o.next = 0
			o.filled = true
		}
	}
	o.mu.Unlock()
	if site.observe != nil {
		site.observe(rec)
	}
}

// OpRecords returns a copy of the device's retained operation records,
// oldest first. Empty unless Config.OpLogSize is set.
func (d *Device) OpRecords() []OpRecord {
	o := &d.rec
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []OpRecord
	if o.filled {
		out = append(out, o.ring[o.next:]...)
	}
	out = append(out, o.ring[:o.next]...)
	return out
}

// OverlapStats is the copy/compute concurrency accounting of a device.
type OverlapStats struct {
	// KernelNs is the wall time during which at least one kernel was
	// executing.
	KernelNs int64 `json:"kernel_ns"`
	// CopyNs is the wall time during which at least one host<->device
	// copy was in flight.
	CopyNs int64 `json:"copy_ns"`
	// OverlapNs is the wall time during which a kernel and a copy were
	// in flight simultaneously — the §3.3.2 stream-overlap effect.
	OverlapNs int64 `json:"overlap_ns"`
}

// OverlapStats returns the overlap accounting up to now.
func (d *Device) OverlapStats() OverlapStats {
	o := &d.rec
	o.mu.Lock()
	o.accumulate(time.Now())
	s := OverlapStats{KernelNs: o.kernelNs, CopyNs: o.copyNs, OverlapNs: o.overlapNs}
	o.mu.Unlock()
	return s
}

// OverlapFraction returns the fraction of kernel-active wall time during
// which a host<->device copy was simultaneously in flight: 1.0 means
// every kernel nanosecond had copy traffic hidden behind it, 0 means
// copies and kernels fully serialized. Returns 0 before the first
// kernel.
func (d *Device) OverlapFraction() float64 {
	s := d.OverlapStats()
	if s.KernelNs == 0 {
		return 0
	}
	return float64(s.OverlapNs) / float64(s.KernelNs)
}

// Utilization returns the fraction of total SM-worker capacity consumed
// since the device was created: SM busy time divided by workers ×
// elapsed wall time. An idle device decays toward 0.
func (d *Device) Utilization() float64 {
	elapsed := time.Since(d.createdAt).Nanoseconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(d.smBusyNs.Load()) / float64(elapsed*int64(d.cfg.Workers))
}
