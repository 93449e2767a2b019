package gpu

import (
	"context"
	"runtime/pprof"
	"sync"
	"time"
)

// Stream is a FIFO queue of device operations, the analogue of a CUDA
// stream (§3.3.2). Operations enqueued on one stream execute strictly in
// order; operations on different streams execute concurrently, limited
// only by the device's SM workers and the (shared) simulated bus.
//
// All enqueue methods are asynchronous: they return as soon as the
// operation is queued. Synchronize blocks until every previously enqueued
// operation has completed. A Stream's methods may be called from multiple
// goroutines, but the typical TagMatch usage gives each CPU thread
// exclusive use of a stream for one copy/launch/copy sequence at a time.
type Stream struct {
	dev  *Device
	id   int
	ops  chan func()
	done sync.WaitGroup // executor goroutine

	// observe, when set via OnOp before the first enqueue, receives the
	// OpRecord of every operation issued through this stream. The
	// channel send of the first subsequent enqueue publishes the write
	// to the executor goroutine.
	observe func(OpRecord)

	// segErr accumulates the first error of the current operation
	// segment (the ops enqueued since the last error-consuming callback).
	// Once set, subsequent copy/launch ops in the segment are skipped —
	// the analogue of a CUDA stream entering an error state — until
	// CallbackErr or SynchronizeErr consumes the error. Only the executor
	// goroutine touches it, so no synchronization is needed.
	segErr error
}

// streamFIFO is the number of pending operations a stream holds before
// an enqueue blocks.
const streamFIFO = 64

// OpenStream opens a new stream on the device. It fails with
// ErrTooManyStreams when MaxStreams streams are already open — the
// paper's platform capped at 10 streams per GPU, and that cap shapes the
// thread-scalability results (Fig 5).
func (d *Device) OpenStream() (*Stream, error) {
	d.streams.Lock()
	if d.streams.open >= d.cfg.MaxStreams {
		d.streams.Unlock()
		return nil, ErrTooManyStreams
	}
	d.streams.open++
	d.streams.Unlock()

	s := &Stream{
		dev: d,
		id:  int(d.streamSeq.Add(1)) - 1,
		ops: make(chan func(), streamFIFO),
	}
	s.done.Add(1)
	go s.run()
	return s, nil
}

// ID returns the stream's device-unique id, assigned in open order.
func (s *Stream) ID() int { return s.id }

// OnOp installs an observer invoked with the OpRecord of every
// operation issued through this stream, from the executor goroutine.
// Install it before the first enqueue; it must not block.
func (s *Stream) OnOp(fn func(OpRecord)) { s.observe = fn }

// site returns the opSite of an operation being enqueued now. tag is
// the optional trailing attribution value of the enqueue call; only the
// first element is used.
func (s *Stream) site(tag []any) opSite {
	st := opSite{stream: s.id, enqueue: time.Now(), observe: s.observe}
	if len(tag) > 0 {
		st.tag = tag[0]
	}
	return st
}

func (s *Stream) run() {
	defer s.done.Done()
	// Label the executor goroutine so CPU profiles attribute simulated
	// bus and kernel-dispatch time to the owning device.
	pprof.Do(context.Background(), pprof.Labels("stage", "gpu-stream", "device", s.dev.name), func(context.Context) {
		for op := range s.ops {
			op()
		}
	})
}

// Close drains and closes the stream, releasing its slot on the device.
func (s *Stream) Close() {
	close(s.ops)
	s.done.Wait()
	s.dev.streams.Lock()
	s.dev.streams.open--
	s.dev.streams.Unlock()
}

// Device returns the stream's device.
func (s *Stream) Device() *Device { return s.dev }

// QueueDepth returns the number of operations enqueued on the stream and
// not yet started — a saturation gauge for the observability layer (an
// operation being executed no longer counts).
func (s *Stream) QueueDepth() int { return len(s.ops) }

// CopyToDeviceAsync enqueues an H2D copy of src into buf at dstOff.
// The src slice must not be modified until the operation completes
// (Synchronize, or a later Callback). A failed copy puts the stream into
// an error state; see CallbackErr. The optional trailing tag is carried
// on the resulting OpRecord for the OnOp observer.
func CopyToDeviceAsync[T any](s *Stream, buf *Buffer[T], dstOff int, src []T, tag ...any) {
	site := s.site(tag)
	s.ops <- func() {
		if s.segErr != nil {
			return
		}
		s.segErr = buf.copyToDevice(dstOff, src, site)
	}
}

// CopyFromDeviceAsync enqueues a D2H copy of buf[srcOff:srcOff+len(dst)]
// into dst.
func CopyFromDeviceAsync[T any](s *Stream, buf *Buffer[T], dst []T, srcOff int, tag ...any) {
	site := s.site(tag)
	s.ops <- func() {
		if s.segErr != nil {
			return
		}
		s.segErr = buf.copyFromDevice(dst, srcOff, site)
	}
}

// CopyFromDeviceGated enqueues a D2H copy whose destination is resolved
// only when the operation reaches the head of the FIFO: gate runs on
// the executor goroutine after every previously enqueued operation
// (typically the kernel that produced the data and the callback that
// read its result header) has completed, and returns the destination
// slice plus source offset. A nil destination skips the copy entirely —
// no operation is recorded and no bus cost is paid — which is how the
// pipelined dispatch path elides the transfer for empty or overflowed
// batches. This is the exact-size, header-gated result copy of the
// paper's double-buffered cycle (§3.3.2): the size rides along with the
// previous operations of the same stream instead of forcing a
// synchronous round trip.
func CopyFromDeviceGated[T any](s *Stream, buf *Buffer[T], gate func() (dst []T, srcOff int), tag ...any) {
	site := s.site(tag)
	s.ops <- func() {
		if s.segErr != nil {
			return
		}
		dst, srcOff := gate()
		if dst == nil {
			return
		}
		s.segErr = buf.copyFromDevice(dst, srcOff, site)
	}
}

// LaunchAsync enqueues a kernel launch. The stream executor blocks until
// the kernel completes before starting the next operation in this stream,
// while other streams keep running — the overlap TagMatch exploits.
func (s *Stream) LaunchAsync(grid Grid, kernel KernelFunc, tag ...any) {
	site := s.site(tag)
	s.ops <- func() {
		if s.segErr != nil {
			return
		}
		s.segErr = s.dev.launch(grid, kernel, site)
	}
}

// LaunchZeroedAsync enqueues a kernel launch fused with a device-side
// reset: the first zeroWords words of zero are cleared immediately
// before the grid is dispatched, inside the same operation. This folds
// the per-batch result-header reset into the launch — the analogue of a
// cudaMemsetAsync fused into the kernel prologue — saving the separate
// H2D copy (and its per-op bus overhead) the reset used to cost.
func (s *Stream) LaunchZeroedAsync(grid Grid, zero *Buffer[uint32], zeroWords int, kernel KernelFunc, tag ...any) {
	site := s.site(tag)
	s.ops <- func() {
		if s.segErr != nil {
			return
		}
		s.segErr = s.dev.launchZeroed(grid, kernel, zero, zeroWords, site)
	}
}

// Callback enqueues a host callback that runs after all previously
// enqueued operations complete, like cudaStreamAddCallback. TagMatch uses
// callbacks to hand results to the key-lookup stage without a blocking
// synchronization point.
//
// Callback is the error-oblivious variant: a pending segment error —
// which for this variant can only be a programming error such as an
// out-of-range copy — is surfaced as a panic on the executor goroutine.
// Code that must survive device faults uses CallbackErr.
func (s *Stream) Callback(f func()) {
	s.ops <- func() {
		if err := s.segErr; err != nil {
			s.segErr = nil
			panic(err)
		}
		f()
	}
}

// CallbackErr enqueues a host callback that receives — and consumes —
// the segment's accumulated error: nil when every operation enqueued
// since the last error-consuming callback succeeded, otherwise the first
// failure (the remaining operations of the segment were skipped). This is
// the hook of the fault-tolerant dispatch path: the engine inspects the
// error and re-routes the batch instead of crashing.
func (s *Stream) CallbackErr(f func(err error)) {
	s.ops <- func() {
		err := s.segErr
		s.segErr = nil
		f(err)
	}
}

// Synchronize blocks until every operation enqueued before the call has
// completed. A pending segment error is left in place for the next
// error-consuming callback.
func (s *Stream) Synchronize() {
	ch := make(chan struct{})
	s.ops <- func() { close(ch) }
	<-ch
}

// SynchronizeErr blocks like Synchronize and additionally returns — and
// consumes — the segment's accumulated error, if any.
func (s *Stream) SynchronizeErr() error {
	ch := make(chan error, 1)
	s.ops <- func() {
		err := s.segErr
		s.segErr = nil
		ch <- err
	}
	return <-ch
}
