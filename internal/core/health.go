package core

import (
	"errors"
	"sync/atomic"
	"time"

	"tagmatch/internal/gpu"
)

// deviceHealth is the per-device circuit breaker of the fault-tolerant
// dispatch path. A device accumulating failureThreshold
// consecutive failed batch attempts is quarantined: its streams are
// skipped by stream acquisition (batches of its partitions, which no
// other device holds, run on the host) until a recovery probe — one
// batch let through after an exponentially backed-off delay — succeeds.
//
// All fields are atomics: health is consulted on the dispatch hot path
// and updated from stream-executor callbacks, with no lock ordering
// constraints against the rest of the engine.
type deviceHealth struct {
	consecFails atomic.Int32
	quarantined atomic.Bool

	// probing marks an in-flight recovery probe; the CAS in deviceUsable
	// elects exactly one batch as the probe, and the probe's outcome
	// (recordDeviceSuccess / recordDeviceFailure) clears it.
	probing atomic.Bool

	probeAfter atomic.Int64 // unix nanoseconds of the next probe window
	backoff    atomic.Int64 // current probe backoff, nanoseconds
}

const (
	// failureThreshold is the number of consecutive failed batch attempts
	// that quarantines a device.
	failureThreshold = 3
	// quarantineBackoff is the delay before a quarantined device's first
	// recovery probe; each failed probe doubles it, up to
	// quarantineBackoffCap times.
	quarantineBackoff    = 250 * time.Millisecond
	quarantineBackoffCap = 64
)

func (e *Engine) initHealth() {
	e.health = make([]deviceHealth, len(e.devices))
	for i := range e.health {
		e.health[i].backoff.Store(int64(e.cfg.quarantineBackoff))
	}
}

// deviceUsable reports whether a batch may be dispatched to the device.
// For a quarantined device whose backoff has elapsed it additionally
// elects the caller as the recovery probe; a caller seeing true MUST
// dispatch to the device (the attempt's outcome resolves the probe).
func (e *Engine) deviceUsable(dev int) bool {
	h := &e.health[dev]
	if !h.quarantined.Load() {
		return true
	}
	if time.Now().UnixNano() < h.probeAfter.Load() {
		return false
	}
	if h.probing.CompareAndSwap(false, true) {
		e.obs.Faults.Probes.Add(1)
		return true
	}
	return false // another batch is already probing
}

// recordDeviceSuccess resets the device's failure streak and completes a
// successful recovery probe, returning the device to rotation.
func (e *Engine) recordDeviceSuccess(dev int) {
	h := &e.health[dev]
	h.consecFails.Store(0)
	if h.quarantined.Load() && h.probing.CompareAndSwap(true, false) {
		h.quarantined.Store(false)
		h.backoff.Store(int64(e.cfg.quarantineBackoff))
		e.obs.Faults.Recoveries.Add(1)
		e.log.Info("device recovered from quarantine",
			"device", e.deviceName(dev))
	}
}

// recordDeviceFailure advances the circuit breaker after a failed batch
// attempt: quarantining the device at the consecutive-failure threshold,
// or — for a failure while quarantined (the recovery probe, or a
// straggler dispatched before the quarantine) — extending the probe
// backoff exponentially up to quarantineBackoffCap times the base.
// err is the batch attempt's failure, logged so operators see which
// device is misbehaving and why, not just a counter moving.
func (e *Engine) recordDeviceFailure(dev int, err error) {
	h := &e.health[dev]
	if errors.Is(err, gpu.ErrDeviceClosed) {
		// ErrDeviceClosed outside shutdown is the simulator's device
		// death (Kill); every subsequent op fails the same way.
		e.log.Error("device lost", "device", e.deviceName(dev), "err", err)
	} else {
		e.log.Debug("device batch attempt failed",
			"device", e.deviceName(dev), "err", err)
	}
	if h.quarantined.Load() {
		h.probing.Store(false)
		b := 2 * h.backoff.Load()
		if max := quarantineBackoffCap * int64(e.cfg.quarantineBackoff); b > max {
			b = max
		}
		h.backoff.Store(b)
		h.probeAfter.Store(time.Now().UnixNano() + b)
		e.log.Debug("quarantine probe failed, extending backoff",
			"device", e.deviceName(dev), "backoff", time.Duration(b), "err", err)
		return
	}
	if fails := h.consecFails.Add(1); fails >= failureThreshold {
		if h.quarantined.CompareAndSwap(false, true) {
			h.probing.Store(false)
			h.probeAfter.Store(time.Now().UnixNano() + h.backoff.Load())
			e.obs.Faults.Quarantines.Add(1)
			e.log.Warn("device quarantined",
				"device", e.deviceName(dev),
				"consecutive_failures", fails,
				"probe_backoff", time.Duration(h.backoff.Load()),
				"err", err)
		}
	}
}

// deviceName resolves a device index to its name for log records.
func (e *Engine) deviceName(dev int) string {
	if dev < 0 || dev >= len(e.devices) {
		return "?"
	}
	return e.devices[dev].Name()
}
