package core

import (
	"errors"
	"testing"
	"time"

	"tagmatch/internal/gpu"
)

// TestChaosExactResultsUnderFaults is the headline fault-tolerance test:
// 10k queries against two devices, one failing ~5% of its copies and
// launches under a seeded FaultPlan, the other scripted to die mid-run.
// Every query must return exactly the keys a fault-free run returns
// (verifyEngine checks each against the brute-force reference), with
// zero panics and no lost queries, and the circuit breaker must have
// quarantined the dead device.
func TestChaosExactResultsUnderFaults(t *testing.T) {
	db := makeTestDB(2000, 5, 2, 71)
	e, err := New(Config{
		MaxPartitionSize: 200, BatchSize: 64, Threads: 4,
		GPUs: 2, GPUWorkers: 2, StreamsPerGPU: 3,
		quarantineBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	devs := e.devices
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}

	// Install the plans after Consolidate so the index upload is clean:
	// device 0 dies a few hundred operations in (mid-run for this query
	// volume); device 1 fails ~5% of copies and launches throughout.
	devs[0].SetFaultPlan(&gpu.FaultPlan{Seed: 1, DieAtOp: 500})
	devs[1].SetFaultPlan(&gpu.FaultPlan{Seed: 2, CopyFailProb: 0.05, LaunchFailProb: 0.05})

	queries := db.makeQueries(10000, 72)
	verifyEngine(t, e, db, queries, false)

	if !devs[0].Dead() {
		t.Fatal("device 0 never reached its scripted death")
	}
	st := e.Stats()
	if st.QueriesCompleted != st.QueriesSubmitted {
		t.Fatalf("lost queries: submitted %d completed %d",
			st.QueriesSubmitted, st.QueriesCompleted)
	}
	if st.GPUFaults == 0 {
		t.Fatal("no GPU faults recorded despite active fault plans")
	}
	if st.BatchRetries == 0 {
		t.Fatal("no batch retries recorded")
	}
	if st.DeviceQuarantines == 0 {
		t.Fatal("dead device was never quarantined")
	}
	if !e.health[0].quarantined.Load() {
		t.Fatal("device 0 not quarantined at end of run")
	}
}

// TestChaosAllAttemptsFailFallsBackToCPU drives a single device whose
// every operation fails: both GPU attempts of each batch fail, the
// batch re-runs on the host, and results stay exact.
func TestChaosAllAttemptsFailFallsBackToCPU(t *testing.T) {
	db := makeTestDB(1000, 5, 2, 73)
	e, err := New(Config{
		MaxPartitionSize: 200, BatchSize: 32, Threads: 2,
		GPUs: 1, GPUWorkers: 2, StreamsPerGPU: 2,
		quarantineBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := e.devices[0]
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	dev.SetFaultPlan(&gpu.FaultPlan{Seed: 3, CopyFailProb: 1})

	verifyEngine(t, e, db, db.makeQueries(500, 74), true)

	st := e.Stats()
	if st.CPUFallbacks == 0 {
		t.Fatal("no CPU fallbacks despite a fully failing device")
	}
	if st.DeviceQuarantines == 0 {
		t.Fatal("fully failing device was never quarantined")
	}
	if st.QueriesCompleted != st.QueriesSubmitted {
		t.Fatalf("lost queries: submitted %d completed %d",
			st.QueriesSubmitted, st.QueriesCompleted)
	}
}

// TestQuarantineRecoveryProbe checks the full circuit-breaker cycle:
// repeated failures quarantine the device, a probe after the backoff
// fails while the fault persists, and once the fault clears a probe
// succeeds and returns the device to rotation.
func TestQuarantineRecoveryProbe(t *testing.T) {
	db := makeTestDB(500, 5, 2, 75)
	e, err := New(Config{
		MaxPartitionSize: 1000, BatchSize: 16, Threads: 2,
		GPUs: 1, GPUWorkers: 2, StreamsPerGPU: 2,
		quarantineBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := e.devices[0]
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	queries := db.makeQueries(40, 76)

	dev.SetFaultPlan(&gpu.FaultPlan{Seed: 4, CopyFailProb: 1})
	for _, q := range queries[:10] {
		if _, err := match(e, Request{Sig: q}); err != nil {
			t.Fatal(err)
		}
	}
	if !e.health[0].quarantined.Load() {
		t.Fatal("device not quarantined after consecutive failures")
	}
	if e.Stats().DeviceQuarantines != 1 {
		t.Fatalf("DeviceQuarantines = %d, want 1", e.Stats().DeviceQuarantines)
	}

	// Heal the device and keep submitting until a recovery probe lands.
	// Failed probes before the heal may have grown the backoff, so poll
	// with a generous deadline; results must be correct throughout.
	dev.SetFaultPlan(nil)
	deadline := time.Now().Add(10 * time.Second)
	for e.health[0].quarantined.Load() {
		if time.Now().After(deadline) {
			t.Fatal("device still quarantined after heal + probes")
		}
		if _, err := match(e, Request{Sig: queries[0]}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := e.Stats()
	if st.RecoveryProbes == 0 {
		t.Fatal("no recovery probes recorded")
	}
	if st.DeviceRecoveries != 1 {
		t.Fatalf("DeviceRecoveries = %d, want 1", st.DeviceRecoveries)
	}

	// The recovered device serves traffic again: kernel launches grow.
	before := dev.Stats().KernelLaunches
	verifyEngine(t, e, db, queries, false)
	if dev.Stats().KernelLaunches <= before {
		t.Fatal("recovered device served no kernels")
	}
}

// TestConsolidateOOMDegradesToCPU checks the degradation path of the
// offline stage: a device too small for the tagset table makes
// Consolidate return a typed, wrapped error while installing a CPU-only
// index that answers queries correctly.
func TestConsolidateOOMDegradesToCPU(t *testing.T) {
	db := makeTestDB(2000, 5, 2, 77)
	e, err := New(Config{
		MaxPartitionSize: 500, BatchSize: 32, Threads: 2,
		GPUs: 1, GPUWorkers: 2, GPUMemBytes: 4096, StreamsPerGPU: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := e.devices[0]
	defer e.Close()
	db.load(e)

	err = e.Consolidate()
	if err == nil {
		t.Fatal("Consolidate succeeded on a 4KiB device")
	}
	if !errors.Is(err, ErrDeviceDegraded) {
		t.Fatalf("error %v does not wrap ErrDeviceDegraded", err)
	}
	if !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Fatalf("error %v does not wrap gpu.ErrOutOfMemory", err)
	}

	// The engine is degraded but fully usable: every query answered on
	// the host, no device memory in use.
	verifyEngine(t, e, db, db.makeQueries(200, 78), false)
	st := e.Stats()
	if st.UniqueSets == 0 {
		t.Fatal("degraded index lost the database")
	}
	if len(st.DeviceBytes) != 0 {
		t.Fatalf("degraded index still holds device memory: %v", st.DeviceBytes)
	}
	if dev.MemInUse() != 0 {
		t.Fatalf("device memory leaked on degrade: %d bytes", dev.MemInUse())
	}
}

// TestConsolidateOOMDegradedFold pins what a background fold does after
// a degraded Consolidate: its cut only rewrites keys, but the old layout
// lost its devices, so the fold takes a full build and retries the
// upload, which degrades again. Answers stay exact, nothing is left on
// the device, and the drained engine holds nothing it borrowed. Keeping
// the degraded layout would leave the engine CPU-only until the next
// full build.
func TestConsolidateOOMDegradedFold(t *testing.T) {
	db := makeTestDB(2000, 5, 2, 79)
	// Eight groups: the base index needs dozens.
	e, err := New(Config{
		MaxPartitionSize: 500, BatchSize: 32, Threads: 2,
		GPUs: 1, GPUWorkers: 2, GPUMemBytes: 8 * slicedGroupBytes, StreamsPerGPU: 2,
		DeltaMaxSets: 4, DeltaMaxRatio: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := e.devices[0]
	defer e.Close()

	// The base goes in as one bulk Consolidate (LoadSnapshot's path), so
	// the four-op fold threshold starts no fold before it.
	if err := e.consolidateOnce(false, db.bulk()); !errors.Is(err, ErrDeviceDegraded) || !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Fatalf("Consolidate on an eight-group device: %v, want a degrade on out-of-memory", err)
	}

	// Four new keys on stored sets: a key-only cut.
	degraded := e.idx.Load()
	next := Key(1 << 20)
	for _, i := range []int{1, 20, 300, 1999} {
		db.keys[i] = append(db.keys[i], next)
		e.AddSignature(db.sigs[i], next)
		next++
	}
	for deadline := time.Now().Add(10 * time.Second); e.Stats().AutoConsolidations == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no background fold within 10s")
		}
	}
	e.consolidateMu.Lock() // the fold has swapped its index in once this is free
	e.consolidateMu.Unlock()
	if n := e.Stats().IncrementalFolds; n != 0 || e.idx.Load().layout == degraded.layout {
		t.Fatalf("%d incremental folds over a degraded layout, want a full build", n)
	}
	if idx := e.idx.Load(); len(idx.devices) != 0 || idx.slots != nil {
		t.Fatalf("the fold left %d devices and slots %v on a degraded index", len(idx.devices), idx.slots)
	}

	verifyEngine(t, e, db, db.makeQueries(200, 81), false)
	if n := dev.MemInUse(); n != 0 {
		t.Fatalf("device holds %d bytes after folding into a degraded index", n)
	}
	assertDrained(t, e, []int64{0})
}
