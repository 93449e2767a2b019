package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

func obsTestEngine(t *testing.T, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := Config{MaxPartitionSize: 64, BatchSize: 8, Threads: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for i := 0; i < 200; i++ {
		e.AddSet([]string{"a", fmt.Sprintf("t%d", i%50)}, Key(i))
	}
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestObsStageHistogramsAndPartitions(t *testing.T) {
	e := obsTestEngine(t, nil)
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := e.Match([]string{"a", fmt.Sprintf("t%d", i%50), "extra"}); err != nil {
			t.Fatal(err)
		}
	}
	p := e.Obs()
	if !p.On {
		t.Fatal("observability should default on")
	}
	if got := p.E2E.Count(); got != n {
		t.Fatalf("e2e observations = %d, want %d", got, n)
	}
	if p.Preprocess.Count() != n {
		t.Fatalf("preprocess observations = %d, want %d", p.Preprocess.Count(), n)
	}
	if p.SubsetMatch.Count() == 0 || p.Reduce.Count() == 0 {
		t.Fatal("batch-stage histograms empty")
	}
	if p.BatchOccupancy.Count() == 0 {
		t.Fatal("batch occupancy histogram empty")
	}
	if s := p.E2E.Snapshot(); s.QuantileDuration(0.99) <= 0 || s.Max <= 0 {
		t.Fatalf("e2e snapshot = %+v", s)
	}

	parts := p.Parts.Snapshot()
	if len(parts) != e.Stats().Partitions {
		t.Fatalf("partition stats = %d, index partitions = %d", len(parts), e.Stats().Partitions)
	}
	var routed, batches int64
	for _, ps := range parts {
		routed += ps.QueriesRouted
		batches += ps.BatchesFull + ps.BatchesTimedOut + ps.BatchesFlushed
	}
	// Per-partition batch counters count segments: a dispatched batch
	// holds one per partition it carries entries for.
	st := e.Stats()
	if routed == 0 || batches != st.SegmentsDispatched || st.BatchesDispatched > batches {
		t.Fatalf("routed=%d partition batches=%d segments=%d dispatched=%d",
			routed, batches, st.SegmentsDispatched, st.BatchesDispatched)
	}
	if got := p.Streams.SegmentsPerBatch.Count(); got != st.BatchesDispatched {
		t.Fatalf("segments-per-batch observations = %d, dispatched batches = %d", got, st.BatchesDispatched)
	}

	// Stage snapshots feed the export surfaces.
	snap := p.Snapshot(true)
	if len(snap.Stages) != 5 || len(snap.Partitions) != len(parts) {
		t.Fatalf("snapshot shape: %d stages, %d partitions", len(snap.Stages), len(snap.Partitions))
	}
	if snap.Gauges == nil {
		t.Fatal("engine gauges not registered")
	}
	if _, ok := snap.Gauges[`tagmatch_queue_depth{queue="input"}`]; !ok {
		t.Fatalf("missing input queue gauge: %v", snap.Gauges)
	}
}

func TestObsPerQueryTracing(t *testing.T) {
	e := obsTestEngine(t, func(c *Config) { c.TraceEvery = 1; c.TraceKeep = 16 })
	if _, err := e.Match([]string{"a", "t3", "x"}); err != nil {
		t.Fatal(err)
	}
	traces := e.Obs().Tracer.Recent()
	if len(traces) == 0 {
		t.Fatal("no traces with TraceEvery=1")
	}
	tr := traces[len(traces)-1]
	stages := map[string]bool{}
	for _, ev := range tr.Events {
		stages[ev.Stage] = true
	}
	for _, want := range []string{obs.StagePreprocess, "batch", "batch-done", "done"} {
		if !stages[want] {
			t.Fatalf("trace missing stage %q: %+v", want, tr.Events)
		}
	}
}

// TestShedTracePublishesError pins the trace-finalization contract of
// the load-shedding path: a sampled query rejected by the admission gate
// must still publish to the trace ring, with terminal status
// "error:overloaded" — it may not vanish silently.
func TestShedTracePublishesError(t *testing.T) {
	e, err := New(Config{
		MaxPartitionSize: 100, BatchSize: 1, Threads: 2, MaxInFlight: 1,
		TraceEvery: 1, TraceKeep: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	e.AddSet([]string{"a"}, 1)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}

	// Saturate: park the only reduce worker in query 1's done callback,
	// admit query 2 to fill the in-flight budget (see overload_test.go).
	entered := make(chan struct{})
	release := make(chan struct{})
	if err := e.Submit([]string{"a"}, func(MatchResult) {
		close(entered)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := e.Submit([]string{"a"}, func(MatchResult) {}); err != nil {
		t.Fatalf("query filling the in-flight budget was rejected: %v", err)
	}

	if err := e.Submit([]string{"a"}, func(MatchResult) {
		t.Error("done called for a shed query")
	}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit at capacity: got %v, want ErrOverloaded", err)
	}

	var shed *obs.TraceRecord
	for _, tr := range e.Obs().Tracer.Recent() {
		if tr.Status == "error:overloaded" {
			shed = &tr
			break
		}
	}
	if shed == nil {
		t.Fatalf("no trace with status error:overloaded in ring: %+v",
			e.Obs().Tracer.Recent())
	}
	var sawEvent bool
	for _, ev := range shed.Events {
		if ev.Stage == "error:overloaded" {
			sawEvent = true
		}
	}
	if !sawEvent {
		t.Fatalf("shed trace missing terminal error event: %+v", shed.Events)
	}
	close(release)
	e.Drain()
}

// TestFaultTracesTerminal pins trace finalization on the degraded paths:
// with a device whose every operation fails, queries complete through
// GPU-fault retries and CPU fallback, and every published trace must
// carry a terminal status — "degraded:<reason>" for the fallback
// survivors, never the empty string.
func TestFaultTracesTerminal(t *testing.T) {
	db := makeTestDB(300, 5, 2, 79)
	dev := newTestGPU(t, 2)
	e, err := New(Config{
		MaxPartitionSize: 100, BatchSize: 8, Threads: 2,
		Devices: []*gpu.Device{dev}, StreamsPerDevice: 2, Replicate: true,
		FailureThreshold:  3,
		QuarantineBackoff: 50 * time.Millisecond,
		TraceEvery:        1, TraceKeep: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	dev.SetFaultPlan(&gpu.FaultPlan{Seed: 5, CopyFailProb: 1})

	for _, q := range db.makeQueries(60, 80) {
		if _, err := e.MatchSignature(q, false); err != nil {
			t.Fatal(err)
		}
	}

	traces := e.Obs().Tracer.Recent()
	if len(traces) == 0 {
		t.Fatal("no traces recorded with TraceEvery=1")
	}
	var degraded int
	for _, tr := range traces {
		if tr.Status == "" {
			t.Fatalf("trace %d published without terminal status: %+v", tr.ID, tr)
		}
		if strings.HasPrefix(tr.Status, "degraded:") {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatalf("no degraded traces despite a fully failing device; statuses: %v",
			traceStatuses(traces))
	}
	if e.Stats().CPUFallbacks == 0 {
		t.Fatal("no CPU fallbacks despite a fully failing device")
	}
}

func traceStatuses(traces []obs.TraceRecord) []string {
	out := make([]string, len(traces))
	for i, tr := range traces {
		out[i] = tr.Status
	}
	return out
}

func TestObsDisabled(t *testing.T) {
	e := obsTestEngine(t, func(c *Config) { c.DisableObservability = true })
	if _, err := e.Match([]string{"a", "t1"}); err != nil {
		t.Fatal(err)
	}
	p := e.Obs()
	if p.On {
		t.Fatal("observability should be off")
	}
	if p.E2E.Count() != 0 || p.BatchOccupancy.Count() != 0 {
		t.Fatal("disabled pipeline recorded samples")
	}
	if p.Parts.Len() != 0 {
		t.Fatal("disabled pipeline allocated partition counters")
	}
}

// TestDrainEventDriven exercises the condition-variable drain: many
// queries submitted with no flush timeout must drain promptly (the old
// implementation polled at 200µs; the new one is woken by completions
// and re-flushes parked batches).
func TestDrainEventDriven(t *testing.T) {
	e := obsTestEngine(t, func(c *Config) { c.BatchSize = 256 }) // batches never fill
	const n = 500
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := e.Submit([]string{"a", fmt.Sprintf("t%d", i%50)}, func(MatchResult) { wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() { e.Drain(); wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not complete")
	}
	if st := e.Stats(); st.QueriesCompleted != st.QueriesSubmitted {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestConcurrentDrainers runs overlapping submitters and drainers to
// shake races in the progress-epoch handshake (run under -race in CI).
func TestConcurrentDrainers(t *testing.T) {
	e := obsTestEngine(t, func(c *Config) { c.Threads = 4 })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := e.Submit([]string{"a", fmt.Sprintf("t%d", (i+w)%50)}, func(MatchResult) {}); err != nil {
					t.Error(err)
					return
				}
				if i%25 == 0 {
					e.Drain()
				}
			}
		}(w)
	}
	wg.Wait()
	e.Drain()
	if st := e.Stats(); st.QueriesCompleted != st.QueriesSubmitted {
		t.Fatalf("stats after drain: %+v", st)
	}
}
