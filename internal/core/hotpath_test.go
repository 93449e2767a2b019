package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
)

// hotpathEngine builds a consolidated CPU-only engine over nSets small
// tag sets, together with query signatures that each match matchWidth of
// those sets (matchWidth 0 builds queries that match nothing).
func hotpathEngine(t testing.TB, cfg Config, nSets, matchWidth int) (*Engine, []bitvec.Vector) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for i := 0; i < nSets; i++ {
		e.AddSet([]string{fmt.Sprintf("g%d", i/max(matchWidth, 1)), fmt.Sprintf("m%d", i)}, Key(i))
	}
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	queries := make([]bitvec.Vector, 64)
	for i := range queries {
		if matchWidth == 0 {
			queries[i] = bloom.Signature([]string{fmt.Sprintf("nomatch%d", i)})
		} else {
			// Contains every tag of one whole group: matches its
			// matchWidth sets.
			tags := []string{fmt.Sprintf("g%d", i%(nSets/matchWidth))}
			for j := 0; j < matchWidth; j++ {
				tags = append(tags, fmt.Sprintf("m%d", (i%(nSets/matchWidth))*matchWidth+j))
			}
			queries[i] = bloom.Signature(tags)
		}
	}
	return e, queries
}

func TestBatchSizeValidation(t *testing.T) {
	if _, err := New(Config{BatchSize: 257}); err != ErrBatchSizeTooLarge {
		t.Fatalf("New(BatchSize=257) err = %v, want ErrBatchSizeTooLarge", err)
	}
	if _, err := New(Config{BatchSize: 10000}); err != ErrBatchSizeTooLarge {
		t.Fatalf("New(BatchSize=10000) err = %v, want ErrBatchSizeTooLarge", err)
	}
	e, err := New(Config{BatchSize: 256})
	if err != nil {
		t.Fatalf("New(BatchSize=256) err = %v, want nil", err)
	}
	e.Close()
}

// TestReduceLocksOncePerQueryBatch asserts the batch-local reduce takes
// each query's mutex at most once per (query, batch): queries matching
// many sets within one partition must not acquire per pair.
func TestReduceLocksOncePerQueryBatch(t *testing.T) {
	const nSets, matchWidth, nQueries = 512, 32, 64
	// One partition (MaxPartitionSize ≥ nSets) and one batch (BatchSize ≥
	// nQueries) make the expected acquisition count exactly predictable.
	e, queries := hotpathEngine(t, Config{
		MaxPartitionSize: nSets, BatchSize: 64, Threads: 2,
	}, nSets, matchWidth)

	var wg sync.WaitGroup
	wg.Add(nQueries)
	for i := 0; i < nQueries; i++ {
		if err := e.Submit(context.Background(), Request{Sig: queries[i%len(queries)]}, func(r MatchResult) {
			if len(r.Keys) < matchWidth {
				t.Errorf("query matched %d keys, want >= %d", len(r.Keys), matchWidth)
			}
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	wg.Wait()

	pairs := e.obs.Flow.Pairs.Load()
	acqs := e.queryLockAcqs.Load()
	memberships := e.obs.Flow.PartitionsSearched.Load() // (query, batch) memberships: one per routed pair
	if pairs < int64(nQueries*matchWidth) {
		t.Fatalf("pairs = %d, want >= %d", pairs, nQueries*matchWidth)
	}
	// At most one acquisition per (query, batch) membership — the old
	// per-pair locking would have taken one per pair (pairs >> memberships
	// here, since every query matches matchWidth sets in its home batch).
	if acqs > memberships {
		t.Fatalf("reduce acquired query locks %d times for %d (query,batch) memberships; want <= one per membership",
			acqs, memberships)
	}
	if acqs*2 > pairs {
		t.Fatalf("reduce lock acquisitions (%d) not well below pair count (%d): batch-local reduce not in effect", acqs, pairs)
	}
}

// TestSteadyStateAllocsPerQuery drives no-match bursts through a warmed
// engine and bounds its steady-state allocations per query. The pools
// hold it at zero. Bypassing every pool read 1.61; a query struct
// allocated per use alone reads 1.00, a batch allocated per use alone
// 0.26.
func TestSteadyStateAllocsPerQuery(t *testing.T) {
	const nSets, burst = 1024, 256
	e, queries := hotpathEngine(t, Config{
		MaxPartitionSize: 128, BatchSize: 64, Threads: 4,
	}, nSets, 0) // no matches: isolates pipeline bookkeeping from result delivery
	done := func(MatchResult) {}
	run := func() {
		for i := 0; i < burst; i++ {
			if err := e.Submit(context.Background(), Request{Sig: queries[i%len(queries)]}, done); err != nil {
				t.Fatal(err)
			}
		}
		e.Drain()
	}
	run() // warm up pools and partition state
	perQuery := testing.AllocsPerRun(20, run) / burst
	t.Logf("allocs/query: %.2f", perQuery)
	if raceEnabled {
		return // pool misses are random under -race
	}
	if perQuery > 0.25 {
		t.Fatalf("steady-state allocs/query %.2f, want <= 0.25", perQuery)
	}
}

// TestMatchPromptWithoutTimeout exercises the event-driven blocking
// match: with no BatchTimeout and no background traffic, Match must
// complete via the progress-epoch handshake rather than hanging until a
// flush tick that never comes.
func TestMatchPromptWithoutTimeout(t *testing.T) {
	e, _ := hotpathEngine(t, Config{
		MaxPartitionSize: 64, BatchSize: 256, Threads: 2, // batches never fill
	}, 512, 4)
	start := time.Now()
	for i := 0; i < 50; i++ {
		keys, err := match(e, tagReq([]string{fmt.Sprintf("g%d", i%8), fmt.Sprintf("m%d", i)}, false))
		if err != nil {
			t.Fatal(err)
		}
		_ = keys
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("50 blocking matches took %v; blocking path is stalling", el)
	}
}

// BenchmarkHotpathSubmit measures the steady-state submit→complete path
// (the hot path the buffer pools serve) in queries per op.
func BenchmarkHotpathSubmit(b *testing.B) {
	e, queries := hotpathEngine(b, Config{
		MaxPartitionSize: 128, BatchSize: 64, Threads: 4,
	}, 4096, 4)
	done := func(MatchResult) {}
	// Warm up pools and partition batches.
	for i := 0; i < 1024; i++ {
		if err := e.Submit(context.Background(), Request{Sig: queries[i%len(queries)]}, done); err != nil {
			b.Fatal(err)
		}
	}
	e.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Submit(context.Background(), Request{Sig: queries[i%len(queries)]}, done); err != nil {
			b.Fatal(err)
		}
	}
	e.Drain()
}

// BenchmarkBlockingMatch covers the event-driven blocking path end to
// end (submit, flush handshake, reduce, merge).
func BenchmarkBlockingMatch(b *testing.B) {
	e, queries := hotpathEngine(b, Config{
		MaxPartitionSize: 128, BatchSize: 64, Threads: 4,
	}, 4096, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := match(e, Request{Sig: queries[i%len(queries)]}); err != nil {
			b.Fatal(err)
		}
	}
}
