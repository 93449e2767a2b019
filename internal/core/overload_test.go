package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// saturatedEngine builds a CPU-only engine with MaxInFlight=1 and parks
// its single reduce worker inside the done callback of one admitted
// query, which fills the budget: a query counts as in flight until its
// callback returns. It returns the engine and the release function that
// unblocks the reduce worker.
//
// Threads=2 gives one pre-process and one reduce worker; BatchSize=1
// dispatches every query immediately.
func saturatedEngine(t *testing.T) (*Engine, func()) {
	t.Helper()
	e, err := New(Config{
		MaxPartitionSize: 100, BatchSize: 1, Threads: 2, MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	e.AddSet([]string{"a"}, 1)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	if err := e.Submit(context.Background(), tagReq([]string{"a"}, false), func(MatchResult) {
		close(entered)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-entered // reduce worker is now parked in query 1's done

	var released bool
	return e, func() {
		if !released {
			released = true
			close(release)
		}
	}
}

// TestSubmitOverloadedRejectsImmediately checks the admission gate: at
// MaxInFlight, Submit returns ErrOverloaded without blocking, sheds are
// counted, and capacity returns once queries complete.
func TestSubmitOverloadedRejectsImmediately(t *testing.T) {
	e, release := saturatedEngine(t)

	start := time.Now()
	err := e.Submit(context.Background(), tagReq([]string{"a"}, false), func(MatchResult) {
		t.Error("done called for a shed query")
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit at capacity: got %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("rejection took %v, want immediate", d)
	}
	if got := e.Stats().QueriesShed; got != 1 {
		t.Fatalf("QueriesShed = %d, want 1", got)
	}

	release()
	e.Drain()
	if err := e.Submit(context.Background(), tagReq([]string{"a"}, false), func(MatchResult) {}); err != nil {
		t.Fatalf("Submit after drain: %v", err)
	}
	e.Drain()
	st := e.Stats()
	if st.QueriesCompleted != st.QueriesSubmitted {
		t.Fatalf("submitted %d completed %d", st.QueriesSubmitted, st.QueriesCompleted)
	}
}

// TestSubmitCtxBlocksForCapacity checks the waiting variant: SubmitWait
// waits out a saturated engine and succeeds once capacity frees up.
func TestSubmitCtxBlocksForCapacity(t *testing.T) {
	e, release := saturatedEngine(t)

	time.AfterFunc(20*time.Millisecond, release)
	got := make(chan struct{})
	err := e.SubmitWait(context.Background(), tagReq([]string{"a"}, false), func(MatchResult) {
		close(got)
	})
	if err != nil {
		t.Fatalf("SubmitWait: %v", err)
	}
	e.Drain()
	select {
	case <-got:
	default:
		t.Fatal("done never called for the blocked-then-admitted query")
	}
}

// TestDrainWaitsForCallbacks: Drain returns only after every done
// callback has returned, so what a callback did before returning is
// visible to the caller of Drain — a query is not complete while its
// callback still runs. Drain is called once the callback has started.
func TestDrainWaitsForCallbacks(t *testing.T) {
	e, err := New(Config{MaxPartitionSize: 100, BatchSize: 1, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddSet([]string{"a"}, 1)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	var returned atomic.Bool
	if err := e.Submit(context.Background(), tagReq([]string{"a"}, false), func(MatchResult) {
		close(entered)
		time.Sleep(20 * time.Millisecond)
		returned.Store(true)
	}); err != nil {
		t.Fatal(err)
	}
	<-entered
	e.Drain()
	if !returned.Load() {
		t.Fatal("Drain returned while a done callback was still running")
	}
}

// TestSubmitCtxCancellation checks that a cancelled SubmitWait returns an
// error matching both ErrOverloaded and the context error, within the
// context's deadline rather than blocking forever.
func TestSubmitCtxCancellation(t *testing.T) {
	e, release := saturatedEngine(t)
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := e.SubmitWait(ctx, tagReq([]string{"a"}, false), func(MatchResult) {
		t.Error("done called for a cancelled submission")
	})
	if !errors.Is(err, ErrOverloaded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrOverloaded+DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
}

// TestMaxInFlightDisabledByDefault checks that the zero value keeps the
// historical unbounded-admission behavior.
func TestMaxInFlightDisabledByDefault(t *testing.T) {
	e, err := New(Config{MaxPartitionSize: 100, BatchSize: 1, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddSet([]string{"a"}, 1)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := e.Submit(context.Background(), tagReq([]string{"a"}, false), func(MatchResult) {}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	e.Drain()
	if got := e.Stats().QueriesShed; got != 0 {
		t.Fatalf("QueriesShed = %d with the gate disabled", got)
	}
}
