package httpserver

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tagmatch"
)

// saturatedServer builds a server over a CPU-only engine with
// MaxInFlight=1 whose admission budget is fully consumed: one query is
// parked inside its done callback (stalling the single reduce worker),
// and a query stays in flight until its callback returns. The returned
// release function unblocks it.
func saturatedServer(t *testing.T) (*httptest.Server, *tagmatch.Engine, func()) {
	t.Helper()
	eng, err := tagmatch.New(tagmatch.Config{
		Threads: 2, BatchSize: 1, MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.AddSet([]string{"a"}, 1)
	if err := eng.Consolidate(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(eng))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})

	entered := make(chan struct{})
	release := make(chan struct{})
	if err := eng.Submit([]string{"a"}, func(tagmatch.MatchResult) {
		close(entered)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-entered

	var once sync.Once
	return srv, eng, func() { once.Do(func() { close(release) }) }
}

// TestMatchOverloadedReturns503 checks the HTTP mapping of the admission
// gate: a shed /match answers 503 with a Retry-After header, and the
// server recovers once load drains.
func TestMatchOverloadedReturns503(t *testing.T) {
	srv, eng, release := saturatedServer(t)

	resp, err := http.Post(srv.URL+"/match", "application/json",
		bytes.NewReader([]byte(`{"tags":["a"]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated /match → %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 response missing Retry-After header")
	}
	if got := eng.Stats().QueriesShed; got == 0 {
		t.Fatal("no shed recorded in engine stats")
	}

	release()
	eng.Drain()
	var match MatchResponse
	post(t, srv.URL+"/match", MatchRequest{Tags: []string{"a"}}, &match)
	if match.Count != 1 {
		t.Fatalf("post-recovery match = %+v", match)
	}
}

// TestShedCounterExported checks that the shed shows up on /metrics.
func TestShedCounterExported(t *testing.T) {
	srv, _, release := saturatedServer(t)
	defer release()

	resp, err := http.Post(srv.URL+"/match", "application/json",
		bytes.NewReader([]byte(`{"tags":["a"]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	m, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(m.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tagmatch_queries_shed_total 1") {
		t.Fatalf("metrics missing shed counter:\n%s", buf.String())
	}
}

// TestServeGracefulShutdown checks the Serve helper: cancelling the
// context stops the listener, lets in-flight requests finish, and drains
// the engine so every accepted query completes before Serve returns.
func TestServeGracefulShutdown(t *testing.T) {
	eng, err := tagmatch.New(tagmatch.Config{
		Threads: 2, BatchSize: 4, BatchTimeout: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.AddSet([]string{"a"}, 1)
	if err := eng.Consolidate(); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: Handler(eng)}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, srv, ln, eng, 5*time.Second) }()
	base := "http://" + ln.Addr().String()

	// Some in-flight traffic, then the shutdown signal.
	for i := 0; i < 20; i++ {
		var match MatchResponse
		post(t, base+"/match", MatchRequest{Tags: []string{"a", "b"}}, &match)
		if match.Count != 1 {
			t.Fatalf("match %d = %+v", i, match)
		}
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}

	// Every accepted query drained before Serve returned.
	st := eng.Stats()
	if st.QueriesCompleted != st.QueriesSubmitted {
		t.Fatalf("undrained queries: submitted %d completed %d",
			st.QueriesSubmitted, st.QueriesCompleted)
	}
	// The listener is closed: new connections are refused.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestConsolidateDegradedReported checks the HTTP view of a CPU-only
// degrade: /consolidate answers 200 with the degradation noted, and
// /match keeps working.
func TestConsolidateDegradedReported(t *testing.T) {
	eng, err := tagmatch.New(tagmatch.Config{
		GPUs: 1, GPUMemBytes: 4096, Threads: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(eng))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	for i := 0; i < 2000; i++ {
		post(t, srv.URL+"/sets", SetRequest{Tags: []string{"t", string(rune('a' + i%26)), string(rune('A' + i%20))}, Key: tagmatch.Key(i)}, nil)
	}
	resp, err := http.Post(srv.URL+"/consolidate", "application/json",
		bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded consolidate → %d, want 200", resp.StatusCode)
	}
	var cons ConsolidateResponse
	if err := json.NewDecoder(resp.Body).Decode(&cons); err != nil {
		t.Fatal(err)
	}
	if cons.Degraded == "" {
		t.Fatalf("degradation not reported: %+v", cons)
	}
	var match MatchResponse
	post(t, srv.URL+"/match", MatchRequest{Tags: []string{"t", "a", "A", "z"}}, &match)
	if match.Count == 0 {
		t.Fatal("degraded engine answered no matches")
	}
}
