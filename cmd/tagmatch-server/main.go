// Command tagmatch-server exposes a TagMatch engine over HTTP — a small
// interactive deployment of the library ("integration of TagMatch within
// a full-fledged messaging system", the paper's future-work direction).
//
// Endpoints (JSON): POST/DELETE /sets (add/remove a set), POST
// /consolidate, /match, /match-unique; GET /stats, /debug/stats,
// /debug/timeline, /metrics (Prometheus text format), /healthz. See internal/httpserver for the request/response shapes and
// the metric catalogue.
//
// Updates are live by default: an added set matches on the very next
// query and a removed one disappears immediately, with a background
// consolidator folding the delta overlay into the GPU index once it
// outgrows -delta-max-sets / -delta-max-ratio. -no-live-updates reverts
// to the batch contract (updates invisible until POST /consolidate).
//
// The server shuts down gracefully on SIGINT/SIGTERM: the listener
// closes, in-flight HTTP requests finish (bounded by -shutdown-timeout),
// and the engine drains its in-flight queries before the process exits.
// With -max-inflight set, saturated /match requests answer 503 with a
// Retry-After header instead of queueing without bound.
//
// Usage:
//
//	tagmatch-server [-addr :8080] [-gpus 2] [-threads 4] [-exact]
//	                [-max-inflight 0] [-shutdown-timeout 10s]
//	                [-delta-max-sets 4096] [-delta-max-ratio 0.25]
//	                [-no-live-updates]
//	                [-trace 1000] [-stats-log 30s] [-pprof]
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // handlers exposed only with -pprof (see below)
	"os"
	"os/signal"
	"syscall"
	"time"

	"tagmatch"
	"tagmatch/internal/httpserver"
	"tagmatch/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	gpus := flag.Int("gpus", 2, "simulated GPUs")
	threads := flag.Int("threads", 4, "pipeline CPU threads")
	exact := flag.Bool("exact", false, "exact-verify matches (no Bloom false positives)")
	maxInflight := flag.Int("max-inflight", 0,
		"max submitted-but-incomplete queries before /match sheds with 503 (0 = unbounded)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second,
		"grace period for in-flight HTTP requests on SIGINT/SIGTERM")
	deltaMaxSets := flag.Int("delta-max-sets", 0,
		"overlay entries triggering background consolidation (0 = default 4096)")
	deltaMaxRatio := flag.Float64("delta-max-ratio", 0,
		"overlay-to-index ratio triggering background consolidation (0 = default 0.25)")
	noLiveUpdates := flag.Bool("no-live-updates", false,
		"disable the delta overlay: updates take effect only at POST /consolidate")
	trace := flag.Int("trace", 0, "sample one query in N for full pipeline tracing (0 = off)")
	statsLog := flag.Duration("stats-log", 30*time.Second,
		"interval between stats log lines (0 = off)")
	pprofFlag := flag.Bool("pprof", false,
		"expose net/http/pprof under /debug/pprof/ (CPU profiles carry stage/device goroutine labels)")
	flag.Parse()

	eng, err := tagmatch.New(tagmatch.Config{
		GPUs:               *gpus,
		Threads:            *threads,
		BatchTimeout:       50 * time.Millisecond,
		MaxInFlight:        *maxInflight,
		ExactVerify:        *exact,
		DeltaMaxSets:       *deltaMaxSets,
		DeltaMaxRatio:      *deltaMaxRatio,
		DisableLiveUpdates: *noLiveUpdates,
		TraceEvery:         *trace,
		Logger:             slog.Default(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	if *statsLog > 0 {
		go logStats(eng, *statsLog)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("tagmatch-server listening on %s (%d simulated GPUs, %d threads, exact=%v, max-inflight=%d, trace=1/%d)",
		ln.Addr(), *gpus, *threads, *exact, *maxInflight, *trace)
	handler := httpserver.Handler(eng)
	if *pprofFlag {
		// net/http/pprof registers on the default mux at import; expose
		// it only when asked, keeping the API mux as the fallback.
		root := http.NewServeMux()
		root.Handle("/debug/pprof/", http.DefaultServeMux)
		root.Handle("/", handler)
		handler = root
		log.Printf("pprof enabled at /debug/pprof/ (worker goroutines carry stage=/device= labels)")
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := httpserver.Serve(ctx, srv, ln, eng, *shutdownTimeout); err != nil {
		log.Fatal(err)
	}
	log.Printf("tagmatch-server: drained and stopped")
}

// logStats periodically emits a one-line digest: queries and batches
// since the previous line, plus stage p50/p99 latencies from the
// observability layer. Quiet intervals (no new queries) are skipped.
func logStats(eng *tagmatch.Engine, every time.Duration) {
	var lastQ, lastB int64
	for range time.Tick(every) {
		st := eng.Stats()
		dq, db := st.QueriesCompleted-lastQ, st.BatchesDispatched-lastB
		lastQ, lastB = st.QueriesCompleted, st.BatchesDispatched
		if dq == 0 && db == 0 {
			continue
		}
		var e2e, sm obs.StageSnapshot
		for _, s := range eng.Obs().Stages() {
			switch s.Stage {
			case obs.StageE2E:
				e2e = s
			case obs.StageSubsetMatch:
				sm = s
			}
		}
		log.Printf("stats: %.0f q/s, %d batches, e2e p50=%v p99=%v, subset_match p50=%v p99=%v, pairs=%d overflows=%d",
			float64(dq)/every.Seconds(), db,
			e2e.P50.Round(time.Microsecond), e2e.P99.Round(time.Microsecond),
			sm.P50.Round(time.Microsecond), sm.P99.Round(time.Microsecond),
			st.PairsProduced, st.ResultOverflows)
	}
}
