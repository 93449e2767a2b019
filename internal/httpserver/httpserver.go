// Package httpserver exposes a TagMatch engine over HTTP — the service
// face of the library, toward the paper's future-work goal of embedding
// TagMatch in a full messaging system. cmd/tagmatch-server is a thin
// wrapper around this package.
//
// Endpoints (JSON bodies):
//
//	POST   /sets         {"tags": ["a","b"], "key": 42}  add a (set, key) association
//	DELETE /sets         {"tags": ["a","b"], "key": 42}  remove one
//	POST   /consolidate  {}
//	POST   /match        {"tags": ["a","b","c"], "timeout_ms": 50}
//	POST   /match-unique {"tags": ["a","b","c"], "timeout_ms": 50}
//	GET    /stats        cumulative engine counters (JSON, snake_case keys)
//	GET    /debug/stats  stats + stage histograms, per-partition counters,
//	                     gauges, recent traces, latency attribution with
//	                     exemplar trace ids, per-device counters (JSON)
//	GET    /debug/timeline  sampled traces + device op logs as a Chrome
//	                     trace-event file (load in Perfetto); ?trace=<id>
//	                     restricts to one sampled query
//	GET    /metrics      Prometheus text exposition (format 0.0.4)
//	GET    /healthz
//
// Adds and removes are match-visible immediately (the engine's delta
// overlay); POST /consolidate remains available to force a synchronous
// fold of staged operations into the partitioned index, which otherwise
// happens in the background once the overlay outgrows its threshold.
//
// When the engine's MaxInFlight admission gate sheds a query, /match and
// /match-unique answer 503 Service Unavailable with a Retry-After
// header; clients should back off and retry. A query that misses its
// timeout_ms budget — or whose client disconnects — answers 504 Gateway
// Timeout instead, counted separately (tagmatch_http_timeouts_total) so
// dashboards distinguish tail latency from load shedding.
//
// Request bodies are limited to 1 MiB (413 Request Entity Too Large
// beyond it) and a set or a query to 4,096 tags (400 Bad Request).
//
// The /metrics endpoint exports every metric declared in internal/obs:
// engine counters as tagmatch_*_total, database shape and memory as
// gauges, per-stage latency histograms labeled {stage=...}, per-device
// series labeled {device=...}, and the hottest partitions' counters
// labeled {partition=...} (capped to keep series cardinality bounded;
// the JSON /debug/stats carries every partition). /debug/stats carries
// the same metrics by their JSON keys, and /stats the engine's Stats,
// derived from them.
package httpserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"tagmatch"
	"tagmatch/internal/obs"
)

// SetRequest stages an addition or removal.
type SetRequest struct {
	Tags []string     `json:"tags"`
	Key  tagmatch.Key `json:"key"`
}

// MatchRequest carries a query. TimeoutMs, when positive, bounds the
// query's end-to-end time inside the engine: past it the request is
// answered 504 and the query is expired at the next stage boundary
// instead of occupying a device. The client disconnecting has the same
// effect (the request context propagates into the engine either way).
type MatchRequest struct {
	Tags      []string `json:"tags"`
	TimeoutMs int      `json:"timeout_ms,omitempty"`
}

// MatchResponse carries a query result.
type MatchResponse struct {
	Keys    []tagmatch.Key `json:"keys"`
	Count   int            `json:"count"`
	Elapsed string         `json:"elapsed"`
}

// ConsolidateResponse reports the index shape after a rebuild. Degraded
// is non-empty when the rebuild succeeded but the device upload failed
// and the engine is running CPU-only (tagmatch.ErrDeviceDegraded).
type ConsolidateResponse struct {
	Sets       int    `json:"sets"`
	Partitions int    `json:"partitions"`
	Keys       int    `json:"keys"`
	Elapsed    string `json:"elapsed"`
	Degraded   string `json:"degraded,omitempty"`
}

// StagedResponse reports the staging backlog after add/remove.
type StagedResponse struct {
	Staged int `json:"staged"`
}

// Handler builds the HTTP handler for an engine. The caller owns the
// engine's lifecycle.
func Handler(eng *tagmatch.Engine) http.Handler {
	mux := http.NewServeMux()
	// POST adds an association, DELETE removes one — both visible on the
	// very next query through the delta overlay.
	mux.HandleFunc("POST /sets", func(w http.ResponseWriter, r *http.Request) {
		var req SetRequest
		if !decode(w, r, &req, &req.Tags) {
			return
		}
		eng.AddSet(req.Tags, req.Key)
		writeJSON(w, StagedResponse{Staged: eng.PendingOps()})
	})
	mux.HandleFunc("DELETE /sets", func(w http.ResponseWriter, r *http.Request) {
		var req SetRequest
		if !decode(w, r, &req, &req.Tags) {
			return
		}
		eng.RemoveSet(req.Tags, req.Key)
		writeJSON(w, StagedResponse{Staged: eng.PendingOps()})
	})
	mux.HandleFunc("POST /consolidate", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		resp := ConsolidateResponse{}
		if err := eng.Consolidate(); err != nil {
			if !errors.Is(err, tagmatch.ErrDeviceDegraded) {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			// The index was installed CPU-only; report success with the
			// degradation, mirroring the engine's own semantics.
			resp.Degraded = err.Error()
		}
		st := eng.Stats()
		resp.Sets, resp.Partitions, resp.Keys = st.UniqueSets, st.Partitions, st.Keys
		resp.Elapsed = time.Since(start).String()
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST /match", matchHandler(eng, false))
	mux.HandleFunc("POST /match-unique", matchHandler(eng, true))
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, eng.Stats())
	})
	mux.HandleFunc("GET /debug/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, DebugStats{
			Stats:   eng.Stats(),
			Obs:     eng.Obs().Snapshot(true),
			Devices: eng.DeviceStats(),
		})
	})
	mux.HandleFunc("GET /debug/timeline", timelineHandler(eng))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		eng.Obs().WriteProm(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// DebugStats is the GET /debug/stats response: the cumulative counters,
// the full observability snapshot (all partitions, recent traces), and
// per-device activity.
type DebugStats struct {
	Stats   tagmatch.Stats        `json:"stats"`
	Obs     obs.Snapshot          `json:"obs"`
	Devices []tagmatch.DeviceStat `json:"devices,omitempty"`
}

func matchHandler(eng *tagmatch.Engine, unique bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req MatchRequest
		if !decode(w, r, &req, &req.Tags) {
			return
		}
		start := time.Now()
		// The request context propagates into the engine: a client
		// deadline (TimeoutMs) or disconnect expires the query at the
		// next stage boundary instead of letting it occupy a device.
		ctx := r.Context()
		if req.TimeoutMs > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
			defer cancel()
		}
		var keys []tagmatch.Key
		var err error
		if unique {
			keys, err = eng.MatchUniqueCtx(ctx, req.Tags)
		} else {
			keys, err = eng.MatchCtx(ctx, req.Tags)
		}
		if err != nil {
			if errors.Is(err, tagmatch.ErrOverloaded) {
				// Load shed by the admission gate: tell the client to back
				// off and retry rather than reporting a server fault.
				w.Header().Set("Retry-After", "1")
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			if errors.Is(err, tagmatch.ErrDeadlineExceeded) ||
				errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				// Deadline or cancellation, not a server fault: a distinct
				// status and counter so dashboards separate tail latency
				// from breakage.
				eng.Obs().Faults.HTTPTimeouts.Add(1)
				http.Error(w, err.Error(), http.StatusGatewayTimeout)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if keys == nil {
			keys = []tagmatch.Key{}
		}
		writeJSON(w, MatchResponse{Keys: keys, Count: len(keys), Elapsed: time.Since(start).String()})
	}
}

// Serve runs srv on ln until ctx is cancelled (cmd/tagmatch-server wires
// ctx to SIGINT/SIGTERM), then shuts down gracefully: the listener stops
// accepting, in-flight HTTP requests get up to timeout to complete, and
// the engine drains its in-flight queries so no accepted work is lost.
// It returns nil after a clean shutdown, or the first serve/shutdown
// error otherwise.
func Serve(ctx context.Context, srv *http.Server, ln net.Listener, eng *tagmatch.Engine, timeout time.Duration) error {
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err // serve failed before any shutdown request
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := srv.Shutdown(sctx)
	if errors.Is(err, context.DeadlineExceeded) {
		// Stragglers were cut off; their engine queries still drain below.
		err = nil
	}
	eng.Drain()
	if serveErr := <-errCh; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// Limits on what a client may send: the body a handler will read, and
// the tags of one set or query (a query's cost grows with its tags, and a
// signature of bitvec.W bits is saturated long before this many).
const (
	maxBodyBytes = 1 << 20
	maxTags      = 4096
)

// decode reads the request's JSON body into v, whose tag list is *tags.
// It answers 413 for a body over maxBodyBytes, 400 for malformed JSON or
// more than maxTags tags, and reports whether the handler may go on.
func decode(w http.ResponseWriter, r *http.Request, v any, tags *[]string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes), http.StatusRequestEntityTooLarge)
	case err != nil:
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
	case len(*tags) > maxTags:
		http.Error(w, fmt.Sprintf("bad request: %d tags, at most %d allowed", len(*tags), maxTags), http.StatusBadRequest)
	default:
		return true
	}
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("httpserver: encoding response: %v", err)
	}
}
