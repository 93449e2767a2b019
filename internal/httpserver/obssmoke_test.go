package httpserver

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tagmatch"
)

// TestObsSmoke is the `make obs-smoke` target: boot a server with
// tracing on, push traffic through it, and assert the two observability
// export surfaces are well-formed — /metrics parses as Prometheus text
// exposition (and carries the GPU utilization/overlap/op-latency
// families), /debug/timeline parses as a Chrome trace-event file with
// per-stream device-op slices, and /debug/stats carries the latency
// attribution table with exemplar trace ids.
func TestObsSmoke(t *testing.T) {
	eng, err := tagmatch.New(tagmatch.Config{GPUs: 1, Threads: 2, TraceEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(eng))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})

	for i := 0; i < 40; i++ {
		post(t, srv.URL+"/add", SetRequest{
			Tags: []string{"a", fmt.Sprintf("t%d", i%10)}, Key: tagmatch.Key(i),
		}, nil)
	}
	post(t, srv.URL+"/consolidate", struct{}{}, nil)
	for i := 0; i < 25; i++ {
		var mr MatchResponse
		post(t, srv.URL+"/match", MatchRequest{
			Tags: []string{"a", fmt.Sprintf("t%d", i%10), "x"},
		}, &mr)
	}

	t.Run("metrics", func(t *testing.T) {
		body := get(t, srv.URL+"/metrics")
		families := validatePromExposition(t, body)
		for _, want := range []string{
			"tagmatch_gpu_overlap_fraction",
			"tagmatch_gpu_utilization",
			"tagmatch_gpu_stream_queue_depth",
			"tagmatch_gpu_op_duration_seconds",
			"tagmatch_queue_wait_seconds",
			"tagmatch_stage_duration_seconds",
			"tagmatch_h2d_query_bytes_per_query",
			"tagmatch_batch_segments",
			"tagmatch_stream_acquire_wait_seconds",
			"tagmatch_pipeline_overlap_fraction",
			"tagmatch_routed_log_entries",
			"tagmatch_kernel_gate_checks_total",
			"tagmatch_kernel_gate_tests_total",
		} {
			if !families[want] {
				t.Errorf("metric family %q missing from /metrics", want)
			}
		}
		// The query window, the second slot per stream and the
		// per-partition open batches are gone, and their families with them.
		for _, gone := range []string{
			"tagmatch_dirty_partitions",
			"tagmatch_query_window_lookups_total",
			"tagmatch_query_window_evictions_total",
			"tagmatch_query_window_fallbacks_total",
			"tagmatch_pipelined_dispatches_total",
			"tagmatch_stream_slot_occupancy",
		} {
			if families[gone] {
				t.Errorf("metric family %q still exported", gone)
			}
		}
		if !strings.Contains(body, `tagmatch_gpu_utilization{device="sim-gpu-0"}`) {
			t.Error("per-device utilization sample missing")
		}
		if !strings.Contains(body, `tagmatch_gpu_op_duration_seconds_bucket{op="kernel",phase="service"`) {
			t.Error("per-op-kind latency histogram missing")
		}
	})

	t.Run("timeline", func(t *testing.T) {
		var doc struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				TS   float64 `json:"ts"`
				Dur  float64 `json:"dur"`
				PID  int     `json:"pid"`
				TID  int     `json:"tid"`
			} `json:"traceEvents"`
			DisplayTimeUnit string `json:"displayTimeUnit"`
		}
		if err := json.Unmarshal([]byte(get(t, srv.URL+"/debug/timeline")), &doc); err != nil {
			t.Fatalf("timeline is not valid JSON: %v", err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Fatal("timeline has no events")
		}
		names := map[string]bool{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "X" && ev.Ph != "M" {
				t.Fatalf("unexpected event phase %q: %+v", ev.Ph, ev)
			}
			if ev.Ph == "X" && (ev.TS < 0 || ev.Dur < 0) {
				t.Fatalf("negative timestamp or duration: %+v", ev)
			}
			names[ev.Name] = true
		}
		for _, want := range []string{
			"query", "preprocess", "subset_match", "h2d", "kernel", "d2h",
		} {
			if !names[want] {
				t.Errorf("timeline missing %q spans; have %v", want, names)
			}
		}
	})

	t.Run("attribution", func(t *testing.T) {
		var ds DebugStats
		if err := json.Unmarshal([]byte(get(t, srv.URL+"/debug/stats")), &ds); err != nil {
			t.Fatalf("/debug/stats is not valid JSON: %v", err)
		}
		if len(ds.Obs.Attribution) == 0 {
			t.Fatal("no attribution components in /debug/stats")
		}
		stages := map[string]bool{}
		var exemplared int
		for _, c := range ds.Obs.Attribution {
			stages[c.Stage] = true
			if c.ExemplarTraceID != 0 {
				exemplared++
			}
		}
		for _, want := range []string{"preprocess", "gpu_kernel", "reduce", "merge"} {
			if !stages[want] {
				t.Errorf("attribution missing stage %q; have %v", want, stages)
			}
		}
		if exemplared == 0 {
			t.Error("no attribution component carries an exemplar trace id")
		}
		if len(ds.Obs.Exemplars) == 0 {
			t.Error("no latency exemplars in /debug/stats")
		}
		// The batching mechanism's own counters: a dispatched batch has at
		// least one segment, and every dispatch attempt acquires a slot.
		if st := ds.Obs.Streams; st.SegmentsPerBatch.Count == 0 || st.AcquireWait.Count < st.SegmentsPerBatch.Count {
			t.Errorf("segments-per-batch (%d) / stream-acquire-wait (%d) histograms not recorded",
				st.SegmentsPerBatch.Count, st.AcquireWait.Count)
		}
		if s := ds.Stats; s.SegmentsDispatched < s.BatchesDispatched || s.BatchesDispatched == 0 {
			t.Errorf("stats: %d segments in %d dispatched batches", s.SegmentsDispatched, s.BatchesDispatched)
		}
		// The kernel's gate counters reach both sections: pairs decided,
		// and the three-word tests that took.
		if s, k := ds.Stats, ds.Obs.Kernel; s.KernelGateTests == 0 || s.KernelGateChecks == 0 ||
			k.GateTests != s.KernelGateTests || k.GateChecks != s.KernelGateChecks {
			t.Errorf("gate counters: stats %d tests / %d checks, obs.kernel %d / %d",
				s.KernelGateTests, s.KernelGateChecks, k.GateTests, k.GateChecks)
		}
	})

	t.Run("streams", func(t *testing.T) {
		raw := get(t, srv.URL+"/debug/stats")
		var ds DebugStats
		if err := json.Unmarshal([]byte(raw), &ds); err != nil {
			t.Fatalf("/debug/stats is not valid JSON: %v", err)
		}
		// The stream section carries the upload accounting and the two
		// batching histograms, and no longer the window or occupancy keys.
		var sections struct {
			Obs struct {
				Streams map[string]json.RawMessage `json:"streams"`
			} `json:"obs"`
		}
		if err := json.Unmarshal([]byte(raw), &sections); err != nil {
			t.Fatal(err)
		}
		for _, gone := range []string{"window_hits", "window_misses", "window_evictions", "window_fallbacks", "pipelined_dispatches", "slot_occupancy"} {
			if _, ok := sections.Obs.Streams[gone]; ok {
				t.Errorf("obs.streams still carries %q", gone)
			}
		}
		if ds.Stats.QuerySlots == 0 || ds.Stats.H2DQueryBytes == 0 {
			t.Errorf("stream byte accounting empty: slots=%d bytes=%d",
				ds.Stats.QuerySlots, ds.Stats.H2DQueryBytes)
		}
		if ds.Obs.Streams.QuerySlots != ds.Stats.QuerySlots {
			t.Errorf("obs snapshot (%d) and stats mirror (%d) disagree on query slots",
				ds.Obs.Streams.QuerySlots, ds.Stats.QuerySlots)
		}
	})
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

var (
	promHelpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$`)
)

// validatePromExposition checks text-format structural validity line by
// line — every line is a HELP/TYPE header or a sample whose value parses
// as a float and whose family was declared by a preceding TYPE — and
// returns the declared family names.
func validatePromExposition(t *testing.T, body string) map[string]bool {
	t.Helper()
	families := map[string]bool{}
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if m := promTypeRe.FindStringSubmatch(line); m != nil {
				families[m[1]] = true
				continue
			}
			if promHelpRe.MatchString(line) {
				continue
			}
			t.Fatalf("line %d: malformed comment %q", i+1, line)
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample %q", i+1, line)
		}
		name := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); families[base] {
				name = base
				break
			}
		}
		if !families[name] {
			t.Fatalf("line %d: sample %q precedes its # TYPE header", i+1, m[1])
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", i+1, m[3], err)
		}
	}
	if len(families) == 0 {
		t.Fatal("no metric families found")
	}
	return families
}
