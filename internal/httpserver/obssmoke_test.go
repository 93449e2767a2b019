package httpserver

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tagmatch"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// TestObsSmoke is the `make obs-smoke` target: boot a server with
// tracing on, push traffic through it, and assert the observability
// export surfaces are well-formed — /metrics parses as Prometheus text
// exposition (and carries the GPU utilization/overlap/op-latency
// families), /debug/timeline parses as a Chrome trace-event file with
// per-stream device-op slices, /debug/stats carries the latency
// attribution table with exemplar trace ids — and that they agree with
// the metric declarations: each family once, every histogram's _count
// equal to its +Inf bucket, every declared series on /metrics and
// /debug/stats, and every Stats field a declaration backs equal to its
// /metrics sample after a drain.
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
		post(t, srv.URL+"/sets", SetRequest{
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
		// One subset-match kernel: the scalar flavor's series is gone.
		if !strings.Contains(body, `tagmatch_kernel_batches_total{flavor="sliced"}`) {
			t.Error("kernel batches series missing")
		}
		if strings.Contains(body, `tagmatch_kernel_batches_total{flavor="scalar"}`) {
			t.Error("the scalar kernel's batches series is still exported")
		}
		// One routing lookup: the scalar flavor's series is gone too.
		if !strings.Contains(body, `tagmatch_routing_queries_total{flavor="sliced"}`) {
			t.Error("routing queries series missing")
		}
		if strings.Contains(body, `tagmatch_routing_queries_total{flavor="scalar"}`) {
			t.Error("the scalar routing series is still exported")
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
		m := debugMetrics(t, srv.URL)
		var segs, wait obs.HistSnapshot
		for key, h := range map[string]*obs.HistSnapshot{"segments_dispatched": &segs, "stream_acquire_wait_ns": &wait} {
			if err := json.Unmarshal(m[key], h); err != nil {
				t.Fatalf("metrics.%s: %v", key, err)
			}
		}
		if segs.Count == 0 || wait.Count < segs.Count {
			t.Errorf("segments-per-batch (%d) / stream-acquire-wait (%d) histograms not recorded",
				segs.Count, wait.Count)
		}
		if s := ds.Stats; s.SegmentsDispatched < s.BatchesDispatched || s.BatchesDispatched == 0 {
			t.Errorf("stats: %d segments in %d dispatched batches", s.SegmentsDispatched, s.BatchesDispatched)
		}
		// The kernel's gate counters reach both sections: pairs decided,
		// and the three-word tests that took.
		if s := ds.Stats; s.KernelGateTests == 0 || s.KernelGateChecks == 0 ||
			ds.Obs.Metrics["kernel_gate_tests"] != float64(s.KernelGateTests) ||
			ds.Obs.Metrics["kernel_gate_checks"] != float64(s.KernelGateChecks) {
			t.Errorf("gate counters: stats %d tests / %d checks, obs.metrics %v / %v",
				s.KernelGateTests, s.KernelGateChecks, ds.Obs.Metrics["kernel_gate_tests"], ds.Obs.Metrics["kernel_gate_checks"])
		}
	})

	t.Run("streams", func(t *testing.T) {
		raw := get(t, srv.URL+"/debug/stats")
		var ds DebugStats
		if err := json.Unmarshal([]byte(raw), &ds); err != nil {
			t.Fatalf("/debug/stats is not valid JSON: %v", err)
		}
		// The upload accounting is exported, and the window, occupancy,
		// scalar kernel and scalar routing keys are gone.
		var sections struct {
			Stats map[string]json.RawMessage `json:"stats"`
		}
		if err := json.Unmarshal([]byte(raw), &sections); err != nil {
			t.Fatal(err)
		}
		m := ds.Obs.Metrics
		for _, gone := range []string{"window_hits", "window_misses", "window_evictions", "window_fallbacks", "pipelined_dispatches", "slot_occupancy", "kernel_scalar", "scalar_batches", "routed_scalar", "scalar_queries"} {
			if _, ok := m[gone]; ok {
				t.Errorf("obs.metrics still carries %q", gone)
			}
		}
		for _, gone := range []string{"kernel_scalar", "routed_scalar"} {
			if _, ok := sections.Stats[gone]; ok {
				t.Errorf("stats still carries %q", gone)
			}
		}
		if _, ok := m["routed_sliced"]; !ok {
			t.Error("obs.metrics lacks routed_sliced")
		}
		if ds.Stats.QuerySlots == 0 || ds.Stats.H2DQueryBytes == 0 {
			t.Errorf("stream byte accounting empty: slots=%d bytes=%d",
				ds.Stats.QuerySlots, ds.Stats.H2DQueryBytes)
		}
		if m["query_slots"] != float64(ds.Stats.QuerySlots) {
			t.Errorf("obs metrics (%v) and stats (%d) disagree on query slots",
				m["query_slots"], ds.Stats.QuerySlots)
		}
	})

	// The registry: every declared series is exported once on each
	// surface, and Stats reads what /metrics reads.
	t.Run("registry", func(t *testing.T) {
		eng.Drain()
		samples := promSamples(t, get(t, srv.URL+"/metrics"))
		m := debugMetrics(t, srv.URL)
		decls := eng.Obs().Metrics()
		for _, d := range decls {
			series := d.Name + d.Labels.String()
			if d.Kind == "histogram" {
				series = d.Name + "_count" + d.Labels.String()
			}
			if _, ok := samples[series]; !ok {
				t.Errorf("declared %s has no /metrics sample", series)
			}
			if _, ok := m[d.Key]; !ok {
				t.Errorf("declared %s (key %q) missing from /debug/stats", series, d.Key)
			}
		}
		// Each device's and each partition's declared series, on /metrics
		// and in their /debug/stats sections.
		var doc struct {
			Devices []struct {
				Stats  map[string]json.RawMessage `json:"stats"`
				Gauges map[string]json.RawMessage `json:"gauges"`
			} `json:"devices"`
			Obs struct {
				Partitions []map[string]json.RawMessage `json:"partitions"`
			} `json:"obs"`
		}
		if err := json.Unmarshal([]byte(get(t, srv.URL+"/debug/stats")), &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Devices) != 1 || len(doc.Obs.Partitions) == 0 {
			t.Fatalf("/debug/stats: %d devices, %d partitions", len(doc.Devices), len(doc.Obs.Partitions))
		}
		for _, lv := range []struct {
			v       any
			label   string
			section map[string]json.RawMessage
		}{
			{gpu.Stats{}, `{device="sim-gpu-0"}`, doc.Devices[0].Stats},
			{obs.DeviceGauges{}, `{device="sim-gpu-0"}`, doc.Devices[0].Gauges},
			{obs.PartitionSnapshot{}, `{partition="0"}`, doc.Obs.Partitions[0]},
		} {
			rt := reflect.TypeOf(lv.v)
			for i := 0; i < rt.NumField(); i++ {
				f := rt.Field(i)
				name := f.Tag.Get("prom")
				if name == "" {
					continue
				}
				if _, ok := samples[name+lv.label]; !ok {
					t.Errorf("declared %s has no /metrics sample%s", name, lv.label)
				}
				key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				if key == "" {
					key = f.Name
				}
				if _, ok := lv.section[key]; !ok {
					t.Errorf("declared %s (%s) missing from /debug/stats", name, key)
				}
			}
		}
		// After the drain, every Stats field backed by a declaration
		// equals its /metrics sample: a counter's or gauge's value, or a
		// histogram's sum.
		byKey := map[string]obs.Desc{}
		for _, d := range decls {
			byKey[d.Key] = d
		}
		st := reflect.ValueOf(eng.Stats())
		backed := 0
		for i := 0; i < st.NumField(); i++ {
			key, _, _ := strings.Cut(st.Type().Field(i).Tag.Get("json"), ",")
			d, ok := byKey[key]
			if !ok {
				continue
			}
			backed++
			series := d.Name + d.Labels.String()
			if d.Kind == "histogram" {
				series = d.Name + "_sum" + d.Labels.String()
			}
			if want := float64(st.Field(i).Int()) * d.Scale; samples[series] != want {
				t.Errorf("Stats.%s = %v, /metrics %s = %v", st.Type().Field(i).Name, want, series, samples[series])
			}
		}
		if backed < 47 {
			t.Errorf("only %d Stats fields are backed by a declaration", backed)
		}
	})
}

// debugMetrics returns /debug/stats' obs.metrics section, raw.
func debugMetrics(t *testing.T, url string) map[string]json.RawMessage {
	t.Helper()
	var doc struct {
		Obs struct {
			Metrics map[string]json.RawMessage `json:"metrics"`
		} `json:"obs"`
	}
	if err := json.Unmarshal([]byte(get(t, url+"/debug/stats")), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Obs.Metrics) == 0 {
		t.Fatal("/debug/stats has no obs.metrics section")
	}
	return doc.Obs.Metrics
}

// promSamples validates an exposition (validatePromExposition) and
// returns its samples by `name{labels}` as printed. Every histogram's
// _count must equal its +Inf bucket.
func promSamples(t *testing.T, body string) map[string]float64 {
	t.Helper()
	validatePromExposition(t, body)
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if m := promSampleRe.FindStringSubmatch(line); m != nil {
			v, _ := strconv.ParseFloat(m[3], 64)
			out[m[1]+m[2]] = v
		}
	}
	for series, v := range out {
		name, labels, ok := strings.Cut(series, "_bucket{")
		if !ok || !strings.HasSuffix(labels, `le="+Inf"}`) {
			continue
		}
		labels = strings.TrimSuffix(strings.TrimSuffix(labels, `le="+Inf"}`), ",")
		count := name + "_count"
		if labels != "" {
			count += "{" + labels + "}"
		}
		if c, ok := out[count]; !ok || c != v {
			t.Errorf("%s = %v, +Inf bucket %v", count, c, v)
		}
	}
	return out
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
// line — every line is a HELP/TYPE header, once per family, or a sample
// whose value parses as a float and whose family was declared by a
// preceding TYPE — and returns the declared family names.
func validatePromExposition(t *testing.T, body string) map[string]bool {
	t.Helper()
	families := map[string]bool{}
	helps := map[string]bool{}
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if m := promTypeRe.FindStringSubmatch(line); m != nil {
				if families[m[1]] {
					t.Fatalf("line %d: family %s declared twice", i+1, m[1])
				}
				families[m[1]] = true
				continue
			}
			if m := promHelpRe.FindStringSubmatch(line); m != nil {
				if helps[m[1]] {
					t.Fatalf("line %d: second # HELP for %s", i+1, m[1])
				}
				helps[m[1]] = true
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
