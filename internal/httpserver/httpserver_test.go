package httpserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tagmatch"
)

func newTestServer(t *testing.T) (*httptest.Server, *tagmatch.Engine) {
	t.Helper()
	eng, err := tagmatch.New(tagmatch.Config{GPUs: 1, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(eng))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return srv, eng
}

func post(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	return send(t, http.MethodPost, url, body, out)
}

// send makes a request with a JSON body and decodes a 200 answer into out.
func send(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestEndToEndFlow(t *testing.T) {
	srv, _ := newTestServer(t)

	var staged StagedResponse
	post(t, srv.URL+"/sets", SetRequest{Tags: []string{"go", "gpu"}, Key: 1}, &staged)
	post(t, srv.URL+"/sets", SetRequest{Tags: []string{"go"}, Key: 2}, &staged)
	if staged.Staged != 2 {
		t.Fatalf("staged = %d", staged.Staged)
	}

	var cons ConsolidateResponse
	post(t, srv.URL+"/consolidate", struct{}{}, &cons)
	if cons.Sets != 2 || cons.Keys != 2 {
		t.Fatalf("consolidate = %+v", cons)
	}

	var match MatchResponse
	post(t, srv.URL+"/match-unique", MatchRequest{Tags: []string{"go", "gpu", "x"}}, &match)
	keys := match.Keys
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if match.Count != 2 || keys[0] != 1 || keys[1] != 2 {
		t.Fatalf("match = %+v", match)
	}
	if match.Elapsed == "" {
		t.Fatal("elapsed missing")
	}
}

func TestRemoveFlow(t *testing.T) {
	srv, _ := newTestServer(t)
	post(t, srv.URL+"/sets", SetRequest{Tags: []string{"a"}, Key: 1}, nil)
	post(t, srv.URL+"/sets", SetRequest{Tags: []string{"a"}, Key: 2}, nil)
	post(t, srv.URL+"/consolidate", struct{}{}, nil)
	send(t, http.MethodDelete, srv.URL+"/sets", SetRequest{Tags: []string{"a"}, Key: 1}, nil)
	post(t, srv.URL+"/consolidate", struct{}{}, nil)

	var match MatchResponse
	post(t, srv.URL+"/match", MatchRequest{Tags: []string{"a", "b"}}, &match)
	if match.Count != 1 || match.Keys[0] != 2 {
		t.Fatalf("after removal: %+v", match)
	}
}

// TestLiveSetsEndpoints drives the RESTful live-update face: POST /sets
// is matchable on the very next query with no consolidate in between,
// and DELETE /sets suppresses the association immediately.
func TestLiveSetsEndpoints(t *testing.T) {
	srv, _ := newTestServer(t)

	var staged StagedResponse
	post(t, srv.URL+"/sets", SetRequest{Tags: []string{"live"}, Key: 9}, &staged)
	if staged.Staged != 1 {
		t.Fatalf("staged = %d, want 1", staged.Staged)
	}
	var match MatchResponse
	post(t, srv.URL+"/match", MatchRequest{Tags: []string{"live", "x"}}, &match)
	if match.Count != 1 || match.Keys[0] != 9 {
		t.Fatalf("staged add not live: %+v", match)
	}

	if resp := send(t, http.MethodDelete, srv.URL+"/sets", SetRequest{Tags: []string{"live"}, Key: 9}, &staged); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /sets → %d", resp.StatusCode)
	}
	post(t, srv.URL+"/match", MatchRequest{Tags: []string{"live", "x"}}, &match)
	if match.Count != 0 {
		t.Fatalf("removed association still live: %+v", match)
	}
}

func TestEmptyResultIsJSONArray(t *testing.T) {
	srv, _ := newTestServer(t)
	post(t, srv.URL+"/consolidate", struct{}{}, nil)
	resp, err := http.Post(srv.URL+"/match", "application/json",
		bytes.NewReader([]byte(`{"tags":["nothing"]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"keys":[]`)) {
		t.Fatalf("empty keys should serialize as []: %s", buf.String())
	}
}

func TestBadRequests(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL+"/match", "application/json",
		bytes.NewReader([]byte(`{not json`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body → %d, want 400", resp.StatusCode)
	}
	// Wrong method.
	getResp, err := http.Get(srv.URL + "/match")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /match → %d, want 405", getResp.StatusCode)
	}
	// Sets are added and removed through /sets alone.
	for _, path := range []string{"/add", "/remove"} {
		if resp := post(t, srv.URL+path, SetRequest{Tags: []string{"a"}, Key: 1}, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s → %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestRequestLimits: every route that decodes a body refuses one over
// 1 MiB with 413 and a tag list over 4,096 with 400 — and stages or
// matches nothing — while a request at both limits' edge goes through.
func TestRequestLimits(t *testing.T) {
	srv, eng := newTestServer(t)
	tagsBody := func(n int) []byte {
		tags := make([]string, n)
		for i := range tags {
			tags[i] = "t" + strconv.Itoa(i)
		}
		raw, err := json.Marshal(SetRequest{Tags: tags, Key: 7})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	// A syntactically valid body that only ends past the limit, so the
	// refusal comes from the size cap and not from the JSON decoder.
	huge := []byte(`{"tags":["` + strings.Repeat("x", maxBodyBytes) + `"]}`)
	routes := []struct{ method, path string }{
		{"POST", "/sets"}, {"DELETE", "/sets"},
		{"POST", "/match"}, {"POST", "/match-unique"},
	}
	for _, rt := range routes {
		for _, c := range []struct {
			name string
			body []byte
			want int
		}{
			{"body over 1 MiB", huge, http.StatusRequestEntityTooLarge},
			{"4097 tags", tagsBody(maxTags + 1), http.StatusBadRequest},
			{"4096 tags", tagsBody(maxTags), http.StatusOK},
		} {
			staged := eng.PendingOps()
			req, err := http.NewRequest(rt.method, srv.URL+rt.path, bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s, %s: %v", rt.method, rt.path, c.name, err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("%s %s, %s → %d, want %d", rt.method, rt.path, c.name, resp.StatusCode, c.want)
			}
			if c.want != http.StatusOK && eng.PendingOps() != staged {
				t.Errorf("%s %s, %s: a refused request staged an operation", rt.method, rt.path, c.name)
			}
		}
	}
}

func TestStatsAndHealth(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st tagmatch.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	h, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz → %d", h.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	post(t, srv.URL+"/sets", SetRequest{Tags: []string{"m"}, Key: 7}, nil)
	post(t, srv.URL+"/consolidate", struct{}{}, nil)
	post(t, srv.URL+"/match", MatchRequest{Tags: []string{"m", "x"}}, nil)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"# TYPE tagmatch_queries_submitted_total counter",
		"tagmatch_queries_submitted_total 1",
		"tagmatch_queries_completed_total 1",
		"tagmatch_db_sets 1",
		`tagmatch_stage_busy_seconds_total{stage="preprocess"}`,
		`tagmatch_device_kernel_launches_total{device="sim-gpu-0"}`,
		`tagmatch_stage_duration_seconds_bucket{stage="e2e",le="+Inf"} 1`,
		`tagmatch_stage_duration_seconds_count{stage="e2e"} 1`,
		"tagmatch_batch_occupancy_queries_count 1",
		`tagmatch_partition_queries_routed_total{partition="0"} 1`,
		`tagmatch_queue_depth{queue="input"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestDebugStatsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	post(t, srv.URL+"/sets", SetRequest{Tags: []string{"d"}, Key: 1}, nil)
	post(t, srv.URL+"/consolidate", struct{}{}, nil)
	post(t, srv.URL+"/match", MatchRequest{Tags: []string{"d", "y"}}, nil)

	resp, err := http.Get(srv.URL + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ds DebugStats
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	if ds.Stats.QueriesCompleted != 1 {
		t.Fatalf("stats = %+v", ds.Stats)
	}
	if len(ds.Obs.Stages) != 5 {
		t.Fatalf("obs stages = %d, want 5", len(ds.Obs.Stages))
	}
	found := false
	for _, st := range ds.Obs.Stages {
		if st.Stage == "e2e" && st.Count == 1 && st.P99 > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no populated e2e stage: %+v", ds.Obs.Stages)
	}
	if len(ds.Obs.Partitions) == 0 {
		t.Fatal("debug stats should include all partitions")
	}
	if len(ds.Devices) != 1 || ds.Devices[0].Name != "sim-gpu-0" {
		t.Fatalf("devices = %+v", ds.Devices)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := newTestServer(t)
	for i := 0; i < 50; i++ {
		post(t, srv.URL+"/sets", SetRequest{Tags: []string{"common"}, Key: tagmatch.Key(i)}, nil)
	}
	post(t, srv.URL+"/consolidate", struct{}{}, nil)

	done := make(chan int, 16)
	for g := 0; g < 16; g++ {
		go func() {
			var match MatchResponse
			post(t, srv.URL+"/match", MatchRequest{Tags: []string{"common", "x"}}, &match)
			done <- match.Count
		}()
	}
	for g := 0; g < 16; g++ {
		if n := <-done; n != 50 {
			t.Fatalf("concurrent match returned %d keys, want 50", n)
		}
	}
}
