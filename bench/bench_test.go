package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

const manifestPath = "../BENCHMARK.json"

// emitted parses the text tables: per "## workload" section, how often
// each metric name was printed and with which unit.
func emitted(t *testing.T, out string) map[string]map[string][]string {
	t.Helper()
	sections := map[string]map[string][]string{}
	var cur map[string][]string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "##" {
			cur = map[string][]string{}
			sections[strings.TrimSuffix(f[1], ":")] = cur
			continue
		}
		if cur == nil || len(f) < 3 {
			continue
		}
		if _, err := strconv.ParseFloat(f[1], 64); err != nil {
			continue // a header line
		}
		cur[f[0]] = append(cur[f[0]], f[2])
	}
	return sections
}

// TestSmoke runs every workload with both phases at the smoke scale and
// holds the output to BENCHMARK.json: each declared metric once per
// workload with its declared unit, nothing undeclared, the oracle passed.
func TestSmoke(t *testing.T) {
	mf, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	var stdout bytes.Buffer
	o := options{manifest: manifestPath, seed: 1, repeat: 1, smoke: true, outDir: out}
	if err := o.run(&stdout, io.Discard); err != nil {
		t.Fatalf("bench -smoke: %v\n%s", err, stdout.String())
	}

	sections := emitted(t, stdout.String())
	decls := append(append([]metricDecl{}, mf.EndToEnd...), mf.PerLayer...)
	for _, w := range mf.Workloads {
		got := sections[w.Name]
		if got == nil {
			t.Fatalf("workload %s was not printed", w.Name)
		}
		for _, d := range decls {
			if !metricName.MatchString(d.Name) {
				t.Errorf("declared name %q is malformed", d.Name)
			}
			if units := got[d.Name]; len(units) != 1 || units[0] != d.Unit {
				t.Errorf("%s: %s printed with units %v, want once with %q", w.Name, d.Name, units, d.Unit)
			}
			delete(got, d.Name)
		}
		for name := range got {
			t.Errorf("%s: undeclared metric %s printed", w.Name, name)
		}
		if _, err := os.Stat(filepath.Join(out, "trace_"+w.Name+".json")); err != nil {
			t.Error(err)
		}
	}

	raw, err := os.ReadFile(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(bytes.TrimSpace(raw), []byte("\"claim\": null\n}")) {
		t.Error(`results.json does not end with "claim": null`)
	}
	var summary struct {
		Runs [][]result `json:"runs"`
	}
	if err := json.Unmarshal(raw, &summary); err != nil {
		t.Fatal(err)
	}
	if len(summary.Runs) != 1 || len(summary.Runs[0]) != len(mf.Workloads) {
		t.Fatalf("results.json holds %d runs, want 1 of %d workloads", len(summary.Runs), len(mf.Workloads))
	}
	for _, r := range summary.Runs[0] {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 || r.Checked < oracleSamples {
			t.Errorf("%s: correct=%v failed=%d attempted=%d checked=%d", r.Workload, r.Correct, r.Failed, r.Attempted, r.Checked)
		}
	}
}

// TestDriverLine holds the one-workload mode to the driver's contract:
// the last line of standard output is one JSON object with exactly the
// four keys, and its metrics are exactly the declared ones of that kind.
func TestDriverLine(t *testing.T) {
	mf, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	for trace, decls := range [][]metricDecl{mf.EndToEnd, mf.PerLayer} {
		var stdout bytes.Buffer
		o := options{manifest: manifestPath, workload: "churn_mix", seed: 2, seconds: 1, trace: trace, smoke: true, outDir: t.TempDir()}
		if err := o.run(&stdout, io.Discard); err != nil {
			t.Fatalf("trace %d: %v", trace, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %d: last line is not JSON: %v", trace, err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil {
			t.Fatalf("trace %d: result keys are %v", trace, line)
		}
		if string(line["correct"]) != "true" || string(line["failed"]) != "0" {
			t.Errorf("trace %d: correct=%s failed=%s", trace, line["correct"], line["failed"])
		}
		var got map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(decls) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(got), len(decls))
		}
		for _, d := range decls {
			if m, ok := got[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("trace %d: metric %s is %+v, want a value in %q", trace, d.Name, m, d.Unit)
			}
		}
	}
}

// TestGeneratorRefusesAndFailsFast pins the two guards against a hung
// run: a bounded window without a flush timeout is refused, and a run in
// which nothing completes ends with an error instead of hanging.
func TestGeneratorRefusesAndFailsFast(t *testing.T) {
	ds, err := buildDataset(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads[0]
	queries := ds.queries(1024, w.extra)
	cfg := engineConfig(w, len(ds.oracle.sigs), 0)

	cfg.BatchTimeout = 0
	if _, err := newLoadgen(nil, cfg, w, queries, nil); err == nil {
		t.Error("BatchTimeout 0 with a bounded window was accepted")
	}

	// With an hour's timeout the 1,024 in-flight queries spread over ~500
	// partitions never fill a 256-query batch: nothing completes.
	cfg.BatchTimeout = time.Hour
	eng, _, err := setUp(cfg, ds.snapshot, &spanLog{}, &result{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	g, err := newLoadgen(eng, cfg, w, queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.stall = 200 * time.Millisecond
	if _, err := g.run(0, time.Second, 1, phaseHooks{}); err == nil {
		t.Error("a run with no completions returned no error")
	}
}
