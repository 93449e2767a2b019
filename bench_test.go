// Macro-benchmarks: one per table and figure of the paper's evaluation.
//
// Each benchmark executes the corresponding experiment end to end on a
// small workload (scale and query counts reduced so a full `go test
// -bench=.` pass completes in minutes) and reports, besides ns/op,
// custom metrics extracted from the experiment's result table — the
// headline number a reader would compare against the paper.
//
// For paper-style output at larger scale, use the CLI instead:
//
//	go run ./cmd/tagmatch-bench -scale 0.002 all
package tagmatch_test

import (
	"testing"

	"tagmatch/internal/experiments"
)

// benchParams keeps macro-benchmarks tractable on small hosts.
func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	p.Scale = 0.0001 // ~30K users → ~170K interests
	p.Queries = 4000
	p.SmallDBDocs = 2000
	return p
}

// report attaches a row's last value as a custom benchmark metric.
func report(b *testing.B, t *experiments.Table, rowLabel, unit string) {
	b.Helper()
	for _, r := range t.Rows {
		if r.Label == rowLabel {
			b.ReportMetric(r.Values[len(r.Values)-1], unit)
			return
		}
	}
	b.Fatalf("row %q not found in %s", rowLabel, t.ID)
}

func BenchmarkTable1Summary(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		t := experiments.Table1(p)
		report(b, t, "TagMatch", "tagmatch-Kqps")
		report(b, t, "GPU-only, plain", "gpuplain-Kqps")
		report(b, t, "CPU-only, prefix tree", "tree-Kqps")
	}
}

func BenchmarkTable3Baselines(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		t := experiments.Table3(p)
		report(b, t, "TagMatch", "tagmatch-Kqps")
		report(b, t, "ICN matcher", "icn-Kqps")
	}
}

func BenchmarkFig2QuerySizeInput(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		f2, _ := experiments.Fig2And3(p)
		report(b, f2, "TagMatch", "at+10tags-Kqps")
	}
}

func BenchmarkFig3QuerySizeOutput(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		_, f3 := experiments.Fig2And3(p)
		report(b, f3, "TagMatch", "at+10tags-Kkeyps")
	}
}

func BenchmarkFig4DatabaseSize(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		t := experiments.Fig4(p)
		report(b, t, "TagMatch match", "full-db-Kqps")
		report(b, t, "TagMatch match-unique", "full-db-unique-Kqps")
	}
}

func BenchmarkFig5Threads(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		t := experiments.Fig5(p)
		report(b, t, "TagMatch match", "maxthreads-Kqps")
	}
}

func BenchmarkFig6LatencyTimeouts(b *testing.B) {
	p := benchParams()
	p.Queries = 1500
	for i := 0; i < b.N; i++ {
		t := experiments.Fig6(p)
		report(b, t, "300ms", "at300ms-median-ms")
	}
}

func BenchmarkFig7MaxPartitionSize(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		t := experiments.Fig7(p)
		report(b, t, "match", "largest-maxp-Kqps")
	}
}

func BenchmarkFig8ConsolidateTime(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		t := experiments.Fig8(p)
		report(b, t, "consolidate time (s)", "full-db-seconds")
	}
}

func BenchmarkFig9MemoryUsage(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		t := experiments.Fig9(p)
		report(b, t, "Host (key table + index)", "host-MB")
		report(b, t, "GPUs (tagset tables)", "gpu-MB")
	}
}

func BenchmarkFig10MiniDB(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		t := experiments.Fig10(p)
		report(b, t, t.Rows[0].Label, "minidb-smallest-qps")
		report(b, t, t.Rows[len(t.Rows)-1].Label, "tagmatch-qps")
	}
}

func BenchmarkFig11MiniDBSharding(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		t := experiments.Fig11(p)
		report(b, t, "minidb cluster", "at24inst-qps")
	}
}

func BenchmarkAblationPipeline(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		t := experiments.AblationPipeline(p)
		report(b, t, "full TagMatch", "full-Kqps")
		report(b, t, "no block pre-filter (Alg 4 off)", "noprefilter-Kqps")
	}
}

func BenchmarkAblationGPUOnly(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		t := experiments.AblationGPUOnly(p)
		report(b, t, "GPU-only dynamic parallelism", "dynpar-Kqps")
		report(b, t, "TagMatch (hybrid)", "hybrid-Kqps")
	}
}
