package experiments

import (
	"strings"
	"testing"
	"time"
)

// tinyParams keeps the smoke tests fast: a few tens of thousands of
// interests and short measurement runs.
func tinyParams() Params {
	p := DefaultParams()
	p.Scale = 0.00002 // ~6K users
	p.Queries = 1200
	p.SmallDBDocs = 800
	return p
}

func checkTable(t *testing.T, tb *Table, wantRows int) {
	t.Helper()
	if tb == nil {
		t.Fatal("nil table")
	}
	if len(tb.Rows) != wantRows {
		t.Fatalf("%s: %d rows, want %d", tb.ID, len(tb.Rows), wantRows)
	}
	for _, r := range tb.Rows {
		if len(r.Values) != len(tb.Cols) {
			t.Fatalf("%s row %q: %d values for %d columns", tb.ID, r.Label, len(r.Values), len(tb.Cols))
		}
		for i, v := range r.Values {
			if v <= 0 {
				t.Fatalf("%s row %q col %d: non-positive value %v", tb.ID, r.Label, i, v)
			}
		}
	}
	// Printing must not panic and must include the title.
	if !strings.Contains(tb.String(), tb.ID) {
		t.Fatalf("%s: String() missing id", tb.ID)
	}
}

func TestDatasetShape(t *testing.T) {
	p := tinyParams()
	ds := BuildDataset(p)
	if len(ds.Sigs) == 0 || len(ds.Sigs) != len(ds.Keys) {
		t.Fatalf("dataset sizes: %d sigs, %d keys", len(ds.Sigs), len(ds.Keys))
	}
	if ds.Unique == 0 || ds.Unique > len(ds.Sigs) {
		t.Fatalf("unique = %d of %d", ds.Unique, len(ds.Sigs))
	}
	// Cache must return the same dataset.
	if ds2 := BuildDataset(p); ds2 != ds {
		t.Fatal("dataset cache miss for identical params")
	}
	half, _ := ds.Slice(0.5)
	if len(half) != len(ds.Sigs)/2 {
		t.Fatalf("Slice(0.5) = %d of %d", len(half), len(ds.Sigs))
	}
	qs := ds.Queries(100, 1.0, 3, 7)
	if len(qs) != 100 {
		t.Fatalf("queries = %d", len(qs))
	}
	for _, q := range qs {
		if q.IsZero() {
			t.Fatal("zero query signature")
		}
	}
}

func TestKeysBySet(t *testing.T) {
	ds := BuildDataset(tinyParams())
	sigs, keys := ds.Slice(0.2)
	us, ks := KeysBySet(sigs, keys)
	if len(us) != len(ks) {
		t.Fatal("mismatched outputs")
	}
	total := 0
	for _, k := range ks {
		total += len(k)
	}
	if total != len(sigs) {
		t.Fatalf("keys lost in grouping: %d != %d", total, len(sigs))
	}
}

func TestTable1Smoke(t *testing.T) {
	tb := Table1(tinyParams())
	checkTable(t, tb, 6)
	// Core paper shape: batching beats plain GPU by a wide margin at
	// every database size.
	var plain, batched []float64
	for _, r := range tb.Rows {
		switch r.Label {
		case "GPU-only, plain":
			plain = r.Values
		case "GPU-only, plain with batching":
			batched = r.Values
		}
	}
	for i := range plain {
		if batched[i] < 2*plain[i] {
			t.Errorf("col %d: batching %v not clearly above plain %v", i, batched[i], plain[i])
		}
	}
}

func TestTable3Smoke(t *testing.T) {
	checkTable(t, Table3(tinyParams()), 3)
}

func TestFig2And3Smoke(t *testing.T) {
	f2, f3 := Fig2And3(tinyParams())
	checkTable(t, f2, 2)
	checkTable(t, f3, 2)
	// Shape: input throughput at +10 extra tags is below +1 for TagMatch.
	tm := f2.Rows[0].Values
	if tm[len(tm)-1] >= tm[0] {
		t.Errorf("fig2: throughput should decline with query size: %v", tm)
	}
	// Shape: output rate must not collapse with query size the way input
	// throughput does (Fig 3's headline is a RISE; at smoke scale the
	// effect is noisy, so only the strong inverse is rejected here — the
	// recorded CLI runs at benchmark scale verify the rise itself).
	out := f3.Rows[0].Values
	maxWide := 0.0
	for _, v := range out[len(out)/2:] {
		if v > maxWide {
			maxWide = v
		}
	}
	if maxWide < out[0]/2 {
		t.Errorf("fig3: output rate collapsed with query size: %v", out)
	}
}

func TestFig4Smoke(t *testing.T) {
	p := tinyParams()
	tb := Fig4(p)
	checkTable(t, tb, 4)
	// The throughputs are single cold runs of a few milliseconds each:
	// logged, not compared.
	for _, r := range tb.Rows {
		t.Logf("fig4 %q (K queries/s): %v", r.Label, r.Values)
	}
	// Shape: matching a query costs more as the database grows — the
	// reason the figure's throughput declines — in the kernel's own counts,
	// which repeat exactly: group scans and column words per query, on the
	// 20% and the 100% database with the figure's queries.
	ds := BuildDataset(p)
	work := func(frac float64) (scans, words float64) {
		sigs, keys := ds.Slice(frac)
		eng, err := BuildEngine(EngineSpec{Sigs: sigs, Keys: keys, Threads: p.Threads, MaxP: ds.BaseMaxP()})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		MeasureEngine(eng, ds.Queries(4096, frac, -1, p.Seed+500), p.Queries, false)
		st := eng.Stats()
		n := float64(st.QueriesCompleted)
		return float64(st.KernelGroupScans) / n, float64(st.KernelColumnsWalked) / n
	}
	smallScans, smallWords := work(0.2)
	fullScans, fullWords := work(1.0)
	t.Logf("per query: %.1f group scans and %.0f column words at 20%%, %.1f and %.0f at 100%%", smallScans, smallWords, fullScans, fullWords)
	if fullScans <= smallScans || fullWords <= smallWords {
		t.Errorf("fig4: work per query does not grow with the database: %.1f → %.1f group scans, %.0f → %.0f column words",
			smallScans, fullScans, smallWords, fullWords)
	}
}

func TestFig5Smoke(t *testing.T) {
	checkTable(t, Fig5(tinyParams()), 3)
}

func TestFig6Smoke(t *testing.T) {
	p := tinyParams()
	p.Queries = 600
	tb := Fig6(p)
	checkTable(t, tb, 5)
}

// TestLatencySummaryPercentiles pins Fig 6's digest on unsorted samples:
// exact nearest-rank median and p99, and the maximum.
func TestLatencySummaryPercentiles(t *testing.T) {
	ms := time.Millisecond
	lat := make([]time.Duration, 0, 100)
	for i := 100; i >= 1; i-- {
		lat = append(lat, time.Duration(i)*ms)
	}
	if m, p, x := latencySummary(lat); m != 50*ms || p != 99*ms || x != 100*ms {
		t.Fatalf("1..100 ms: median %v p99 %v max %v, want 50ms 99ms 100ms", m, p, x)
	}
}

// TestLatencySummaryEmpty pins Fig 6's digest with no samples: all zeros.
func TestLatencySummaryEmpty(t *testing.T) {
	if m, p, x := latencySummary(nil); m != 0 || p != 0 || x != 0 {
		t.Fatalf("no samples: median %v p99 %v max %v, want zeros", m, p, x)
	}
}

// TestLatencySummarySingleAndDuplicates pins Fig 6's digest with one
// sample and with repeated samples: every statistic is that sample.
func TestLatencySummarySingleAndDuplicates(t *testing.T) {
	ms := time.Millisecond
	seven := []time.Duration{7 * ms, 7 * ms, 7 * ms}
	if m, p, x := latencySummary(seven); m != 7*ms || p != 7*ms || x != 7*ms {
		t.Fatalf("duplicates: median %v p99 %v max %v, want 7ms each", m, p, x)
	}
	if m, p, x := latencySummary(seven[:1]); m != 7*ms || p != 7*ms || x != 7*ms {
		t.Fatalf("one sample: median %v p99 %v max %v, want 7ms each", m, p, x)
	}
}

func TestFig7Smoke(t *testing.T) {
	checkTable(t, Fig7(tinyParams()), 2)
}

func TestFig8Smoke(t *testing.T) {
	tb := Fig8(tinyParams())
	checkTable(t, tb, 1)
	// Shape: consolidate time grows with database size.
	v := tb.Rows[0].Values
	if v[len(v)-1] <= v[0] {
		t.Errorf("fig8: consolidate time should grow with db size: %v", v)
	}
}

func TestFig9Smoke(t *testing.T) {
	tb := Fig9(tinyParams())
	checkTable(t, tb, 2)
	for _, r := range tb.Rows {
		last := r.Values[len(r.Values)-1]
		if last <= r.Values[0] {
			t.Errorf("fig9 %q: memory should grow with db size: %v", r.Label, r.Values)
		}
		_ = last
	}
}

func TestFig10Smoke(t *testing.T) {
	tb := Fig10(tinyParams())
	checkTable(t, tb, 4)
	// Shape: TagMatch (last row) far above every minidb row.
	tm := tb.Rows[len(tb.Rows)-1].Values
	for _, r := range tb.Rows[:len(tb.Rows)-1] {
		for i := range r.Values {
			if tm[i] < 5*r.Values[i] {
				t.Errorf("fig10: TagMatch %v not clearly above minidb %q %v", tm[i], r.Label, r.Values[i])
			}
		}
	}
}

func TestFig11Smoke(t *testing.T) {
	tb := Fig11(tinyParams())
	checkTable(t, tb, 1)
	v := tb.Rows[0].Values
	// Shape: sharding must not make things dramatically worse (on a
	// single-core host scatter-gather cannot speed up, and run-to-run
	// noise is ±30%).
	if v[1] < v[0]*0.6 {
		t.Errorf("fig11: 2 instances (%v) dramatically slower than 1 (%v)", v[1], v[0])
	}
}

func TestAblationPipelineSmoke(t *testing.T) {
	checkTable(t, AblationPipeline(tinyParams()), 3)
}

func TestAblationGPUOnlySmoke(t *testing.T) {
	checkTable(t, AblationGPUOnly(tinyParams()), 2)
}

func TestTablePrintFormatting(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Cols: []string{"a", "b"}}
	tb.Add("row with a rather long label", 1234567, 0.0021)
	tb.Note("hello %d", 42)
	s := tb.String()
	for _, want := range []string{"demo", "1.23M", "0.0021", "hello 42"} {
		if !strings.Contains(s, want) {
			t.Errorf("printed table missing %q:\n%s", want, s)
		}
	}
}

func TestSortedCopy(t *testing.T) {
	in := []float64{3, 1, 2}
	out := SortedCopy(in)
	if out[0] != 1 || out[2] != 3 || in[0] != 3 {
		t.Fatalf("SortedCopy wrong: in=%v out=%v", in, out)
	}
}

func TestWriteBenchstat(t *testing.T) {
	tb := &Table{ID: "demo", Cols: []string{"Kq/s", "p50 us"}}
	tb.Add("cpu, pooling on", 12.5, 340)
	var sb strings.Builder
	if err := tb.WriteBenchstat(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "Benchmarkdemo/cpu-pooling-on 1 12.5 Kq/s 340 p50-us\n"
	if got != want {
		t.Fatalf("benchstat line:\n got %q\nwant %q", got, want)
	}
}
