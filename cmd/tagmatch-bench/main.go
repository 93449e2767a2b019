// Command tagmatch-bench regenerates the tables and figures of the
// TagMatch paper's evaluation (EuroSys 2017, §4) on the scaled synthetic
// workload.
//
// Usage:
//
//	tagmatch-bench [flags] <experiment>...
//	tagmatch-bench all
//
// Experiments: table1, table3, fig2 (with fig3), fig4, fig5, fig6, fig7,
// fig8, fig9, fig10, fig11, ablation-pipeline, ablation-gpuonly,
// obs-overhead (observability-layer cost, also written to
// BENCH_obs.json), hotpath (buffer-pooling before/after, also
// written to BENCH_hotpath.json), chaos (throughput under injected
// GPU faults and a mid-run device death, also written to
// BENCH_chaos.json), preprocess (bit-sliced vs. scalar partition
// routing, also written to BENCH_preprocess.json), kernel
// (bit-sliced vs. scalar subset-match kernel, also written to
// BENCH_kernel.json), tail (query-latency percentiles with and
// without hedged re-dispatch under injected stragglers, also written
// to BENCH_tail.json), and churn (live updates through the delta
// overlay with background consolidation vs the stop-the-world ablation,
// also written to BENCH_churn.json).
//
// Text-format output is also teed to results/results_scale<scale>.txt
// (gitignored) so run transcripts accumulate outside the repo root.
//
// Flags:
//
//	-scale f         fraction of the paper's 300M-user workload (default 0.002)
//	-seed n          workload seed (default 1)
//	-threads n       CPU threads per subject system (default GOMAXPROCS)
//	-gpus n          simulated GPUs for TagMatch (default 2)
//	-queries n       queries per throughput measurement (default 20000)
//	-format f        output format: text, json, csv, benchstat
//	-no-bench-files  skip writing BENCH_*.json artifacts (smoke runs at
//	                 reduced scale must not overwrite committed numbers)
//	-results-dir d   directory for run transcripts (default "results";
//	                 empty disables teeing)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tagmatch/internal/experiments"
)

var noBenchFiles bool

func main() {
	var p experiments.Params
	flag.Float64Var(&p.Scale, "scale", experiments.DefaultScale, "fraction of the paper's workload")
	flag.Int64Var(&p.Seed, "seed", 1, "workload seed")
	flag.IntVar(&p.Threads, "threads", runtime.GOMAXPROCS(0), "CPU threads per subject system")
	flag.IntVar(&p.GPUs, "gpus", 2, "simulated GPUs")
	flag.IntVar(&p.Queries, "queries", 20000, "queries per measurement")
	format := flag.String("format", "text", "output format: text, json, csv, benchstat")
	flag.BoolVar(&noBenchFiles, "no-bench-files", false, "skip writing BENCH_*.json artifacts")
	resultsDir := flag.String("results-dir", "results", "directory for run transcripts (empty disables)")
	flag.Parse()

	names := flag.Args()
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "usage: tagmatch-bench [flags] <experiment>... | all")
		fmt.Fprintln(os.Stderr, "experiments:", allNames())
		os.Exit(2)
	}
	if len(names) == 1 && names[0] == "all" {
		names = allNames()
	}

	// Text runs are teed into the (gitignored) results directory so the
	// transcript of a recorded run lands outside the repo root.
	out := io.Writer(os.Stdout)
	if *format == "text" && *resultsDir != "" {
		if err := os.MkdirAll(*resultsDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		path := filepath.Join(*resultsDir, fmt.Sprintf("results_scale%g.txt", p.Scale))
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		fmt.Fprintf(f, "# tagmatch-bench -scale %g -seed %d -threads %d -gpus %d -queries %d %s\n",
			p.Scale, p.Seed, p.Threads, p.GPUs, p.Queries, strings.Join(names, " "))
		out = io.MultiWriter(os.Stdout, f)
	}
	for _, name := range names {
		runOne(out, name, p, *format)
	}
}

// jsonWriter is any experiment result that serializes itself; every
// BENCH_*.json artifact goes through writeBenchFile so -no-bench-files
// can gate them all.
type jsonWriter interface {
	WriteJSON(io.Writer) error
}

func writeBenchFile(name string, r jsonWriter) {
	if noBenchFiles {
		return
	}
	f, err := os.Create(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := r.WriteJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f.Close()
}

func allNames() []string {
	return []string{
		"table1", "table3", "fig2", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "families",
		"ablation-pipeline", "ablation-gpuonly", "obs-overhead", "hotpath",
		"chaos", "preprocess", "kernel", "tail", "churn",
	}
}

func runOne(out io.Writer, name string, p experiments.Params, format string) {
	start := time.Now()
	var tables []*experiments.Table
	switch name {
	case "table1":
		tables = append(tables, experiments.Table1(p))
	case "table3":
		tables = append(tables, experiments.Table3(p))
	case "fig2", "fig3":
		f2, f3 := experiments.Fig2And3(p)
		tables = append(tables, f2, f3)
	case "fig4":
		tables = append(tables, experiments.Fig4(p))
	case "fig5":
		tables = append(tables, experiments.Fig5(p))
	case "fig6":
		tables = append(tables, experiments.Fig6(p))
	case "fig7":
		tables = append(tables, experiments.Fig7(p))
	case "fig8":
		tables = append(tables, experiments.Fig8(p))
	case "fig9":
		tables = append(tables, experiments.Fig9(p))
	case "fig10":
		tables = append(tables, experiments.Fig10(p))
	case "fig11":
		tables = append(tables, experiments.Fig11(p))
	case "families":
		tables = append(tables, experiments.Families(p))
	case "ablation-pipeline":
		tables = append(tables, experiments.AblationPipeline(p))
	case "ablation-gpuonly":
		tables = append(tables, experiments.AblationGPUOnly(p))
	case "obs-overhead":
		t, r := experiments.ObsOverhead(p)
		tables = append(tables, t)
		// The overhead comparison also lands in BENCH_obs.json so CI can
		// track the instrumentation cost across commits.
		writeBenchFile("BENCH_obs.json", r)
	case "hotpath":
		t, r := experiments.Hotpath(p)
		tables = append(tables, t)
		// Hot-path before/after numbers land in BENCH_hotpath.json so the
		// pooling win (and any p99 regression) is tracked across commits.
		writeBenchFile("BENCH_hotpath.json", r)
	case "chaos":
		t, r := experiments.Chaos(p)
		tables = append(tables, t)
		// Degraded-mode throughput and the results-match bit land in
		// BENCH_chaos.json so fault-tolerance cost (and any correctness
		// break under faults) is tracked across commits.
		writeBenchFile("BENCH_chaos.json", r)
	case "preprocess":
		t, r := experiments.Preprocess(p)
		tables = append(tables, t)
		// Routing before/after numbers land in BENCH_preprocess.json so
		// the bit-sliced speedup (acceptance bar: ≥2x) is tracked across
		// commits.
		writeBenchFile("BENCH_preprocess.json", r)
	case "kernel":
		t, r := experiments.Kernel(p)
		tables = append(tables, t)
		// Match-kernel before/after numbers land in BENCH_kernel.json so
		// the bit-sliced speedup (acceptance bar: ≥2x) and the exactness
		// re-checks are tracked across commits.
		writeBenchFile("BENCH_kernel.json", r)
	case "tail":
		t, r := experiments.Tail(p)
		tables = append(tables, t)
		// Tail percentiles with and without hedging land in
		// BENCH_tail.json so the hedging win (acceptance bar: p99 >= 2x
		// better) and the exactly-once property are tracked across
		// commits.
		writeBenchFile("BENCH_tail.json", r)
	case "churn":
		t, r := experiments.Churn(p)
		tables = append(tables, t)
		// Live-update numbers land in BENCH_churn.json so the cost of
		// churn (acceptance bar: >= 0.9x no-churn qps), the swap-pause
		// win (>= 5x smaller than stop-the-world), and overlay/oracle
		// parity are tracked across commits.
		writeBenchFile("BENCH_churn.json", r)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %v\n", name, allNames())
		os.Exit(2)
	}
	for _, t := range tables {
		switch format {
		case "json":
			if err := t.WriteJSON(out); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		case "csv":
			if err := t.WriteCSV(out); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		case "benchstat":
			if err := t.WriteBenchstat(out); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		default:
			t.Print(out)
		}
	}
	if format == "text" {
		fmt.Fprintf(out, "  [%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
}
