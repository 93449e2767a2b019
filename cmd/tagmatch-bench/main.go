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
// fig8, fig9, fig10, fig11, ablation-pipeline,
// ablation-gpuonly, and obs-overhead (observability-layer cost, also
// written to BENCH_obs.json: the ≤ 2 % budget on instrumentation cost
// has no other measurement yet). The engine itself is measured by the
// canonical benchmark in bench/ (BENCHMARK.json).
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
	"slices"
	"strings"
	"time"

	"tagmatch/internal/experiments"
)

var noBenchFiles bool

// formats are the values -format accepts.
var formats = []string{"text", "json", "csv", "benchstat"}

func main() {
	var p experiments.Params
	flag.Float64Var(&p.Scale, "scale", experiments.DefaultScale, "fraction of the paper's workload")
	flag.Int64Var(&p.Seed, "seed", 1, "workload seed")
	flag.IntVar(&p.Threads, "threads", runtime.GOMAXPROCS(0), "CPU threads per subject system")
	flag.IntVar(&p.GPUs, "gpus", 2, "simulated GPUs")
	flag.IntVar(&p.Queries, "queries", 20000, "queries per measurement")
	format := flag.String("format", "text", "output format: "+strings.Join(formats, ", "))
	flag.BoolVar(&noBenchFiles, "no-bench-files", false, "skip writing BENCH_*.json artifacts")
	resultsDir := flag.String("results-dir", "results", "directory for run transcripts (empty disables)")
	flag.Parse()
	if !slices.Contains(formats, *format) {
		fmt.Fprintf(os.Stderr, "unknown format %q; available: %v\n", *format, formats)
		os.Exit(2)
	}

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

// writeBenchFile writes a BENCH_*.json artifact unless -no-bench-files
// is set.
func writeBenchFile(name string, r *experiments.ObsOverheadResult) {
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
		"fig8", "fig9", "fig10", "fig11",
		"ablation-pipeline", "ablation-gpuonly", "obs-overhead",
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
	case "ablation-pipeline":
		tables = append(tables, experiments.AblationPipeline(p))
	case "ablation-gpuonly":
		tables = append(tables, experiments.AblationGPUOnly(p))
	case "obs-overhead":
		t, r := experiments.ObsOverhead(p)
		tables = append(tables, t)
		// The overhead comparison also lands in BENCH_obs.json, the
		// recorded figure for the ≤ 2 % instrumentation budget.
		writeBenchFile("BENCH_obs.json", r)
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
		case "text":
			t.Print(out)
		}
	}
	if format == "text" {
		fmt.Fprintf(out, "  [%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
}
