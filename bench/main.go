// Command bench is the repository's one canonical benchmark: four named
// workloads driven through the public tagmatch package, end-to-end
// metrics from a measured phase with tracing off, a per-layer table from
// a traced phase, every result checked against a brute-force oracle.
// BENCHMARK.json declares the names, units and bounds; README.md in this
// directory explains them.
//
//	go run ./bench                       all workloads, both phases, bench/out/results.json
//	go run ./bench -repeat 2             the whole set twice, compared against the bounds
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                     one run, one JSON line (what BENCHMARK.json names)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

type options struct {
	manifest string
	workload string // one workload, one JSON line; empty = all of them
	seed     int64
	seconds  int
	trace    int
	repeat   int
	smoke    bool
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.manifest, "manifest", "BENCHMARK.json", "path of BENCHMARK.json")
	flag.StringVar(&o.workload, "workload", "", "run this workload only and print one JSON result line")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the dataset, the queries and the churn stream")
	flag.IntVar(&o.seconds, "seconds", 0, "seconds measured per workload (default 10 with -workload, else 30)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 1, "run the whole set this many times and compare the runs")
	flag.BoolVar(&o.smoke, "smoke", false, "1,000 users and sub-second segments: checks the harness, measures nothing")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for results.json and trace files")
	flag.Parse()
	if err := o.run(os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

const fullUsers = 150_000 // scale 0.0005 of the paper's 300M users

func (o options) run(stdout, stderr io.Writer) error {
	mf, err := loadManifest(o.manifest)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		switch {
		case o.workload != "":
			o.seconds = mf.RunSeconds
		case o.smoke:
			o.seconds = 1
		default:
			o.seconds = 30
		}
	}
	if o.workload != "" {
		return o.single(mf, stdout, stderr)
	}
	var sets [][]*result
	for i := range o.repeat {
		fmt.Fprintf(stdout, "# run %d of %d: seed %d, nproc %d, GOMAXPROCS %d\n", i+1, o.repeat, o.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0))
		results, err := o.all(mf, stdout)
		if err != nil {
			return err
		}
		sets = append(sets, results)
	}
	pass := true
	if o.repeat > 1 {
		pass = compareRuns(mf, sets, stdout)
	}
	if err := writeResults(o, sets); err != nil {
		return err
	}
	for _, results := range sets {
		for _, r := range results {
			if !r.Correct {
				return fmt.Errorf("%s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
			}
		}
	}
	if !pass {
		return fmt.Errorf("repeated runs disagree by more than a bound")
	}
	return nil
}

// plan returns the phase lengths for o.seconds of measurement.
func (o options) plan() plan {
	seconds := time.Duration(o.seconds) * time.Second
	p := plan{setupReps: 3, warmup: 3 * time.Second, segments: 10, measure: seconds, probeCalls: 200, rateScale: 1, outDir: o.outDir}
	switch {
	case o.workload == "":
		// All workloads: the traced phase comes on top, a third as long.
		p.probes, p.traced = true, seconds/3
	case o.trace == 1:
		// The driver's --seconds is the whole measurement: an untraced
		// reference and the traced segment share it.
		p.probes, p.setupReps = true, 1
		p.measure = seconds * 2 / 5
		p.traced = seconds - p.measure
	}
	if o.smoke {
		p.warmup, p.probeCalls, p.rateScale = 200*time.Millisecond, 20, 10
		p.setupReps, p.measure, p.traced = 1, p.measure/2, p.traced/2
	}
	return p
}

// single is the driver's contract: one workload, one run, the metrics of
// one kind as the last line of standard output.
func (o options) single(mf *manifest, stdout, stderr io.Writer) error {
	i := slices.IndexFunc(workloads, func(w workloadSpec) bool { return w.name == o.workload })
	if i < 0 {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	ds, p, l, probes, err := o.prepare()
	if err != nil {
		return err
	}
	res, err := runWorkload(ds, workloads[i], p, l, probes, mf.EndToEnd)
	if err != nil {
		return err
	}
	decls, got := mf.EndToEnd, res.E2E
	if o.trace == 1 {
		decls, got = mf.PerLayer, res.Layers
	}
	if err := got.check(decls); err != nil {
		return err
	}
	printWorkload(stderr, mf, res)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range decls {
		line.Metrics[d.Name] = value{got[d.Name], d.Unit}
	}
	return json.NewEncoder(stdout).Encode(line)
}

func (o options) users() int {
	if o.smoke {
		return 1000
	}
	return fullUsers
}

// prepare builds what every workload of a run shares: the dataset, the
// plan, and, when the plan has a traced phase, the probes that need no
// engine.
func (o options) prepare() (*dataset, plan, *spanLog, metrics, error) {
	p, l, probes := o.plan(), &spanLog{}, metrics{}
	ds, err := buildDataset(o.users(), o.seed)
	if err != nil || !p.probes {
		return ds, p, l, probes, err
	}
	probes["workload.dataset_s"] = ds.generateS
	probes["core.snapshot.save_s"] = ds.saveS
	probes["core.snapshot.bytes_per_set"] = float64(len(ds.snapshot)) / float64(len(ds.oracle.sigs))
	err = globalProbes(ds, l, probes)
	p.sharedSpans = l.len()
	return ds, p, l, probes, err
}

// all runs every workload with both phases and prints the tables.
func (o options) all(mf *manifest, stdout io.Writer) ([]*result, error) {
	ds, p, l, probes, err := o.prepare()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# dataset: %d users, %d interests, %d unique sets, snapshot %d bytes\n",
		o.users(), ds.interests, len(ds.oracle.sigs), len(ds.snapshot))
	var results []*result
	for _, w := range workloads {
		res, err := runWorkload(ds, w, p, l, probes, mf.EndToEnd)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := res.E2E.check(mf.EndToEnd); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := res.Layers.check(mf.PerLayer); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		printWorkload(stdout, mf, res)
		results = append(results, res)
	}
	return results, nil
}

func printWorkload(w io.Writer, mf *manifest, r *result) {
	fmt.Fprintf(w, "\n## %s: %d unique sets in %d partitions; oracle %s (%d results checked), error_rate %g (%d failed of %d attempted)\n",
		r.Workload, r.UniqueSets, r.Partitions, map[bool]string{true: "PASS", false: "FAIL"}[r.Correct],
		r.Checked, r.ErrorRate, r.Failed, r.Attempted)
	fmt.Fprintf(w, "%-44s %14s %-10s %s\n", "end-to-end (third best of ten segments)", "value", "unit", "(max-min)/median, samples")
	for _, d := range mf.EndToEnd {
		note := ""
		if s, ok := r.Spread[d.Name]; ok {
			note = fmt.Sprintf("%.3f", s)
		}
		if n, ok := r.Samples[d.Name]; ok {
			note += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintf(w, "%-44s %14.4f %-10s %s\n", d.Name, r.E2E[d.Name], d.Unit, note)
	}
	if r.Layers == nil {
		return
	}
	fmt.Fprintf(w, "%-44s %14s %-10s %s\n", "per-layer (traced phase and probes)", "value", "unit", "samples")
	for _, d := range mf.PerLayer {
		note := ""
		if n, ok := r.Samples[d.Name]; ok {
			note = fmt.Sprintf("n=%d", n)
		}
		fmt.Fprintf(w, "%-44s %14.4f %-10s %s\n", d.Name, r.Layers[d.Name], d.Unit, note)
	}
}

// compareRuns prints, per end-to-end metric and workload, the first and
// last run's values, their relative difference in the metric's worse
// direction, and PASS or FAIL against the bound.
func compareRuns(mf *manifest, sets [][]*result, w io.Writer) bool {
	pass := true
	first, last := sets[0], sets[len(sets)-1]
	fmt.Fprintf(w, "\n## repeatability: run 1 against run %d\n", len(sets))
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "last", "worse by", "bound")
	for i, a := range first {
		for _, d := range mf.EndToEnd {
			x, y := a.E2E[d.Name], last[i].E2E[d.Name]
			worse := ratio(y-x, x)
			if d.Better == "higher" {
				worse = -worse
			}
			// Either run may play the parent: the pair agrees when neither
			// is worse than the other by more than the bound.
			verdict := "PASS"
			if max(worse, -worse) > d.Bound {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %+9.4f %7.2f %s\n", a.Workload, d.Name, x, y, worse, d.Bound, verdict)
		}
	}
	return pass
}

// writeResults writes bench/out/results.json. The summary claims nothing.
func writeResults(o options, sets [][]*result) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	summary := struct {
		Seed       int64       `json:"seed"`
		Users      int         `json:"users"`
		Seconds    int         `json:"measured_seconds"`
		NumCPU     int         `json:"nproc"`
		GOMAXPROCS int         `json:"gomaxprocs"`
		Runs       [][]*result `json:"runs"`
		Claim      *string     `json:"claim"`
	}{o.seed, o.users(), o.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), sets, nil}
	raw, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, "results.json"), append(raw, '\n'), 0o644)
}
