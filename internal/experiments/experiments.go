// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each experiment function returns a Table whose rows
// mirror the rows/series the paper reports; cmd/tagmatch-bench prints
// them and bench_test.go wraps them as Go benchmarks.
//
// All experiments run against a scaled-down Twitter-like workload
// (package workload). Scale 1.0 would be the paper's full database of
// ~212M unique sets on 300M users; the default scale keeps the full
// database around one million sets so the whole suite completes in
// minutes on a laptop. Relative results — who wins, by what factor,
// where curves bend — are the reproduction target; absolute numbers are
// recorded per-scale in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
	"tagmatch/internal/core"
	"tagmatch/internal/gpu"
	"tagmatch/internal/workload"
)

// DefaultScale is the fraction of the paper's workload used when none is
// specified: 300M users × 0.002 = 600K users, giving a full database of
// roughly 1-2M interests.
const DefaultScale = 0.002

// paperUsers is the paper's full workload size (§4.2.1).
const paperUsers = 300_000_000

// Params fixes the knobs shared by all experiments.
type Params struct {
	Scale   float64 // fraction of the paper's 300M-user workload
	Seed    int64
	Threads int // CPU threads given to every subject system
	GPUs    int // simulated devices for TagMatch
	Queries int // queries per throughput measurement

	// SmallDBDocs is the base document count of the §4.4 MongoDB-
	// comparison workload; Fig10 uses 1x/3x/5x of it and Fig11 uses 3x
	// (the paper's 1M/3M/5M at its scale). Default 10000.
	SmallDBDocs int
}

// DefaultParams returns the standard configuration.
func DefaultParams() Params {
	return Params{
		Scale:   DefaultScale,
		Seed:    1,
		Threads: runtime.GOMAXPROCS(0),
		GPUs:    2,
		Queries: 20000,

		SmallDBDocs: 10000,
	}
}

func (p Params) smallDocsBase() int {
	if p.SmallDBDocs > 0 {
		return p.SmallDBDocs
	}
	return 10000
}

// Dataset is a generated workload: interest signatures with their user
// keys (the database) and a sample of interests used to build queries.
type Dataset struct {
	Params Params
	Gen    *workload.Generator

	Sigs []bitvec.Vector // one per interest (duplicates possible)
	Keys []core.Key

	Unique int // number of distinct signatures

	sampleSigs []bitvec.Vector // base signatures for query construction
}

var (
	dsCache   = map[string]*Dataset{}
	dsCacheMu sync.Mutex
)

// BuildDataset generates (or returns cached) the full scaled workload.
func BuildDataset(p Params) *Dataset {
	key := fmt.Sprintf("%g/%d", p.Scale, p.Seed)
	dsCacheMu.Lock()
	defer dsCacheMu.Unlock()
	if ds, ok := dsCache[key]; ok {
		ds.Params = p
		return ds
	}
	users := int(float64(paperUsers) * p.Scale)
	if users < 1000 {
		users = 1000
	}
	gen, err := workload.New(workload.NewConfig(users, p.Seed))
	if err != nil {
		panic(err) // static configuration; cannot fail at runtime
	}
	ds := &Dataset{Params: p, Gen: gen}
	seen := make(map[bitvec.Vector]struct{}, users)
	sampleEvery := 16
	gen.Generate(users, func(in workload.Interest) {
		sig := bloom.Signature(in.Tags)
		ds.Sigs = append(ds.Sigs, sig)
		ds.Keys = append(ds.Keys, core.Key(in.User))
		seen[sig] = struct{}{}
		if len(ds.Sigs)%sampleEvery == 0 {
			ds.sampleSigs = append(ds.sampleSigs, sig)
		}
	})
	ds.Unique = len(seen)
	dsCache[key] = ds
	return ds
}

// BaseMaxP returns the MAX_P the paper's ratio implies for the FULL
// scaled database (200K for 212M sets); experiments keep it fixed while
// sweeping database fractions, as the paper does.
func (ds *Dataset) BaseMaxP() int {
	maxP := len(ds.Sigs) / 1000
	if maxP < 64 {
		maxP = 64
	}
	return maxP
}

// Slice returns the first frac of the dataset's interests — the paper's
// "X% of the full Twitter database".
func (ds *Dataset) Slice(frac float64) (sigs []bitvec.Vector, keys []core.Key) {
	n := int(float64(len(ds.Sigs)) * frac)
	if n > len(ds.Sigs) {
		n = len(ds.Sigs)
	}
	return ds.Sigs[:n], ds.Keys[:n]
}

// Queries builds n query signatures per §4.2.2: a sampled database
// signature (from within the first frac of the database) OR-ed with
// extra random tags. extra < 0 draws from the configured 2..4 range.
//
// The extra tags come from the workload's own hashtag vocabulary (via
// the generator's query builder), as in the paper: this is what makes
// wider queries match multiplicatively more interests, the effect behind
// Fig 3's rising output rate.
func (ds *Dataset) Queries(n int, frac float64, extra int, seed int64) []bitvec.Vector {
	rng := rand.New(rand.NewSource(seed))
	limit := int(float64(len(ds.sampleSigs)) * frac)
	if limit < 1 {
		limit = 1
	}
	if limit > len(ds.sampleSigs) {
		limit = len(ds.sampleSigs)
	}
	out := make([]bitvec.Vector, n)
	for i := range out {
		base := ds.sampleSigs[rng.Intn(limit)]
		extraTags := ds.Gen.Query(rng, nil, extra)
		var extraSig bitvec.Vector
		for _, tag := range extraTags {
			bloom.AddTag(&extraSig, tag)
		}
		out[i] = base.Or(extraSig)
	}
	return out
}

// KeysBySet groups a (sigs, keys) slice pair into unique signatures with
// key lists, the input shape of the baseline matchers.
func KeysBySet(sigs []bitvec.Vector, keys []core.Key) ([]bitvec.Vector, [][]uint32) {
	m := make(map[bitvec.Vector][]uint32, len(sigs))
	for i, s := range sigs {
		m[s] = append(m[s], uint32(keys[i]))
	}
	us := make([]bitvec.Vector, 0, len(m))
	ks := make([][]uint32, 0, len(m))
	for s, k := range m {
		us = append(us, s)
		ks = append(ks, k)
	}
	return us, ks
}

// Table is a printable experiment result.
type Table struct {
	ID    string // "table1", "fig4", ...
	Title string
	Cols  []string
	Rows  []Row
	Notes []string
}

// Row is one labeled series of values.
type Row struct {
	Label  string
	Values []float64
}

// Add appends a row.
func (t *Table) Add(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", t.ID, t.Title)
	width := 28
	for _, r := range t.Rows {
		if len(r.Label) > width {
			width = len(r.Label)
		}
	}
	fmt.Fprintf(w, "%-*s", width+2, "")
	for _, c := range t.Cols {
		fmt.Fprintf(w, "%14s", c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", width+2, r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(w, "%14s", fmtVal(v))
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func fmtVal(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case av >= 1e4:
		return fmt.Sprintf("%.1fK", v/1e3)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	case av == 0:
		return "0"
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Print(&sb)
	return sb.String()
}

// ---- measurement helpers ----

// EngineSpec configures a TagMatch engine build for an experiment.
type EngineSpec struct {
	Sigs    []bitvec.Vector
	Keys    []core.Key
	Threads int
	GPUs    int
	MaxP    int // 0 = dbSize/1000 (the paper's ratio)
	Mutate  func(*core.Config)
}

// BuildEngine constructs devices and a consolidated engine.
func BuildEngine(spec EngineSpec) (*core.Engine, []*gpu.Device, error) {
	var devs []*gpu.Device
	for i := 0; i < spec.GPUs; i++ {
		devs = append(devs, gpu.New(gpu.Config{
			Name:    fmt.Sprintf("sim-gpu-%d", i),
			Workers: simWorkersPerGPU(spec.GPUs),
			Cost:    gpu.DefaultCost,
		}))
	}
	maxP := spec.MaxP
	if maxP == 0 {
		maxP = len(spec.Sigs) / 1000
		if maxP < 64 {
			maxP = 64
		}
	}
	cfg := core.Config{
		MaxPartitionSize: maxP,
		BatchSize:        256,
		Threads:          spec.Threads,
		Devices:          devs,
		StreamsPerDevice: 10,
		Replicate:        true,
		// Bulk staging below would repeatedly trip the background
		// consolidator at the default threshold; raise it past the load so
		// the explicit Consolidate that follows does one build. Mutate can
		// lower it again for live-update experiments.
		DeltaMaxSets: len(spec.Sigs) + 4096,
	}
	if spec.Mutate != nil {
		spec.Mutate(&cfg)
	}
	eng, err := core.New(cfg)
	if err != nil {
		closeDevices(devs)
		return nil, nil, err
	}
	for i := range spec.Sigs {
		eng.AddSignature(spec.Sigs[i], spec.Keys[i])
	}
	if err := eng.Consolidate(); err != nil {
		eng.Close()
		closeDevices(devs)
		return nil, nil, err
	}
	return eng, devs, nil
}

func closeDevices(devs []*gpu.Device) {
	for _, d := range devs {
		d.Close()
	}
}

// simWorkersPerGPU sizes the simulated SM pool so that the simulation's
// GPU compute capacity does not oversubscribe the host cores.
func simWorkersPerGPU(gpus int) int {
	if gpus <= 0 {
		return 0
	}
	w := runtime.GOMAXPROCS(0) / (gpus + 1)
	if w < 2 {
		w = 2
	}
	return w
}

// ThroughputResult is one measured run.
type ThroughputResult struct {
	QPS     float64 // input throughput: queries/second
	KeysPS  float64 // output throughput: matched keys/second
	Keys    int64
	Elapsed time.Duration
}

// MeasureEngine drives n queries through the engine and reports input
// and output throughput. Queries are submitted from a single feeder, as
// in the paper's stream, and the run is timed until the last merge.
func MeasureEngine(eng *core.Engine, queries []bitvec.Vector, n int, unique bool) ThroughputResult {
	// Short untimed warmup so allocator and scheduler transients do not
	// pollute single-run numbers.
	warm := n / 8
	if warm > 1000 {
		warm = 1000
	}
	var warmWg sync.WaitGroup
	warmWg.Add(warm)
	for i := 0; i < warm; i++ {
		if err := eng.SubmitSignature(queries[i%len(queries)], unique, func(core.MatchResult) {
			warmWg.Done()
		}); err != nil {
			panic(err)
		}
	}
	eng.Drain()
	warmWg.Wait()

	var wg sync.WaitGroup
	wg.Add(n)
	var keys int64
	var keysMu sync.Mutex
	start := time.Now()
	for i := 0; i < n; i++ {
		q := queries[i%len(queries)]
		if err := eng.SubmitSignature(q, unique, func(r core.MatchResult) {
			keysMu.Lock()
			keys += int64(len(r.Keys))
			keysMu.Unlock()
			wg.Done()
		}); err != nil {
			panic(err)
		}
	}
	eng.Drain()
	wg.Wait()
	el := time.Since(start)
	return ThroughputResult{
		QPS:     float64(n) / el.Seconds(),
		KeysPS:  float64(keys) / el.Seconds(),
		Keys:    keys,
		Elapsed: el,
	}
}

// matcher abstracts the CPU baselines for shared measurement.
type matcher interface {
	Match(q bitvec.Vector, visit func(uint32))
	MatchUnique(q bitvec.Vector, visit func(uint32))
}

// MeasureMatcher runs queries against a CPU matcher with the given
// number of worker threads.
func MeasureMatcher(m matcher, queries []bitvec.Vector, n, threads int, unique bool) ThroughputResult {
	if threads < 1 {
		threads = 1
	}
	for i := 0; i < min(n/8, 200); i++ {
		m.Match(queries[i%len(queries)], func(uint32) {})
	}
	var keys int64
	var wg sync.WaitGroup
	start := time.Now()
	per := (n + threads - 1) / threads
	for t := 0; t < threads; t++ {
		lo := t * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			local := int64(0)
			for i := lo; i < hi; i++ {
				q := queries[i%len(queries)]
				if unique {
					m.MatchUnique(q, func(uint32) { local++ })
				} else {
					m.Match(q, func(uint32) { local++ })
				}
			}
			keysMuAdd(&keys, local)
		}(lo, hi)
	}
	wg.Wait()
	el := time.Since(start)
	return ThroughputResult{
		QPS:     float64(n) / el.Seconds(),
		KeysPS:  float64(keys) / el.Seconds(),
		Keys:    keys,
		Elapsed: el,
	}
}

var keysMu sync.Mutex

func keysMuAdd(p *int64, v int64) {
	keysMu.Lock()
	*p += v
	keysMu.Unlock()
}

// SortedCopy returns a sorted copy of values (test helper for monotone
// shape assertions).
func SortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}
