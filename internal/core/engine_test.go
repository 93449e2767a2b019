package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
	"tagmatch/internal/trie"
)

// testDB is a small reference database with known expected answers.
type testDB struct {
	sigs []bitvec.Vector
	keys [][]Key
}

func makeTestDB(nSets, tagsPerSet, maxKeysPerSet int, seed int64) *testDB {
	rng := rand.New(rand.NewSource(seed))
	db := &testDB{sigs: randomSets(nSets, tagsPerSet, seed)}
	db.keys = make([][]Key, nSets)
	next := Key(1)
	for i := range db.keys {
		n := 1 + rng.Intn(maxKeysPerSet)
		for j := 0; j < n; j++ {
			db.keys[i] = append(db.keys[i], next)
			next++
		}
	}
	return db
}

func (db *testDB) load(e *Engine) {
	for i, sig := range db.sigs {
		for _, k := range db.keys[i] {
			e.AddSignature(sig, k)
		}
	}
}

// bulk is the database as LoadSnapshot hands it to a consolidation.
func (db *testDB) bulk() setList {
	var b setList
	for i, keys := range db.keys {
		b.add(db.sigs[i], entryList{keys: keys}, false)
	}
	return b
}

// expected computes the reference answer for one query.
func (db *testDB) expected(q bitvec.Vector, unique bool) []Key {
	var out []Key
	for i, sig := range db.sigs {
		if sig.SubsetOf(q) {
			out = append(out, db.keys[i]...)
		}
	}
	sortKeysSlice(out)
	if unique {
		out = dedupKeys(out)
	}
	return out
}

func sortKeysSlice(k []Key) {
	sort.Slice(k, func(i, j int) bool { return k[i] < k[j] })
}

// makeQueries builds queries as database sets plus extra random bits
// (§4.2.2: every query matches at least one set).
func (db *testDB) makeQueries(n int, seed int64) []bitvec.Vector {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]bitvec.Vector, n)
	for i := range qs {
		base := db.sigs[rng.Intn(len(db.sigs))]
		extra := randomSets(1, 2+rng.Intn(3), seed+int64(i)+500)[0]
		qs[i] = base.Or(extra)
	}
	return qs
}

// tagReq is the Request of a tag query: the tags' signature, checked
// against the tags themselves under ExactVerify.
func tagReq(tags []string, unique bool) Request {
	return Request{Sig: bloom.Signature(tags), Tags: tags, Unique: unique}
}

// match is a blocking Match under a context that never ends.
func match(e *Engine, r Request) ([]Key, error) { return e.Match(context.Background(), r) }

// verifyEngine runs queries through the engine and compares every answer
// against the brute-force reference.
func verifyEngine(t *testing.T, e *Engine, db *testDB, queries []bitvec.Vector, unique bool) {
	t.Helper()
	type outcome struct {
		got  []Key
		want []Key
	}
	results := make([]outcome, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		i, q := i, q
		wg.Add(1)
		if err := e.Submit(context.Background(), Request{Sig: q, Unique: unique}, func(r MatchResult) {
			results[i].got = r.Keys
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
		results[i].want = db.expected(q, unique)
	}
	e.Drain()
	wg.Wait()
	for i := range results {
		got := append([]Key(nil), results[i].got...)
		sortKeysSlice(got)
		want := results[i].want
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d keys, want %d (unique=%v)\n got=%v\nwant=%v",
				i, len(got), len(want), unique, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d key %d: got %d want %d", i, j, got[j], want[j])
			}
		}
	}
}

func TestEngineCPUOnlyCorrectness(t *testing.T) {
	db := makeTestDB(3000, 5, 3, 31)
	e, err := New(Config{MaxPartitionSize: 200, BatchSize: 64, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	queries := db.makeQueries(300, 32)
	verifyEngine(t, e, db, queries, false)
	verifyEngine(t, e, db, queries, true)
}

func TestEngineGPUCorrectness(t *testing.T) {
	db := makeTestDB(5000, 5, 3, 33)
	e, err := New(Config{
		MaxPartitionSize: 300, BatchSize: 64, Threads: 4,
		GPUs: 1, GPUWorkers: 4, StreamsPerGPU: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	queries := db.makeQueries(400, 34)
	verifyEngine(t, e, db, queries, false)
	verifyEngine(t, e, db, queries, true)
}

// indexBytesPerDevice returns the index bytes each device holds — its
// memory in use beyond its streams' batch buffers — and what the groups
// and run nodes of the partitions it owns come to.
func indexBytesPerDevice(e *Engine) (got, want []int64) {
	idx := e.idx.Load()
	want = make([]int64, len(e.devices))
	for _, p := range idx.parts {
		want[p.dev] += int64(p.nGroups())*1592 + int64(p.nRuns)*40
	}
	got = deviceMem(e)
	for _, sl := range idx.allStreams {
		got[sl.dev] -= sl.qbuf.Bytes() + sl.tab.Bytes() + sl.hdr.Bytes() + sl.pairs.Bytes()
	}
	return got, want
}

// TestEngineMultiGPU: each device holds exactly the groups (1592 B each)
// and run nodes (40 B each) of the partitions it owns, so the devices
// together hold one copy of the index, and both serve exact answers.
func TestEngineMultiGPU(t *testing.T) {
	db := makeTestDB(4000, 5, 2, 37)
	e, err := New(Config{
		MaxPartitionSize: 250, BatchSize: 32, Threads: 4,
		GPUs: 2, GPUWorkers: 2, StreamsPerGPU: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	devs := e.devices
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	verifyEngine(t, e, db, db.makeQueries(300, 38), false)
	verifyEngine(t, e, db, db.makeQueries(300, 36), true)

	idx := e.idx.Load()
	got, want := indexBytesPerDevice(e)
	var total int64
	for d := range devs {
		if got[d] != want[d] || want[d] == 0 {
			t.Fatalf("device %d holds %d index bytes, its own partitions are %d (all devices: %v, want %v)", d, got[d], want[d], got, want)
		}
		total += got[d]
	}
	if one := int64(totalGroups(idx.layout))*1592 + int64(len(idx.runs))*40; total != one {
		t.Fatalf("the devices hold %d index bytes together, one copy is %d", total, one)
	}
}

func TestEngineOverflowFallback(t *testing.T) {
	db := makeTestDB(2000, 5, 2, 39)
	e, err := New(Config{
		MaxPartitionSize: 500, BatchSize: 64, Threads: 2,
		GPUs: 1, GPUWorkers: 4, StreamsPerGPU: 2,
		maxPairsPerBatch: 4, // force overflows
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	verifyEngine(t, e, db, db.makeQueries(200, 40), false)
	if e.Stats().ResultOverflows == 0 {
		t.Fatal("expected result-buffer overflows with maxPairsPerBatch=4")
	}
	// The per-partition observability counters must agree that overflows
	// happened (they drive the tagmatch_partition_overflows_total series).
	var obsOverflows int64
	for _, ps := range e.Obs().Parts.Snapshot() {
		obsOverflows += ps.Overflows
	}
	if obsOverflows == 0 {
		t.Fatal("obs partition counters recorded no overflows")
	}
	// Overflow fallback is a planned host re-run, not a device fault: the
	// fault-tolerance counters must stay untouched.
	if st := e.Stats(); st.GPUFaults != 0 || st.CPUFallbacks != 0 {
		t.Fatalf("overflow fallback counted as fault: faults=%d fallbacks=%d",
			st.GPUFaults, st.CPUFallbacks)
	}
}

func TestEngineAblationConfigs(t *testing.T) {
	db := makeTestDB(2500, 5, 2, 41)
	queries := db.makeQueries(200, 42)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no-prefilter", func(c *Config) { c.DisablePrefilter = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				MaxPartitionSize: 200, BatchSize: 64, Threads: 2,
				GPUs: 1, GPUWorkers: 4, StreamsPerGPU: 2,
			}
			tc.mut(&cfg)
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			db.load(e)
			if err := e.Consolidate(); err != nil {
				t.Fatal(err)
			}
			verifyEngine(t, e, db, queries, true)
		})
	}
}

func TestEngineMatchVsMatchUniqueSemantics(t *testing.T) {
	// One key associated with two different sets, both matching the
	// query: match returns it twice, match-unique once.
	e, err := New(Config{MaxPartitionSize: 8, BatchSize: 4, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddSet([]string{"a"}, 7)
	e.AddSet([]string{"b"}, 7)
	e.AddSet([]string{"a", "b"}, 9)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	got, err := match(e, tagReq([]string{"a", "b", "c"}, false))
	if err != nil {
		t.Fatal(err)
	}
	sortKeysSlice(got)
	if fmt.Sprint(got) != "[7 7 9]" {
		t.Fatalf("match = %v, want [7 7 9]", got)
	}
	gotU, err := match(e, tagReq([]string{"a", "b", "c"}, true))
	if err != nil {
		t.Fatal(err)
	}
	sortKeysSlice(gotU)
	if fmt.Sprint(gotU) != "[7 9]" {
		t.Fatalf("match-unique = %v, want [7 9]", gotU)
	}
}

func TestEngineRemoveSet(t *testing.T) {
	e, err := New(Config{MaxPartitionSize: 8, BatchSize: 4, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddSet([]string{"x"}, 1)
	e.AddSet([]string{"x"}, 2)
	e.AddSet([]string{"y"}, 3)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	if got, _ := match(e, tagReq([]string{"x", "y"}, false)); len(got) != 3 {
		t.Fatalf("before removal: %v", got)
	}

	// Removal takes effect immediately through the delta overlay (a
	// tombstone suppresses the main-index entry), while the op stays in
	// the staged log until consolidation.
	e.RemoveSet([]string{"x"}, 1)
	got, _ := match(e, tagReq([]string{"x", "y"}, false))
	sortKeysSlice(got)
	if fmt.Sprint(got) != "[2 3]" {
		t.Fatalf("tombstoned removal still visible: %v, want [2 3]", got)
	}
	if e.PendingOps() != 1 {
		t.Fatalf("PendingOps = %d", e.PendingOps())
	}
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	got, _ = match(e, tagReq([]string{"x", "y"}, false))
	sortKeysSlice(got)
	if fmt.Sprint(got) != "[2 3]" {
		t.Fatalf("after removal: %v, want [2 3]", got)
	}

	// Removing the last key of a set drops the set entirely.
	e.RemoveSet([]string{"x"}, 2)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.UniqueSets != 1 {
		t.Fatalf("UniqueSets = %d after dropping set x", st.UniqueSets)
	}
}

// TestEngineRemoveSetOverlayDisabled pins the ablation contract: with
// the delta overlay off, updates are batch-only and a staged removal is
// invisible until Consolidate — the pre-live-update behavior.
func TestEngineRemoveSetOverlayDisabled(t *testing.T) {
	e, err := New(Config{
		MaxPartitionSize: 8, BatchSize: 4, Threads: 1,
		DisableLiveUpdates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddSet([]string{"x"}, 1)
	e.AddSet([]string{"y"}, 2)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	e.RemoveSet([]string{"x"}, 1)
	if got, _ := match(e, tagReq([]string{"x", "y"}, false)); len(got) != 2 {
		t.Fatalf("staged removal visible with overlay disabled: %v", got)
	}
	e.AddSet([]string{"z"}, 3)
	if got, _ := match(e, tagReq([]string{"z"}, false)); len(got) != 0 {
		t.Fatalf("staged add visible with overlay disabled: %v", got)
	}
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	got, _ := match(e, tagReq([]string{"x", "y", "z"}, false))
	sortKeysSlice(got)
	if fmt.Sprint(got) != "[2 3]" {
		t.Fatalf("after consolidate: %v, want [2 3]", got)
	}
}

func TestEngineEmptyDatabase(t *testing.T) {
	e, err := New(Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	got, err := match(e, tagReq([]string{"anything"}, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty database matched %v", got)
	}
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	if got, _ := match(e, tagReq([]string{"anything"}, false)); len(got) != 0 {
		t.Fatalf("still empty database matched %v", got)
	}
}

func TestEngineEmptyQuery(t *testing.T) {
	e, err := New(Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddSet([]string{"a"}, 1)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	got, err := match(e, tagReq(nil, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty query matched %v", got)
	}
}

func TestEngineBatchTimeout(t *testing.T) {
	// A single query in a 256-deep batch must complete within the flush
	// timeout without any manual flush.
	e, err := New(Config{
		MaxPartitionSize: 100, BatchSize: 256, Threads: 2,
		BatchTimeout: 20 * time.Millisecond,
		GPUs:         1, GPUWorkers: 2, StreamsPerGPU: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db := makeTestDB(500, 5, 1, 43)
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	q := db.makeQueries(1, 44)[0]
	done := make(chan MatchResult, 1)
	if err := e.Submit(context.Background(), Request{Sig: q}, func(r MatchResult) { done <- r }); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		want := db.expected(q, false)
		if len(r.Keys) != len(want) {
			t.Fatalf("timeout-flushed result has %d keys, want %d", len(r.Keys), len(want))
		}
		if e.Stats().BatchesTimedOut == 0 {
			t.Fatal("expected a timed-out batch")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query never completed: timeout flush broken")
	}
}

func TestEngineConsolidateUnderLoad(t *testing.T) {
	db := makeTestDB(1000, 5, 2, 45)
	e, err := New(Config{MaxPartitionSize: 100, BatchSize: 16, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}

	queries := db.makeQueries(500, 46)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	feederDone := make(chan struct{})
	go func() {
		defer close(feederDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			wg.Add(1)
			q := queries[i%len(queries)]
			if err := e.Submit(context.Background(), Request{Sig: q, Unique: true}, func(MatchResult) { wg.Done() }); err != nil {
				wg.Done()
				return
			}
			if i%50 == 0 {
				e.Drain()
			}
		}
	}()
	// Interleave consolidations with live traffic.
	for c := 0; c < 3; c++ {
		e.AddSet([]string{fmt.Sprintf("new-tag-%d", c)}, Key(100000+c))
		if err := e.Consolidate(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	// Join the feeder before draining: a submission concurrent with Drain
	// may legitimately miss the flush (and, with no batch timeout, park in
	// an open batch until the next one), and wg.Add must not race wg.Wait.
	<-feederDone
	e.Drain()
	wg.Wait()

	// The new sets are matchable after their consolidation.
	got, _ := match(e, tagReq([]string{"new-tag-0", "new-tag-1"}, false))
	sortKeysSlice(got)
	if fmt.Sprint(got) != "[100000 100001]" {
		t.Fatalf("post-consolidate match = %v", got)
	}
}

func TestEngineClosedErrors(t *testing.T) {
	e, err := New(Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := e.Submit(context.Background(), tagReq([]string{"a"}, false), nil); err != ErrClosed {
		t.Fatalf("Submit after close = %v, want ErrClosed", err)
	}
	if err := e.Consolidate(); err != ErrClosed {
		t.Fatalf("Consolidate after close = %v, want ErrClosed", err)
	}
}

// TestSubmitRacesClose: submitters racing Close — some past the closed
// check, some blocked on a full input channel — never send on the closed
// channel, and Close drops no admitted query: by the time it returns,
// every Submit that returned nil has had its done run, and every other
// Submit returned ErrClosed.
func TestSubmitRacesClose(t *testing.T) {
	const submitters, perSubmitter = 8, 2000
	db := makeTestDB(200, 5, 1, 131)
	queries := db.makeQueries(16, 132)
	for round := 0; round < 50; round++ {
		e, err := New(Config{MaxPartitionSize: 50, BatchSize: 16, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		db.load(e)
		if err := e.Consolidate(); err != nil {
			t.Fatal(err)
		}
		var admitted, done atomic.Int64
		underway := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perSubmitter; i++ {
					if g == 0 && i == perSubmitter/8 {
						close(underway)
					}
					err := e.Submit(context.Background(), Request{Sig: queries[i%len(queries)]}, func(MatchResult) { done.Add(1) })
					if err == nil {
						admitted.Add(1)
						continue
					}
					if !errors.Is(err, ErrClosed) {
						t.Errorf("Submit racing Close = %v, want nil or ErrClosed", err)
					}
					return
				}
			}()
		}
		<-underway
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		finished := done.Load()
		wg.Wait()
		if n := admitted.Load(); finished != n || done.Load() != n {
			t.Fatalf("round %d: %d submissions admitted, %d done callbacks run when Close returned", round, n, finished)
		}
	}
}

func TestEngineStats(t *testing.T) {
	db := makeTestDB(1000, 5, 2, 47)
	e, err := New(Config{MaxPartitionSize: 100, BatchSize: 16, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.UniqueSets != 1000 {
		t.Fatalf("UniqueSets = %d", st.UniqueSets)
	}
	if st.Partitions < 1000/100 {
		t.Fatalf("Partitions = %d", st.Partitions)
	}
	if st.HostBytes <= 0 {
		t.Fatal("HostBytes not accounted")
	}
	if st.LastConsolidate <= 0 {
		t.Fatal("LastConsolidate not recorded")
	}

	verifyEngine(t, e, db, db.makeQueries(50, 48), false)
	st = e.Stats()
	if st.QueriesSubmitted != 50 || st.QueriesCompleted != 50 {
		t.Fatalf("query counters: %+v", st)
	}
	if st.BatchesDispatched == 0 || st.PairsProduced == 0 || st.KeysDelivered == 0 {
		t.Fatalf("pipeline counters empty: %+v", st)
	}
}

func TestEngineLatencyReported(t *testing.T) {
	e, err := New(Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddSet([]string{"t"}, 1)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	done := make(chan MatchResult, 1)
	if err := e.Submit(context.Background(), tagReq([]string{"t", "u"}, false), func(r MatchResult) { done <- r }); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	r := <-done
	if r.Latency <= 0 {
		t.Fatalf("latency = %v", r.Latency)
	}
	if len(r.Keys) != 1 || r.Keys[0] != 1 {
		t.Fatalf("keys = %v", r.Keys)
	}
}

func TestDedupKeys(t *testing.T) {
	cases := []struct {
		in, want []Key
	}{
		{nil, nil},
		{[]Key{5}, []Key{5}},
		{[]Key{3, 3, 3}, []Key{3}},
		{[]Key{5, 1, 5, 2, 1}, []Key{1, 2, 5}},
	}
	for _, c := range cases {
		got := dedupKeys(append([]Key(nil), c.in...))
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Fatalf("dedup(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Large randomized check against a map-based reference.
	rng := rand.New(rand.NewSource(49))
	in := make([]Key, 5000)
	ref := map[Key]bool{}
	for i := range in {
		in[i] = Key(rng.Intn(700))
		ref[in[i]] = true
	}
	got := dedupKeys(in)
	if len(got) != len(ref) {
		t.Fatalf("dedup size %d, want %d", len(got), len(ref))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("dedup output not strictly increasing")
		}
	}
}

func TestEngineFirstFitAblationCorrect(t *testing.T) {
	db := makeTestDB(2000, 5, 2, 51)
	e, err := New(Config{
		MaxPartitionSize: 200, BatchSize: 64, Threads: 2,
		GPUs: 1, GPUWorkers: 4, StreamsPerGPU: 2,
		FirstFitPartitioning: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	verifyEngine(t, e, db, db.makeQueries(150, 52), true)
}

func TestEngineStageTimes(t *testing.T) {
	db := makeTestDB(2000, 5, 2, 53)
	e, err := New(Config{
		MaxPartitionSize: 200, BatchSize: 32, Threads: 2,
		GPUs: 1, GPUWorkers: 2, StreamsPerGPU: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	verifyEngine(t, e, db, db.makeQueries(200, 54), false)
	st := e.Stats()
	if st.PreprocessTime <= 0 || st.SubsetMatchTime <= 0 || st.ReduceTime <= 0 {
		t.Fatalf("stage times not recorded: pre=%v match=%v reduce=%v",
			st.PreprocessTime, st.SubsetMatchTime, st.ReduceTime)
	}
}

// TestQuickEngineAgreesWithTrie cross-validates two independent matcher
// implementations: a CPU-only engine and the Patricia trie must return
// identical key multisets for arbitrary generated databases and queries.
func TestQuickEngineAgreesWithTrie(t *testing.T) {
	f := func(dbSeed, qSeed int64, nRaw uint16) bool {
		n := int(nRaw%800) + 10
		sets := randomSets(n, 4, dbSeed)
		e, err := New(Config{MaxPartitionSize: 64, BatchSize: 16, Threads: 2})
		if err != nil {
			return false
		}
		defer e.Close()
		tr := trie.New()
		for i, s := range sets {
			e.AddSignature(s, Key(i))
			tr.Add(s, uint32(i))
		}
		if err := e.Consolidate(); err != nil {
			return false
		}
		tr.Freeze()
		for _, q := range randomSets(20, 7, qSeed) {
			got, err := match(e, Request{Sig: q})
			if err != nil {
				return false
			}
			var want []Key
			tr.Match(q, func(k uint32) { want = append(want, Key(k)) })
			sortKeysSlice(got)
			sortKeysSlice(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
