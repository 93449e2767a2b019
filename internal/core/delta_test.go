package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
)

// deltaEngineVariants returns the engines the live-update contract is
// pinned on: CPU-only (the kernel's host path) and two GPUs. Add/remove
// visibility must hold on both.
func deltaEngineVariants(t *testing.T, base Config) map[string]*Engine {
	t.Helper()
	variants := map[string]int{"cpu": 0, "gpu-sliced": 2}
	out := make(map[string]*Engine, len(variants))
	for name, gpus := range variants {
		cfg := base
		if gpus > 0 {
			cfg.GPUs, cfg.GPUWorkers, cfg.StreamsPerGPU = gpus, 2, 2
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		out[name] = e
	}
	return out
}

// TestDeltaVisibility pins the headline live-update contract on the host
// and the device path: an AddSignature is matchable immediately — no
// Consolidate — and a RemoveSignature disappears immediately from both
// match and match-unique; an add followed by a remove never surfaces; and
// consolidating afterward changes no answer.
func TestDeltaVisibility(t *testing.T) {
	db := makeTestDB(800, 5, 2, 151)
	for name, e := range deltaEngineVariants(t, Config{
		MaxPartitionSize: 100, BatchSize: 16, Threads: 2,
	}) {
		t.Run(name, func(t *testing.T) {
			db.load(e)
			if err := e.Consolidate(); err != nil {
				t.Fatal(err)
			}

			// A brand-new signature, disjoint from the generator's tag
			// universe, staged but not consolidated.
			fresh := randomSets(1, 6, 9000)[0]
			probe := fresh.Or(randomSets(1, 3, 9001)[0])
			e.AddSignature(fresh, 777)
			got, err := match(e, Request{Sig: probe})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != "[777]" {
				t.Fatalf("staged add not visible: %v, want [777]", got)
			}
			if e.Stats().DeltaMatches == 0 {
				t.Fatal("overlay matched but DeltaMatches counter is zero")
			}

			// Removing a main-index entry tombstones it out of match and
			// match-unique immediately.
			victimSig, victimKeys := db.sigs[3], db.keys[3]
			e.RemoveSignature(victimSig, victimKeys[0])
			q := victimSig.Or(randomSets(1, 2, 9002)[0])
			want := db.expected(q, false)
			want = deleteFirstKey(want, victimKeys[0])
			got, err = match(e, Request{Sig: q})
			if err != nil {
				t.Fatal(err)
			}
			sortKeysSlice(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("tombstoned key still visible: got %v want %v", got, want)
			}
			if len(victimKeys) == 1 {
				gotU, err := match(e, Request{Sig: q, Unique: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range gotU {
					if k == victimKeys[0] {
						t.Fatalf("tombstoned key %d still in unique answer", k)
					}
				}
			}

			// Exactly-once: an add immediately cancelled by a remove must
			// never surface, before or after consolidation.
			ghost := randomSets(1, 6, 9003)[0]
			e.AddSignature(ghost, 888)
			e.RemoveSignature(ghost, 888)
			if got, _ := match(e, Request{Sig: ghost}); len(got) != 0 {
				t.Fatalf("cancelled add surfaced: %v", got)
			}

			// Re-adding the removed key through the overlay restores it.
			e.AddSignature(victimSig, victimKeys[0])
			got, _ = match(e, Request{Sig: q})
			sortKeysSlice(got)
			wantBack := db.expected(q, false)
			if fmt.Sprint(got) != fmt.Sprint(wantBack) {
				t.Fatalf("re-added key missing: got %v want %v", got, wantBack)
			}

			// Consolidating folds the overlay into the main index with
			// byte-identical answers.
			if err := e.Consolidate(); err != nil {
				t.Fatal(err)
			}
			if e.PendingOps() != 0 {
				t.Fatalf("PendingOps = %d after consolidate", e.PendingOps())
			}
			got, _ = match(e, Request{Sig: probe})
			if fmt.Sprint(got) != "[777]" {
				t.Fatalf("consolidated add lost: %v", got)
			}
			got, _ = match(e, Request{Sig: q})
			sortKeysSlice(got)
			if fmt.Sprint(got) != fmt.Sprint(wantBack) {
				t.Fatalf("post-consolidate divergence: got %v want %v", got, wantBack)
			}
			if got, _ := match(e, Request{Sig: ghost}); len(got) != 0 {
				t.Fatalf("cancelled add surfaced after consolidate: %v", got)
			}
		})
	}
}

func deleteFirstKey(ks []Key, k Key) []Key {
	for i := range ks {
		if ks[i] == k {
			return append(ks[:i:i], ks[i+1:]...)
		}
	}
	return ks
}

// TestDeltaExactVerify checks that overlay matches respect exact tag
// verification: a staged add whose signature collides with a query must
// still be filtered by string comparison.
func TestDeltaExactVerify(t *testing.T) {
	e, err := New(Config{Threads: 1, ExactVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddSet([]string{"a", "b"}, 1)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	e.AddSet([]string{"a", "c"}, 2) // staged only

	got, err := match(e, tagReq([]string{"a", "c"}, false))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[2]" {
		t.Fatalf("exact overlay match = %v, want [2]", got)
	}
	// A query that covers neither set exactly returns nothing even if
	// signatures would pass the Bloom test.
	if got, _ := match(e, tagReq([]string{"a"}, false)); len(got) != 0 {
		t.Fatalf("partial query matched staged set: %v", got)
	}
	// Tombstone with exact tags.
	e.RemoveSet([]string{"a", "b"}, 1)
	if got, _ := match(e, tagReq([]string{"a", "b"}, false)); len(got) != 0 {
		t.Fatalf("tombstoned exact set still visible: %v", got)
	}
}

// TestDeltaTombstoneMultiset pins multiset semantics: when the same
// (signature, key) association exists twice in the main index, one
// remove suppresses exactly one copy, and a second remove suppresses the
// other.
func TestDeltaTombstoneMultiset(t *testing.T) {
	e, err := New(Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddSet([]string{"m"}, 5)
	e.AddSet([]string{"m"}, 5)
	e.AddSet([]string{"m"}, 6)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}

	e.RemoveSet([]string{"m"}, 5)
	got, _ := match(e, tagReq([]string{"m"}, false))
	sortKeysSlice(got)
	if fmt.Sprint(got) != "[5 6]" {
		t.Fatalf("after one remove: %v, want [5 6]", got)
	}
	gotU, _ := match(e, tagReq([]string{"m"}, true))
	sortKeysSlice(gotU)
	if fmt.Sprint(gotU) != "[5 6]" {
		t.Fatalf("unique after one remove: %v, want [5 6]", gotU)
	}
	if e.Stats().TombstoneSuppressed == 0 {
		t.Fatal("no tombstone suppressions recorded")
	}

	e.RemoveSet([]string{"m"}, 5)
	got, _ = match(e, tagReq([]string{"m"}, false))
	if fmt.Sprint(got) != "[6]" {
		t.Fatalf("after two removes: %v, want [6]", got)
	}

	// Consolidation agrees.
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	got, _ = match(e, tagReq([]string{"m"}, false))
	if fmt.Sprint(got) != "[6]" {
		t.Fatalf("after consolidate: %v, want [6]", got)
	}
}

// TestDeltaBackgroundConsolidate forces the auto-consolidation
// threshold low and verifies the background goroutine folds the overlay
// into the main index without any explicit Consolidate call: the
// auto-consolidation counter advances, the overlay falls back under its
// threshold, and every key stays matchable throughout. Fewer than
// DeltaMaxSets ops staged after the last fold never start another; the
// overlay answers for them.
func TestDeltaBackgroundConsolidate(t *testing.T) {
	e, err := New(Config{
		MaxPartitionSize: 50, BatchSize: 16, Threads: 2,
		DeltaMaxSets: 16, DeltaMaxRatio: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	db := makeTestDB(400, 5, 1, 157)
	for i, sig := range db.sigs {
		e.AddSignature(sig, db.keys[i][0])
		if i%37 == 0 {
			// Interleave queries with staging; answers must always cover
			// what has been added so far.
			q := db.sigs[i].Or(randomSets(1, 2, int64(9100+i))[0])
			got, err := match(e, Request{Sig: q})
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, k := range got {
				if k == db.keys[i][0] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("key %d staged at op %d not matchable", db.keys[i][0], i)
			}
		}
	}

	deadline := time.Now().Add(20 * time.Second)
	for {
		st := e.Stats()
		if st.AutoConsolidations >= 1 && !e.deltaOverThreshold() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background consolidator never caught up: %d auto-consolidations, %d pending",
				st.AutoConsolidations, e.PendingOps())
		}
		time.Sleep(5 * time.Millisecond)
	}

	verifyEngine(t, e, db, db.makeQueries(200, 158), false)
	if st := e.Stats(); st.LastSwapPause <= 0 {
		t.Fatalf("LastSwapPause = %v, want > 0", st.LastSwapPause)
	}
}

// TestDeltaIncrementalFold drives sustained add/remove churn through
// many background folds and pins the incremental Phase B path: folds of
// a small delta must take the incremental splice (IncrementalFolds
// advances), fully-removed sets (emptied rows), re-added signatures
// (refilled rows), and appended delta partitions must all keep exact
// signature-level answers, and a final synchronous Consolidate — the
// full-rebuild path that resets the drift — must not change any answer.
// The device variants additionally pin the Phase C adoption path: the
// swapped-in index serves appended partitions from extent buffers on
// carried-over device state, each device its own partitions.
func TestDeltaIncrementalFold(t *testing.T) {
	t.Run("cpu", func(t *testing.T) { testDeltaIncrementalFold(t, Config{}) })
	t.Run("gpu-partitioned", func(t *testing.T) {
		testDeltaIncrementalFold(t, Config{
			GPUs: 2, GPUWorkers: 2, StreamsPerGPU: 2,
		})
	})
}

func testDeltaIncrementalFold(t *testing.T, cfg Config) {
	cfg.MaxPartitionSize, cfg.BatchSize, cfg.Threads = 50, 16, 2
	cfg.DeltaMaxSets, cfg.DeltaMaxRatio = 24, 1e-9
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	db := makeTestDB(600, 5, 2, 163)
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}

	// Signature-level model of what the engine should serve.
	model := make(map[bitvec.Vector][]Key, len(db.sigs))
	for i, sig := range db.sigs {
		model[sig] = append(model[sig], db.keys[i]...)
	}
	expect := func(q bitvec.Vector) []Key {
		var out []Key
		for sig, ks := range model {
			if sig.SubsetOf(q) {
				out = append(out, ks...)
			}
		}
		sortKeysSlice(out)
		return out
	}
	probe := func(step int) {
		t.Helper()
		q := db.sigs[step%len(db.sigs)].Or(randomSets(1, 2, int64(9300+step))[0])
		got, err := match(e, Request{Sig: q})
		if err != nil {
			t.Fatal(err)
		}
		sortKeysSlice(got)
		if want := expect(q); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: got %v want %v", step, got, want)
		}
	}

	rng := rand.New(rand.NewSource(164))
	var emptied []bitvec.Vector
	next := Key(1_000_000)
	for step := 0; step < 500; step++ {
		switch {
		case rng.Float64() < 0.15:
			// Empty a whole set: its row stays, empty, after the fold.
			sig := db.sigs[rng.Intn(len(db.sigs))]
			for _, k := range model[sig] {
				e.RemoveSignature(sig, k)
			}
			delete(model, sig)
			emptied = append(emptied, sig)
		case len(emptied) > 0 && rng.Float64() < 0.2:
			// Re-add an emptied signature: the fold refills its row.
			sig := emptied[len(emptied)-1]
			emptied = emptied[:len(emptied)-1]
			e.AddSignature(sig, next)
			model[sig] = append(model[sig], next)
			next++
		case rng.Float64() < 0.3:
			// Remove one association from a random live set.
			sig := db.sigs[rng.Intn(len(db.sigs))]
			if ks := model[sig]; len(ks) > 0 {
				e.RemoveSignature(sig, ks[0])
				if len(ks) == 1 {
					delete(model, sig)
				} else {
					model[sig] = ks[1:]
				}
			}
		default:
			sig := db.sigs[rng.Intn(len(db.sigs))]
			e.AddSignature(sig, next)
			model[sig] = append(model[sig], next)
			next++
		}
		if step%61 == 0 {
			probe(step)
		}
		// Pace the churn so each background fold sees a small cut — the
		// eligibility condition for the splice path (a fold of half the
		// database is rightly a full rebuild).
		if step%10 == 9 {
			for w := 0; w < 400 && e.PendingOps() > 60; w++ {
				time.Sleep(time.Millisecond)
			}
		}
	}

	// Wait for the consolidator to catch up. A residue below the
	// threshold stays staged by design — the overlay serves it.
	deadline := time.Now().Add(20 * time.Second)
	for e.PendingOps() > 24 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := e.Stats()
	if st.IncrementalFolds < 1 {
		t.Fatalf("IncrementalFolds = %d, want >= 1 (splice path never exercised)", st.IncrementalFolds)
	}
	for step := 0; step < 50; step++ {
		probe(1000 + step)
	}

	// The full rebuild must agree with the spliced index it replaces.
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 50; step++ {
		probe(2000 + step)
	}
}

// FuzzDeltaMatch is the differential fuzz required by the live-update
// contract: a byte string drives an interleaved add/remove/match
// sequence against two engines — one answering straight through the
// delta overlay, the other consolidated before every match (the oracle).
// Sorted answers must be identical at every probe point.
func FuzzDeltaMatch(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x81, 0x12, 0x01})
	f.Add([]byte{0x00, 0x10, 0x90, 0x00, 0x10, 0xff, 0x42})
	f.Add([]byte{0xaa, 0x55, 0xaa, 0x55, 0x07, 0x86})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		live, err := New(Config{MaxPartitionSize: 8, BatchSize: 4, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer live.Close()
		oracle, err := New(Config{
			MaxPartitionSize: 8, BatchSize: 4, Threads: 1,
			DisableLiveUpdates: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer oracle.Close()

		// A tiny tag universe (8 tags) and key space (8 keys) so random
		// bytes collide often enough to exercise multiset tombstones.
		tagOf := func(b byte) []string {
			var tags []string
			for i := 0; i < 8; i++ {
				if b&(1<<i) != 0 {
					tags = append(tags, fmt.Sprintf("t%d", i))
				}
			}
			if len(tags) == 0 {
				tags = []string{"t0"}
			}
			return tags
		}
		probe := func(b byte) {
			tags := tagOf(b | b>>1) // widen so subsets exist
			got, err := match(live, tagReq(tags, false))
			if err != nil {
				t.Fatal(err)
			}
			if err := oracle.Consolidate(); err != nil {
				t.Fatal(err)
			}
			want, err := match(oracle, tagReq(tags, false))
			if err != nil {
				t.Fatal(err)
			}
			sortKeysSlice(got)
			sortKeysSlice(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("divergence on %v: overlay %v, oracle %v", tags, got, want)
			}
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			key := Key(arg&0x07) + 1
			switch op % 4 {
			case 0, 1: // add (twice as likely as remove)
				live.AddSet(tagOf(arg), key)
				oracle.AddSet(tagOf(arg), key)
			case 2: // remove
				live.RemoveSet(tagOf(arg), key)
				oracle.RemoveSet(tagOf(arg), key)
			case 3: // match
				probe(arg)
			}
		}
		probe(0xff)
		// Final cross-check: consolidating the live engine must not change
		// its answers either.
		if err := live.Consolidate(); err != nil {
			t.Fatal(err)
		}
		probe(0xff)
	})
}

// TestChaosDeltaSwap crosses every moving part shipped so far: a churn
// goroutine streams adds and removes through the overlay while query
// workers run against two faulty devices with hedging enabled, and a
// deliberately low threshold forces repeated background consolidation
// swaps mid-flight. A stable core of the database is never touched by
// churn, so every answer must contain its keys; under -race this also
// proves the three-phase swap publishes the new index safely.
func TestChaosDeltaSwap(t *testing.T) {
	db := makeTestDB(1000, 5, 2, 161)
	e, err := New(Config{
		MaxPartitionSize: 100, BatchSize: 32, Threads: 4,
		GPUs: 2, GPUWorkers: 2, StreamsPerGPU: 2,
		quarantineBackoff: time.Millisecond,
		HedgeAfter:        time.Millisecond,
		DeltaMaxSets:      32, DeltaMaxRatio: 0.01,
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
	devs[0].SetFaultPlan(&gpu.FaultPlan{
		Seed: 31, CopyFailProb: 0.03, LaunchFailProb: 0.03,
		SlowProb: 0.02, SlowDelay: time.Millisecond,
	})

	stableSig, stableKeys := db.sigs[0], db.keys[0]
	stableQuery := stableSig.Or(randomSets(1, 2, 9200)[0])

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Churn worker: streams adds and removes of disposable associations,
	// keeping the overlay hot and repeatedly tripping the consolidation
	// threshold.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(163))
		next := Key(1_000_000)
		type assoc struct {
			sig bitvec.Vector
			key Key
		}
		var livePool []assoc
		for !stop.Load() {
			if len(livePool) < 50 || rng.Intn(3) > 0 {
				sig := db.sigs[rng.Intn(len(db.sigs))]
				e.AddSignature(sig, next)
				livePool = append(livePool, assoc{sig, next})
				next++
			} else {
				i := rng.Intn(len(livePool))
				e.RemoveSignature(livePool[i].sig, livePool[i].key)
				livePool[i] = livePool[len(livePool)-1]
				livePool = livePool[:len(livePool)-1]
			}
		}
	}()

	// Query workers: the stable keys must be present in every single
	// answer regardless of swap timing, faults, hedges, or churn.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400 && !stop.Load(); i++ {
				got, err := match(e, Request{Sig: stableQuery})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				present := make(map[Key]bool, len(got))
				for _, k := range got {
					present[k] = true
				}
				for _, k := range stableKeys {
					if !present[k] {
						t.Errorf("worker %d query %d: stable key %d missing from %d-key answer",
							w, i, k, len(got))
						return
					}
				}
			}
		}(w)
	}

	// Let the system churn long enough for several background swaps.
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().AutoConsolidations < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	st := e.Stats()
	if st.AutoConsolidations < 2 {
		t.Fatalf("AutoConsolidations = %d, want >= 2 (swaps never exercised)", st.AutoConsolidations)
	}
	if st.QueriesCompleted != st.QueriesSubmitted {
		t.Fatalf("lost queries: submitted %d completed %d", st.QueriesSubmitted, st.QueriesCompleted)
	}

	// Quiesce and hold the final state to exact parity on the stable
	// portion after one last synchronous consolidation. Faults off
	// first: a still-armed 3% copy fault would occasionally degrade this
	// upload (legal — the engine stays correct CPU-only — but it is the
	// healthy swap we want to assert here).
	devs[0].SetFaultPlan(nil)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	got, err := match(e, Request{Sig: stableQuery})
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[Key]bool, len(got))
	for _, k := range got {
		present[k] = true
	}
	for _, k := range stableKeys {
		if !present[k] {
			t.Fatalf("stable key %d missing after final consolidate", k)
		}
	}
}

// TestDeltaFoldBehindConsolidate: a background fold that queued on
// consolidateMu behind a synchronous Consolidate finds nothing left to
// fold when its turn comes; it must not swap the generation or upload the
// index again.
func TestDeltaFoldBehindConsolidate(t *testing.T) {
	e, err := New(Config{
		MaxPartitionSize: 100, BatchSize: 64, Threads: 2,
		GPUs: 1, GPUWorkers: 2, StreamsPerGPU: 2,
		DeltaMaxSets: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := e.devices[0]
	defer e.Close()
	db := makeTestDB(1000, 5, 1, 171)
	// The load crosses DeltaMaxSets many times over; with the consolidation
	// mutex held, the fold it wakes queues there, and Consolidate — asking
	// for the mutex the moment it is released — usually gets in first.
	e.consolidateMu.Lock()
	db.load(e)
	e.consolidateMu.Unlock()
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	gen, mem, uploaded := e.idx.Load(), deviceMem(e), dev.Stats().BytesHtoD
	// Two kicks: the consolidator takes the second only from its idle
	// select, which it reaches after the fold the load woke has returned.
	e.consolKick <- struct{}{}
	e.consolKick <- struct{}{}
	if err := e.consolidateOnce(true, setList{}); err != nil {
		t.Fatal(err)
	}
	if e.idx.Load() != gen {
		t.Fatal("a background fold with nothing staged swapped the index generation")
	}
	if n := dev.Stats().BytesHtoD - uploaded; n != 0 {
		t.Fatalf("%d bytes uploaded after Consolidate returned, with nothing staged", n)
	}
	verifyEngine(t, e, db, db.makeQueries(100, 172), false)
	assertDrained(t, e, mem)
}

// TestDeltaFoldUploadsOnlyAppendedPartitions pins what keeps a
// background fold's swap pause short: an incremental fold of DeltaMaxSets
// new sets adopts the base index's device state and copies only the
// partitions it appended, so its host-to-device bytes are a small
// fraction of the base upload. Re-uploading the base at the swap would
// copy about as much again. Each device receives exactly the groups and
// run nodes of the partitions it owns, so across devices the base and the
// fold are each one copy. The appended partitions must then answer
// exactly, with nothing left in the overlay to answer for them.
func TestDeltaFoldUploadsOnlyAppendedPartitions(t *testing.T) {
	t.Run("gpus=1", func(t *testing.T) { testDeltaFoldUploads(t, 1, 16) })
	// Enough sets for several appended partitions, dealt over both devices.
	t.Run("gpus=2", func(t *testing.T) { testDeltaFoldUploads(t, 2, 128) })
}

func testDeltaFoldUploads(t *testing.T, nDev, foldSets int) {
	db := makeTestDB(4000, 5, 2, 173)
	e, err := New(Config{
		MaxPartitionSize: 100, BatchSize: 32, Threads: 2,
		GPUs: nDev, GPUWorkers: 2, StreamsPerGPU: 2,
		DeltaMaxSets: foldSets, DeltaMaxRatio: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	devs := e.devices
	uploaded := func() []int64 {
		out := make([]int64, nDev)
		for d, dev := range devs {
			out[d] = dev.Stats().BytesHtoD
		}
		return out
	}
	// owned is what device d must hold of partitions [from, to): the
	// groups and run nodes of those it owns, and nothing of the others.
	owned := func(from, to int) []int64 {
		idx := e.idx.Load()
		out := make([]int64, nDev)
		for _, p := range idx.parts[from:to] {
			out[p.dev] += int64(p.nGroups())*slicedGroupBytes + int64(p.nRuns)*runNodeBytes
		}
		return out
	}

	// The base goes in as one bulk Consolidate (LoadSnapshot's path), so
	// the small fold threshold starts no fold before it.
	if err := e.consolidateOnce(false, db.bulk()); err != nil {
		t.Fatal(err)
	}
	baseParts := len(e.idx.Load().parts)
	perDevBase := uploaded()
	if want := owned(0, baseParts); fmt.Sprint(perDevBase) != fmt.Sprint(want) {
		t.Fatalf("base upload per device %v B, want each device's own partitions, %v B", perDevBase, want)
	}
	var baseUpload int64
	for _, n := range perDevBase {
		baseUpload += n
	}

	// DeltaMaxSets new sets, and no query traffic: the one fold they
	// trigger is the only thing that can copy to the device.
	next := Key(1 << 20)
	for _, sig := range randomSets(foldSets, 5, 174) {
		db.sigs = append(db.sigs, sig)
		db.keys = append(db.keys, []Key{next})
		e.AddSignature(sig, next)
		next++
	}
	for deadline := time.Now().Add(10 * time.Second); e.Stats().IncrementalFolds == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no incremental fold within 10s")
		}
	}
	e.consolidateMu.Lock() // the fold has swapped its index in once this is free
	e.consolidateMu.Unlock()

	st := e.Stats()
	if st.IncrementalFolds != 1 || st.AutoConsolidations != 1 || e.PendingOps() != 0 {
		t.Fatalf("%d incremental folds of %d background folds, %d ops pending; want one fold of everything",
			st.IncrementalFolds, st.AutoConsolidations, e.PendingOps())
	}
	parts := len(e.idx.Load().parts)
	if parts <= baseParts {
		t.Fatalf("the fold appended no partitions: %d before, %d after", baseParts, parts)
	}
	perDevFold := uploaded()
	var foldUpload int64
	for d := range perDevFold {
		perDevFold[d] -= perDevBase[d]
		foldUpload += perDevFold[d]
	}
	if want := owned(baseParts, parts); fmt.Sprint(perDevFold) != fmt.Sprint(want) {
		t.Fatalf("fold upload per device %v B, want each device's own appended partitions, %v B", perDevFold, want)
	}
	for d, n := range perDevFold {
		if n == 0 {
			t.Fatalf("device %d owns none of the %d appended partitions: the fixture does not spread the fold", d, parts-baseParts)
		}
	}
	t.Logf("base upload %d B, fold upload %d B", baseUpload, foldUpload)
	if foldUpload <= 0 || foldUpload*8 >= baseUpload {
		t.Fatalf("the fold copied %d bytes to the device against a %d-byte base upload; want (0, %d)",
			foldUpload, baseUpload, baseUpload/8)
	}

	verifyEngine(t, e, db, db.sigs[len(db.sigs)-foldSets:], false)
	verifyEngine(t, e, db, db.makeQueries(100, 175), false)
}

// TestDeltaFoldKeepsLayout pins the one-row-per-signature rule through
// incremental folds that empty whole sets and then re-add them: a re-add
// refills its signature's emptied row, so no fold appends a row or a
// partition, none copies a byte to a device, each shares its
// predecessor's row table, and every answer equals brute force.
func TestDeltaFoldKeepsLayout(t *testing.T) {
	db := makeTestDB(2000, 5, 2, 176)
	e, err := New(Config{
		MaxPartitionSize: 100, BatchSize: 32, Threads: 2,
		GPUs: 2, GPUWorkers: 2, StreamsPerGPU: 2,
		DeltaMaxSets: 1, DeltaMaxRatio: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	devs := e.devices
	defer e.Close()
	if err := e.consolidateOnce(false, db.bulk()); err != nil {
		t.Fatal(err)
	}
	// Hold the background consolidator off: each fold below runs once,
	// on everything staged.
	e.consolidateMu.Lock()
	defer e.consolidateMu.Unlock()
	base := e.idx.Load()
	sets, parts := len(base.sets), len(base.parts)
	uploaded := func() (out [2]int64) {
		for d, dev := range devs {
			out[d] = dev.Stats().BytesHtoD
		}
		return out
	}
	fold := func(what string) {
		t.Helper()
		old, h2d, folds := e.idx.Load(), uploaded(), e.Stats().IncrementalFolds
		e.consolidateMu.Unlock()
		err := e.consolidateOnce(true, setList{})
		e.consolidateMu.Lock()
		if err != nil {
			t.Fatal(err)
		}
		idx := e.idx.Load()
		if idx == old || e.PendingOps() != 0 || e.Stats().IncrementalFolds != folds+1 {
			t.Fatalf("%s: want one incremental fold of everything staged, %d ops left", what, e.PendingOps())
		}
		if len(idx.sets) != sets || len(idx.parts) != parts {
			t.Fatalf("%s: %d rows in %d partitions, want the base's %d in %d",
				what, len(idx.sets), len(idx.parts), sets, parts)
		}
		if now := uploaded(); now != h2d {
			t.Fatalf("%s: a key-only fold copied to the devices: %v B before, %v B after", what, h2d, now)
		}
		if &idx.rows[0] != &old.rows[0] {
			t.Fatalf("%s: a fold that appends no row copied the row table", what)
		}
	}

	rng := rand.New(rand.NewSource(177))
	perm := rng.Perm(len(db.sigs))
	groups := [][]int{perm[:30], perm[30:60]}
	next := Key(1 << 20)
	for round := range 4 {
		group := groups[round%2]
		// Empty the group's sets, and churn keys of sets outside it.
		for _, i := range group {
			for _, k := range db.keys[i] {
				e.RemoveSignature(db.sigs[i], k)
			}
			db.keys[i] = nil
		}
		for _, i := range perm[100+10*round : 110+10*round] {
			e.AddSignature(db.sigs[i], next)
			db.keys[i] = append(db.keys[i], next)
			next++
		}
		fold(fmt.Sprintf("round %d, emptying", round))
		if n := e.idx.Load().emptyRows; n != len(group) {
			t.Fatalf("round %d: %d empty rows, want %d", round, n, len(group))
		}
		verifyEngine(t, e, db, db.makeQueries(100, int64(178+round)), false)

		// Re-add every emptied signature, some with two keys.
		for j, i := range group {
			for range 1 + j%2 {
				e.AddSignature(db.sigs[i], next)
				db.keys[i] = append(db.keys[i], next)
				next++
			}
		}
		fold(fmt.Sprintf("round %d, re-adding", round))
		if n := e.idx.Load().emptyRows; n != 0 {
			t.Fatalf("round %d: %d empty rows after every emptied set came back", round, n)
		}
		var qs []bitvec.Vector
		for _, i := range group {
			qs = append(qs, db.sigs[i])
		}
		verifyEngine(t, e, db, qs, false)
		verifyEngine(t, e, db, db.makeQueries(100, int64(182+round)), false)
	}
}
