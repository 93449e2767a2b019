package core

import (
	"fmt"
	"math/rand"
	"slices"
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
// a small delta must take the key-only path (IncrementalFolds advances),
// fully-removed sets (emptied rows) and re-added signatures (refilled
// rows) must keep exact signature-level answers, on the host and on two
// devices, and a final synchronous Consolidate — the full-rebuild path
// that resets the drift — must not change any answer.
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
// workers run against two faulty, straggling devices, and a
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
	// answer regardless of swap timing, faults, stragglers, or churn.
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

// TestDeltaNewSignatureFoldRebuilds pins the layout rule for a cut that
// holds a signature the index has never held, beside key churn on stored
// ones: the background fold takes a full build (AutoConsolidations goes
// up, IncrementalFolds does not) and lays out a new layout with a row for
// it, each device then holds exactly the groups and run nodes of its own
// partitions, and answers equal brute force — on the host and on two
// devices.
func TestDeltaNewSignatureFoldRebuilds(t *testing.T) {
	for _, gpus := range []int{0, 2} {
		t.Run(fmt.Sprintf("gpus=%d", gpus), func(t *testing.T) {
			db := makeTestDB(2000, 5, 2, 173)
			e, err := New(Config{
				MaxPartitionSize: 100, BatchSize: 32, Threads: 2,
				GPUs: gpus, GPUWorkers: 2, StreamsPerGPU: 2,
				DeltaMaxSets: 1, DeltaMaxRatio: 1e-9,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := e.consolidateOnce(false, db.bulk()); err != nil {
				t.Fatal(err)
			}
			// Hold the background consolidator off: the fold below runs
			// once, on everything staged.
			e.consolidateMu.Lock()
			defer e.consolidateMu.Unlock()
			old, before, pc := e.idx.Load(), e.Stats(), e.obs.Parts.Get(0)

			next := Key(1 << 20)
			for _, i := range []int{3, 70, 900} {
				e.AddSignature(db.sigs[i], next)
				db.keys[i] = append(db.keys[i], next)
				next++
			}
			two := slices.IndexFunc(db.keys, func(ks []Key) bool { return len(ks) == 2 })
			e.RemoveSignature(db.sigs[two], db.keys[two][0])
			db.keys[two] = db.keys[two][1:]
			fresh := randomSets(1, 5, 174)[0]
			if _, ok := old.rows.lookup(old.sets, fresh); ok {
				t.Fatal("the fixture's new signature is in the index")
			}
			e.AddSignature(fresh, next)
			db.sigs = append(db.sigs, fresh)
			db.keys = append(db.keys, []Key{next})

			e.consolidateMu.Unlock()
			err = e.consolidateOnce(true, setList{})
			e.consolidateMu.Lock()
			if err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if st.IncrementalFolds != before.IncrementalFolds || st.AutoConsolidations != before.AutoConsolidations+1 || e.PendingOps() != 0 {
				t.Fatalf("%d incremental folds (before %d) of %d background folds (before %d), %d ops pending; want one full build of everything",
					st.IncrementalFolds, before.IncrementalFolds, st.AutoConsolidations, before.AutoConsolidations, e.PendingOps())
			}
			idx := e.idx.Load()
			if idx.layout == old.layout || e.obs.Parts.Get(0) == pc {
				t.Fatal("a fold of a new signature kept its predecessor's layout or per-partition counters")
			}
			if _, ok := idx.rows.lookup(idx.sets, fresh); !ok || len(idx.sets) != len(old.sets)+1 {
				t.Fatalf("%d rows, before %d: the new signature has no row of its own", len(idx.sets), len(old.sets))
			}
			if gpus > 0 {
				if got, want := indexBytesPerDevice(e); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("devices hold %v index bytes, their own partitions are %v", got, want)
				}
			}
			verifyEngine(t, e, db, append([]bitvec.Vector{fresh}, db.makeQueries(200, 175)...), false)
			assertDrained(t, e, deviceMem(e))
		})
	}
}

// TestDeltaFoldKeepsLayout pins the one-row-per-signature rule through
// incremental folds that empty whole sets and then re-add them: a re-add
// refills its signature's emptied row, so every fold shares its
// predecessor's layout by pointer — no row, partition or device byte
// added, no byte copied to a device, the per-partition counters kept —
// and every answer equals brute force, on the host and on two devices.
func TestDeltaFoldKeepsLayout(t *testing.T) {
	for _, gpus := range []int{0, 2} {
		t.Run(fmt.Sprintf("gpus=%d", gpus), func(t *testing.T) { testDeltaFoldKeepsLayout(t, gpus) })
	}
}

func testDeltaFoldKeepsLayout(t *testing.T, gpus int) {
	db := makeTestDB(2000, 5, 2, 176)
	e, err := New(Config{
		MaxPartitionSize: 100, BatchSize: 32, Threads: 2,
		GPUs: gpus, GPUWorkers: 2, StreamsPerGPU: 2,
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
	sets, parts, mem := len(base.sets), len(base.parts), deviceMem(e)
	uploaded := func() (n int64) {
		for _, dev := range devs {
			n += dev.Stats().BytesHtoD
		}
		return n
	}
	fold := func(what string) {
		t.Helper()
		old, h2d, folds, pc := e.idx.Load(), uploaded(), e.Stats().IncrementalFolds, e.obs.Parts.Get(0)
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
		if idx.layout != base.layout {
			t.Fatalf("%s: a key-only fold laid out a new layout", what)
		}
		if len(idx.sets) != sets || len(idx.parts) != parts {
			t.Fatalf("%s: %d rows in %d partitions, want the base's %d in %d",
				what, len(idx.sets), len(idx.parts), sets, parts)
		}
		if n := uploaded() - h2d; n != 0 {
			t.Fatalf("%s: a key-only fold copied %d bytes to the devices", what, n)
		}
		if now := deviceMem(e); fmt.Sprint(now) != fmt.Sprint(mem) {
			t.Fatalf("%s: the devices hold %v bytes, the base's %v", what, now, mem)
		}
		if e.obs.Parts.Get(0) != pc {
			t.Fatalf("%s: a key-only fold reset the per-partition counters", what)
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
