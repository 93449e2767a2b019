package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
)

// TestRowTableProbe drives the table on its own: every row's signature
// resolves to that row, a signature never inserted resolves to nothing,
// rows inserted into the room a fill reserved resolve too (listDatabase's
// use), and a table holds at most half as many rows as slots.
func TestRowTableProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	distinct := randomSets(650, 3, 202)
	sets := slices.Clone(distinct[:600])
	rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
	check := func(name string, tab rowTable, sets []bitvec.Vector) {
		t.Helper()
		want := make(map[bitvec.Vector]uint32)
		for r, sig := range sets {
			want[sig] = uint32(r)
		}
		for _, sig := range distinct {
			r, ok := tab.lookup(sets, sig)
			wr, wok := want[sig]
			if ok != wok || ok && r != wr {
				t.Fatalf("%s: lookup = (%d, %v), want (%d, %v)", name, r, ok, wr, wok)
			}
		}
	}

	full := fillRowTable(sets, len(sets))
	check("fill", full, sets)
	if len(full) < 2*len(sets) {
		t.Fatalf("table has %d slots for %d rows", len(full), len(sets))
	}
	part := fillRowTable(sets[:400], len(sets))
	check("fill part", part, sets[:400])
	for r := 400; r < len(sets); r++ {
		part.insert(sets, uint32(r))
	}
	check("insert", part, sets)
	if _, ok := rowTable(nil).lookup(nil, distinct[0]); ok {
		t.Fatal("an empty table resolved a signature")
	}
}

// rowModel is the brute-force database the live index is held to: each
// signature's keys as a multiset, and the tags it was added with.
type rowModel struct {
	keys map[bitvec.Vector][]Key
	tags map[bitvec.Vector][]string
}

func (m *rowModel) clone() rowModel {
	c := rowModel{keys: make(map[bitvec.Vector][]Key, len(m.keys)), tags: m.tags}
	for sig, ks := range m.keys {
		c.keys[sig] = slices.Clone(ks)
	}
	return c
}

func (m *rowModel) apply(sig bitvec.Vector, key Key, remove bool) {
	if !remove {
		m.keys[sig] = append(m.keys[sig], key)
	} else if slices.Contains(m.keys[sig], key) {
		m.keys[sig] = deleteFirstKey(m.keys[sig], key)
	}
}

// rowTableRig stages ops on an engine whose background folds it holds
// off, and classifies every staged remove both ways: by the overlay's
// counters, and by the model (a tombstone while the consolidated
// database still has an unsuppressed entry for the key, else the
// cancellation of a live overlay add, else a no-op).
type rowTableRig struct {
	t      *testing.T
	e      *Engine
	exact  bool
	main   rowModel // as of the last consolidation
	live   rowModel // main ⊕ staged
	tombs  map[tombKey]int
	adds   map[tombKey]int
	staged int
}

func (g *rowTableRig) reset() {
	g.main = g.live.clone()
	g.tombs = make(map[tombKey]int)
	g.adds = make(map[tombKey]int)
	g.staged = 0
}

func (g *rowTableRig) add(tags []string, key Key) {
	sig := bloom.Signature(tags)
	g.live.tags[sig] = tags
	g.e.AddSet(tags, key)
	g.live.apply(sig, key, false)
	g.adds[tombKey{sig: sig, key: key}]++
	g.staged++
}

func (g *rowTableRig) remove(tags []string, key Key) {
	g.t.Helper()
	sig := bloom.Signature(tags)
	tk := tombKey{sig: sig, key: key}
	want := "no-op"
	if g.tombs[tk] < countKey(g.main.keys[sig], key) {
		g.tombs[tk]++
		want = "tombstone"
	} else if g.adds[tk] > 0 {
		g.adds[tk]--
		want = "cancel"
	}
	tombs, adds := g.e.delta.tombsLive.Load(), g.e.delta.addsLive.Load()
	g.e.RemoveSet(tags, key)
	got := "no-op"
	switch {
	case g.e.delta.tombsLive.Load() == tombs+1 && g.e.delta.addsLive.Load() == adds:
		got = "tombstone"
	case g.e.delta.addsLive.Load() == adds-1 && g.e.delta.tombsLive.Load() == tombs:
		got = "cancel"
	case g.e.delta.tombsLive.Load() != tombs || g.e.delta.addsLive.Load() != adds:
		got = "both"
	}
	if got != want {
		g.t.Fatalf("remove of key %d classified %s, model says %s", key, got, want)
	}
	g.live.apply(sig, key, true)
	g.staged++
}

func countKey(keys []Key, k Key) int {
	n := 0
	for _, kk := range keys {
		if kk == k {
			n++
		}
	}
	return n
}

// fold runs one background fold of everything staged and requires it to
// have taken the incremental path, keeping the layout, or else a full
// build, laying out a new one.
func (g *rowTableRig) fold(incremental bool) {
	g.t.Helper()
	old, before := g.e.idx.Load(), g.e.Stats()
	g.e.consolidateMu.Unlock()
	err := g.e.consolidateOnce(true, setList{})
	g.e.consolidateMu.Lock()
	if err != nil {
		g.t.Fatal(err)
	}
	st := g.e.Stats()
	if n := g.e.PendingOps(); n != 0 || st.AutoConsolidations != before.AutoConsolidations+1 {
		g.t.Fatalf("%d ops left, %d background folds after %d; want one fold of all %d",
			n, st.AutoConsolidations, before.AutoConsolidations, g.staged)
	}
	want := int64(0)
	if incremental {
		want = 1
	}
	if folded := st.IncrementalFolds - before.IncrementalFolds; folded != want {
		g.t.Fatalf("%d incremental folds, want %d", folded, want)
	}
	if kept := g.e.idx.Load().layout == old.layout; kept != incremental {
		g.t.Fatalf("the fold kept its predecessor's layout: %v, want %v", kept, incremental)
	}
	g.reset()
	g.check()
}

// check holds the live index to the model: every signature with entries
// resolves to a row holding exactly them (and their tags), every row is
// the row its signature resolves to — one row per signature, emptied or
// not — and the empty rows are exactly those the index counts.
func (g *rowTableRig) check() {
	g.t.Helper()
	idx := g.e.idx.Load()
	for sig, keys := range g.live.keys {
		if len(keys) == 0 {
			continue
		}
		r, ok := idx.rows.lookup(idx.sets, sig)
		if !ok {
			g.t.Fatalf("a signature with %d keys resolves to no row", len(keys))
		}
		ents := idx.row(r)
		if !slices.Equal(sortedKeys(ents.keys), sortedKeys(keys)) {
			g.t.Fatalf("row %d holds keys %v, model %v", r, ents.keys, keys)
		}
		if !g.exact {
			if ents.tags != nil {
				g.t.Fatalf("row %d carries tags without ExactVerify", r)
			}
			continue
		}
		if len(ents.tags) != len(ents.keys) {
			g.t.Fatalf("row %d: %d tag lists for %d keys", r, len(ents.tags), len(ents.keys))
		}
		for _, tags := range ents.tags {
			if !slices.Equal(tags, g.live.tags[sig]) {
				g.t.Fatalf("row %d: tags %q, want %q", r, tags, g.live.tags[sig])
			}
		}
	}
	empty := 0
	for r, sig := range idx.sets {
		if rr, _ := idx.rows.lookup(idx.sets, sig); rr != uint32(r) {
			g.t.Fatalf("row %d's signature resolves to row %d", r, rr)
		}
		if len(idx.row(uint32(r)).keys) == 0 {
			empty++
			continue
		}
		if len(g.live.keys[sig]) == 0 {
			g.t.Fatalf("row %d holds entries the model does not have", r)
		}
	}
	if empty != idx.emptyRows {
		g.t.Fatalf("%d empty rows, the index counts %d", empty, idx.emptyRows)
	}
}

func sortedKeys(ks []Key) []Key {
	out := slices.Clone(ks)
	slices.Sort(out)
	return out
}

// TestRowTableDifferential holds the live index and its row table to a
// brute-force model through a full build, incremental folds that empty
// rows, re-add their signatures (refilling the same rows) and empty those
// again, a fold of new signatures (a full build), and bulk loads onto an engine with staged adds and removes —
// with ExactVerify off and on. Every staged remove is classified
// (tombstone, cancel, no-op) against the model as well.
func TestRowTableDifferential(t *testing.T) {
	for _, exact := range []bool{false, true} {
		t.Run(fmt.Sprintf("exact=%v", exact), func(t *testing.T) {
			testRowTableDifferential(t, exact)
		})
	}
}

func testRowTableDifferential(t *testing.T, exact bool) {
	tagsOf := func(i int) []string { return []string{fmt.Sprintf("set-%d", i), fmt.Sprintf("g%d", i%9)} }
	e, err := New(Config{
		MaxPartitionSize: 40, BatchSize: 32, Threads: 2, ExactVerify: exact,
		GPUs: 1, GPUWorkers: 2, StreamsPerGPU: 2,
		DeltaMaxSets: 1, DeltaMaxRatio: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	g := &rowTableRig{t: t, e: e, exact: exact,
		live: rowModel{keys: make(map[bitvec.Vector][]Key), tags: make(map[bitvec.Vector][]string)}}
	g.reset()

	// Full build: 400 sets of one to three keys, then the rig holds the
	// background consolidator off for the rest of the test.
	bulk := setList{}
	next := Key(1)
	for i := range 400 {
		sig := bloom.Signature(tagsOf(i))
		g.live.tags[sig] = tagsOf(i)
		var ents entryList
		for range 1 + i%3 {
			ents.keys = append(ents.keys, next)
			if exact {
				ents.tags = append(ents.tags, tagsOf(i))
			}
			g.live.apply(sig, next, false)
			next++
		}
		bulk.add(sig, ents, exact)
	}
	if err := e.consolidateOnce(false, bulk); err != nil {
		t.Fatal(err)
	}
	e.consolidateMu.Lock()
	defer e.consolidateMu.Unlock()
	g.reset()
	g.check()
	keysOf := func(i int) []Key { return slices.Clone(g.live.keys[bloom.Signature(tagsOf(i))]) }

	// Fold 1: sets 0..19 lose every key (emptied rows), seven of 20..29
	// lose one, one remove misses, sets 30..34 gain a key, and 409 is new
	// but added and removed again inside the cut, so the fold still only
	// rewrites keys.
	for i := range 20 {
		for _, k := range keysOf(i) {
			g.remove(tagsOf(i), k)
		}
	}
	for i := 20; i < 30; i++ {
		if i%3 != 0 { // sets of two or three keys
			g.remove(tagsOf(i), keysOf(i)[0])
		}
	}
	g.remove(tagsOf(5), 1<<30)
	for i := 30; i < 35; i++ {
		g.add(tagsOf(i), next)
		next++
	}
	g.add(tagsOf(409), next)
	next++
	g.remove(tagsOf(409), next-1)
	g.remove(tagsOf(409), next-1)
	g.fold(true)
	if d := e.idx.Load().emptyRows; d != 20 {
		t.Fatalf("%d empty rows after emptying 20 rows", d)
	}

	// Fold 2: the emptied signatures come back, into their own rows; one
	// of them twice, with a remove of the first re-add in between (a
	// cancel).
	idx := e.idx.Load()
	rows, parts := len(idx.sets), len(idx.parts)
	var rowOf [10]uint32
	for i := range rowOf {
		rowOf[i], _ = idx.rows.lookup(idx.sets, bloom.Signature(tagsOf(i)))
	}
	for i := range 10 {
		g.add(tagsOf(i), next)
		next++
	}
	g.add(tagsOf(0), next)
	g.remove(tagsOf(0), next-10)
	next++
	g.fold(true)
	idx = e.idx.Load()
	for i := range 10 {
		if r, _ := idx.rows.lookup(idx.sets, bloom.Signature(tagsOf(i))); r != rowOf[i] {
			t.Fatalf("re-added set %d resolves to row %d, not its own row %d", i, r, rowOf[i])
		}
	}
	if len(idx.sets) != rows || len(idx.parts) != parts {
		t.Fatalf("re-adds grew the index from %d rows in %d partitions to %d in %d",
			rows, parts, len(idx.sets), len(idx.parts))
	}

	// Fold 3: the re-added rows empty again, and one more key goes from
	// a set that still has some: a tombstone, then a no-op for the same
	// key.
	for i := range 10 {
		for _, k := range keysOf(i) {
			g.remove(tagsOf(i), k)
		}
	}
	k := keysOf(40)[0]
	g.remove(tagsOf(40), k)
	g.remove(tagsOf(40), k)
	g.add(tagsOf(41), next)
	next++
	g.fold(true)

	// Fold 4: sets 400..408 are new, so the fold is a full build: the
	// emptied rows go and the new signatures get rows.
	for i := 400; i < 409; i++ {
		g.add(tagsOf(i), next)
		next++
	}
	g.remove(tagsOf(42), keysOf(42)[0])
	g.fold(false)
	if d := e.idx.Load().emptyRows; d != 0 {
		t.Fatalf("%d empty rows after a full build", d)
	}

	// A snapshot of 60 sets — ten of them emptied here, ten live, the
	// rest new — loaded over staged adds and removes. The load is a full
	// build: the empty rows go and the model is db ⊕ staged ⊕ snapshot.
	src, err := New(Config{Threads: 1, ExactVerify: exact})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	snap := rowModel{keys: make(map[bitvec.Vector][]Key), tags: g.live.tags}
	for j := range 60 {
		i := 10 + j // 10..19 are emptied, 20..29 live
		if j >= 20 {
			i = 430 + j
		}
		tags := tagsOf(i)
		g.live.tags[bloom.Signature(tags)] = tags
		src.AddSet(tags, next)
		snap.apply(bloom.Signature(tags), next, false)
		next++
	}
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	g.remove(tagsOf(25), keysOf(25)[0])
	g.remove(tagsOf(300), keysOf(300)[0])
	g.add(tagsOf(301), next)
	next++
	g.add(tagsOf(7), next)
	next++
	g.remove(tagsOf(7), next-1)
	e.consolidateMu.Unlock()
	err = e.LoadSnapshot(&buf)
	e.consolidateMu.Lock()
	if err != nil {
		t.Fatal(err)
	}
	for sig, keys := range snap.keys {
		g.live.keys[sig] = append(g.live.keys[sig], keys...)
	}
	g.reset()
	g.check()
	if d := e.idx.Load().emptyRows; d != 0 {
		t.Fatalf("%d empty rows after a full build", d)
	}

	// A bulk that names one signature twice, and one the index has:
	// both merge into a single row.
	dup := bloom.Signature(tagsOf(500))
	g.live.tags[dup] = tagsOf(500)
	bulk = setList{}
	for _, sig := range []bitvec.Vector{dup, bloom.Signature(tagsOf(100)), dup} {
		ents := entryList{keys: []Key{next}}
		if exact {
			ents.tags = [][]string{g.live.tags[sig]}
		}
		bulk.add(sig, ents, exact)
		g.live.apply(sig, next, false)
		next++
	}
	e.consolidateMu.Unlock()
	err = e.consolidateOnce(false, bulk)
	e.consolidateMu.Lock()
	if err != nil {
		t.Fatal(err)
	}
	g.reset()
	g.check()

	want := &testDB{}
	for sig, keys := range g.live.keys {
		if len(keys) > 0 {
			want.sigs = append(want.sigs, sig)
			want.keys = append(want.keys, keys)
		}
	}
	verifyEngine(t, e, want, want.makeQueries(100, 203), false)
}
