package core

import (
	"context"
	"sort"
	"sync"
	"testing"

	"tagmatch/internal/bitvec"
)

// sortedPids normalizes a lookup result for order-insensitive comparison:
// the scalar scan emits bin order, the sliced scan emits group/lane
// order, and both orders are valid.
func sortedPids(pids []uint32) []uint32 {
	out := append([]uint32(nil), pids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func checkLookupsAgree(t *testing.T, pt *partitionTable, q bitvec.Vector) {
	t.Helper()
	ones := q.Ones(nil)
	scalar := sortedPids(pt.lookup(q, ones, nil))
	sliced := sortedPids(pt.lookupSliced(q, ones, nil))
	if len(scalar) != len(sliced) {
		t.Fatalf("query %s: scalar found %d pids, sliced %d\nscalar=%v\nsliced=%v",
			q.Hex(), len(scalar), len(sliced), scalar, sliced)
	}
	for i := range scalar {
		if scalar[i] != sliced[i] {
			t.Fatalf("query %s: pid sets differ at %d: scalar=%v sliced=%v",
				q.Hex(), i, scalar, sliced)
		}
	}
}

// TestSlicedLookupEquivalence is the differential property test of the
// tentpole: over random partition tables, the bit-sliced lookup must
// return exactly the same pid set as the retained scalar Algorithm 2
// scan, for every query.
func TestSlicedLookupEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name        string
		nSets, maxP int
		seed        int64
		tags, qtags int
		nQueries    int
	}{
		{"small", 500, 50, 41, 5, 8, 200},
		{"dense", 4000, 100, 43, 3, 14, 200},
		{"sparse", 2000, 40, 47, 9, 10, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sets := randomSets(tc.nSets, tc.tags, tc.seed)
			specs := balancedPartition(sets, tc.maxP)
			parts := make([]partition, len(specs))
			for i, s := range specs {
				parts[i] = partition{mask: s.mask}
			}
			pt, _ := buildPartitionTable(parts)
			checkLookupsAgree(t, pt, bitvec.Vector{}) // empty query
			for _, q := range randomSets(tc.nQueries, tc.qtags, tc.seed+1) {
				checkLookupsAgree(t, pt, q)
			}
			// Query with every bit set matches every mask in both paths.
			all := bitvec.Vector{^uint64(0), ^uint64(0), ^uint64(0)}
			checkLookupsAgree(t, pt, all)
			if got := pt.lookupSliced(all, all.Ones(nil), nil); len(got) != pt.entries() {
				t.Fatalf("all-ones query hit %d of %d masks", len(got), pt.entries())
			}
		})
	}
}

// TestSlicedLookupMultiGroupBin forces a single bin past 64 entries so
// the lookup walks multiple LaneBlock groups, including a partial final
// group, each behind its intersection gate.
func TestSlicedLookupMultiGroupBin(t *testing.T) {
	const n = 200 // bin 0 gets all of them: 3 full groups + an 8-lane one
	masks := make([]bitvec.Vector, n)
	for i := range masks {
		// Leftmost bit fixed at 0 (same bin); vary the rest.
		masks[i] = bitvec.FromOnes(0, 1+(i%150), 40+(i%100))
	}
	pt, maskless := buildPartitionTable(buildParts(masks...))
	if len(maskless) != 0 {
		t.Fatalf("unexpected maskless: %v", maskless)
	}
	if got := len(pt.sliced[0].groups); got != (n+63)/64 {
		t.Fatalf("bin 0 groups = %d, want %d", got, (n+63)/64)
	}
	if got := len(pt.sliced[0].pids); got != n {
		t.Fatalf("bin 0 sliced pids = %d, want %d", got, n)
	}
	for _, q := range randomSets(300, 12, 59) {
		q.Set(0) // make bin 0 reachable for most queries
		checkLookupsAgree(t, pt, q)
	}
}

// TestSlicedLookupMasklessTable checks a degenerate table where some
// partitions have empty masks: those ids come back from
// buildPartitionTable, not from either lookup, and the lookups agree on
// the remainder.
func TestSlicedLookupMasklessTable(t *testing.T) {
	parts := buildParts(bitvec.Vector{}, bitvec.FromOnes(3), bitvec.Vector{}, bitvec.FromOnes(3, 7))
	pt, maskless := buildPartitionTable(parts)
	if len(maskless) != 2 || maskless[0] != 0 || maskless[1] != 2 {
		t.Fatalf("maskless = %v, want [0 2]", maskless)
	}
	for _, q := range []bitvec.Vector{{}, bitvec.FromOnes(3), bitvec.FromOnes(3, 7), bitvec.FromOnes(5)} {
		checkLookupsAgree(t, pt, q)
	}
}

// TestRouteMergeAccounting pins the hand-over bookkeeping: every routed
// (query, partition) entry is logged exactly once (entries == partitions
// searched), and a burst of queries takes the log's mutex once, however
// many entries it hands over.
func TestRouteMergeAccounting(t *testing.T) {
	db := makeTestDB(3000, 5, 2, 67)
	e, err := New(Config{MaxPartitionSize: 200, BatchSize: 32, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	queries := db.makeQueries(2000, 68)
	var wg sync.WaitGroup
	for _, q := range queries {
		wg.Add(1)
		if err := e.Submit(context.Background(), Request{Sig: q}, func(MatchResult) { wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	wg.Wait()
	st := e.Stats()
	if st.RoutedSliced != int64(len(queries)) {
		t.Fatalf("routed %d queries, submitted %d", st.RoutedSliced, len(queries))
	}
	if st.RouteAppends != st.PartitionsSearched {
		t.Fatalf("entries logged %d != partitions searched %d (lost or duplicated entries)",
			st.RouteAppends, st.PartitionsSearched)
	}
	if st.RouteAppends > 0 && st.RouteMergeLocks == 0 {
		t.Fatal("entries logged without any hand-over recorded")
	}
	// One hand-over per burst, and a burst routes at least one query.
	if st.RouteMergeLocks > int64(len(queries)) {
		t.Fatalf("%d hand-overs for %d queries: more than one log acquisition per burst",
			st.RouteMergeLocks, len(queries))
	}
	assertDrained(t, e, nil)
}
