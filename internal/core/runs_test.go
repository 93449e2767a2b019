package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// checkRuns is the oracle for deriveRuns: runs must be the preorder of a
// forest of nested runs over groups, every node holding exactly the
// intersection of its groups' gates, sharing strictly more than its parent
// (than the whole partition, for a root), unable to take in the group to
// its right, and pointing with next at the first node outside its
// subtree.
func checkRuns(t testing.TB, groups []bitvec.SlicedGroup, runs []runNode) {
	t.Helper()
	all := bitvec.Vector{^uint64(0), ^uint64(0), ^uint64(0)}
	for _, g := range groups {
		all = all.And(g.Gate)
	}
	type frame struct {
		gate bitvec.Vector
		end  uint32
	}
	stack := []frame{{all, uint32(len(groups))}}
	prevFirst := uint32(0)
	for i, nd := range runs {
		if nd.end-nd.first < 2 || nd.end > uint32(len(groups)) || nd.first >= nd.end {
			t.Fatalf("node %d spans [%d, %d) of %d groups: want two or more", i, nd.first, nd.end, len(groups))
		}
		if nd.first < prevFirst {
			t.Fatalf("node %d starts at %d after a node starting at %d: not in preorder", i, nd.first, prevFirst)
		}
		prevFirst = nd.first
		for len(stack) > 1 && stack[len(stack)-1].end <= nd.first {
			stack = stack[:len(stack)-1]
		}
		parent := stack[len(stack)-1]
		if nd.end > parent.end {
			t.Fatalf("node %d [%d, %d) straddles the end %d of the run around it", i, nd.first, nd.end, parent.end)
		}
		and := groups[nd.first].Gate
		for _, g := range groups[nd.first+1 : nd.end] {
			and = and.And(g.Gate)
		}
		if nd.gate != and {
			t.Fatalf("node %d gate %s, its groups' gates intersect to %s", i, nd.gate, and)
		}
		if !parent.gate.SubsetOf(nd.gate) || nd.gate == parent.gate {
			t.Fatalf("node %d gate %s does not strictly exceed its parent's %s", i, nd.gate, parent.gate)
		}
		if nd.end < parent.end && !nd.gate.And(groups[nd.end].Gate).AndNot(parent.gate).IsZero() {
			t.Fatalf("node %d [%d, %d) stops short: group %d shares more than the parent with it", i, nd.first, nd.end, nd.end)
		}
		next := i + 1
		for next < len(runs) && runs[next].first < nd.end {
			next++
		}
		if int(nd.next) != next {
			t.Fatalf("node %d next = %d, the first node outside [%d, %d) is %d", i, nd.next, nd.first, nd.end, next)
		}
		stack = append(stack, frame{nd.gate, nd.end})
	}
}

// gateGroups builds groups that carry nothing but the given gates, which
// is all deriveRuns reads.
func gateGroups(gates ...bitvec.Vector) []bitvec.SlicedGroup {
	groups := make([]bitvec.SlicedGroup, len(gates))
	for i, g := range gates {
		groups[i].Gate = g
	}
	return groups
}

func TestRunDeriveShapes(t *testing.T) {
	v := bitvec.FromOnes
	for _, tc := range []struct {
		name  string
		gates []bitvec.Vector
		want  [][2]uint32 // [first, end) of every node, in preorder
	}{
		{"no group", nil, nil},
		{"one group", []bitvec.Vector{v(1, 2)}, nil},
		{"all gates equal", []bitvec.Vector{v(1, 2), v(1, 2), v(1, 2)}, nil},
		{"nothing shared", []bitvec.Vector{v(1), v(2), v(3)}, nil},
		{"only the partition's bits shared", []bitvec.Vector{v(9, 1), v(9, 2), v(9, 3)}, nil},
		{"one run then a loner", []bitvec.Vector{v(1, 5), v(1, 6), v(2)}, [][2]uint32{{0, 2}}},
		{"nested", []bitvec.Vector{v(9, 1, 5), v(9, 1, 5), v(9, 1, 6), v(9, 2), v(9, 3, 7), v(9, 3, 8)},
			[][2]uint32{{0, 3}, {0, 2}, {4, 6}}},
		{"a run ends where nothing new is shared", []bitvec.Vector{v(1, 2), v(1, 3), v(3, 4), v(4)},
			[][2]uint32{{0, 2}, {2, 4}}},
	} {
		groups := gateGroups(tc.gates...)
		runs := deriveRuns(nil, groups)
		checkRuns(t, groups, runs)
		var got [][2]uint32
		for _, nd := range runs {
			got = append(got, [2]uint32{nd.first, nd.end})
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: nodes %v, want %v", tc.name, got, tc.want)
		}
	}
	// A second partition's nodes are appended after the first's and are
	// relative to their own partition.
	a, b := gateGroups(v(1, 5), v(1, 6), v(2)), gateGroups(v(2), v(3, 7), v(3, 8))
	both := deriveRuns(deriveRuns(nil, a), b)
	if len(both) != 2 || both[1].first != 1 || both[1].end != 3 || both[1].next != 1 {
		t.Fatalf("appended partition's node = %+v, want [1, 3) with next 1", both)
	}
}

// TestRunDeriveOnClusteredPartitions checks the tree over real layouts:
// partitioner output laid out by the clusterer, and the lexicographic
// order, whose gates share little.
func TestRunDeriveOnClusteredPartitions(t *testing.T) {
	sets := vocabSets(30000, 400, 4, 81)
	for _, sliced := range []bool{true, false} {
		var idx index
		idx.appendPartitions(sets, balancedPartition(sets, 3000), sliced, 0, nil)
		nodes := 0
		for pi := range idx.parts {
			p := &idx.parts[pi]
			groups := bitvec.BuildSlicedGroups(idx.sets[p.off : p.off+p.n])
			runs := deriveRuns(nil, groups)
			checkRuns(t, groups, runs)
			if sliced && !slices.Equal(runs, idx.runs[p.runOff:p.runOff+p.nRuns]) {
				t.Fatalf("partition %d: appendPartitions stored other nodes than deriveRuns yields", pi)
			}
			nodes += len(runs)
		}
		if nodes == 0 {
			t.Fatalf("sliced=%v: fixture yields no run node", sliced)
		}
	}
}

func FuzzRunDerive(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 4, 1, 5, 5, 9, 9, 9})
	f.Add([]byte{})
	f.Add([]byte{7, 7, 7, 7, 7, 7})
	f.Add([]byte{1, 2, 0, 1, 2, 0, 1, 3, 0, 1, 3, 0, 4, 0, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		// Three bytes a gate, few distinct bits so that gates share.
		var gates []bitvec.Vector
		for i := 0; i+3 <= len(b) && len(gates) < 300; i += 3 {
			gates = append(gates, bitvec.FromOnes(int(b[i])%12, int(b[i+1])%12, int(b[i+2])%12))
		}
		groups := gateGroups(gates...)
		checkRuns(t, groups, deriveRuns(nil, groups))
	})
}

// clusteredSegs cuts sets into partitions the way an index does (balanced
// partitioning, clustered rows), keeps the first nParts — the partitioner
// emits the large ones first — with the last two in extents, and deals the
// queries — stored sets plus extra bits — to the partitions that hold a
// subset of them, as routing would.
func clusteredSegs(sets []bitvec.Vector, maxP, nParts, nQueries int, seed int64) []testSeg {
	var idx index
	idx.appendPartitions(sets, balancedPartition(sets, maxP), true, 0, nil)
	segs := make([]testSeg, nParts)
	for pi, p := range idx.parts[:nParts] {
		segs[pi] = testSeg{sets: idx.sets[p.off : p.off+p.n], base: p.off, ext: max(0, pi-(nParts-3))}
	}
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < nQueries; {
		q := sets[rng.Intn(len(sets))].Or(randomSets(1, 3, seed+int64(n))[0])
		for pi := range segs {
			if len(segs[pi].queries) < maxBatchSize/len(segs) && idx.parts[pi].mask.SubsetOf(q) {
				segs[pi].queries = append(segs[pi].queries, q)
				n++
			}
		}
	}
	return segs
}

// TestRunSpanBlockDims re-runs the sliced differential checks on a
// clustered fixture — partitions of dozens of groups with nested runs —
// at block dimensions that make blocks start and end inside runs (1, 2,
// 3) and that cover a partition whole (256): the device kernel over base
// shard and extents and the host path must produce the brute-force pairs,
// which the scalar host matcher must produce too, with the gates on and
// off; and with them on, the same scans and column words at every block
// dimension — a block that cannot see a run's node decides the same pairs
// group by group.
func TestRunSpanBlockDims(t *testing.T) {
	segs := clusteredSegs(vocabSets(12000, 300, 4, 91), 6000, 6, 200, 92)
	want := wantSegPairs(segs)
	if len(want) == 0 {
		t.Fatal("fixture produced no matches; test is vacuous")
	}
	nodes := 0
	for _, sg := range segs {
		nodes += len(deriveRuns(nil, bitvec.BuildSlicedGroups(sg.sets)))
	}
	if nodes < 4*len(segs) {
		t.Fatalf("%d run nodes over %d partitions: the fixture is not clustered", nodes, len(segs))
	}

	var ref obs.KernelSnapshot
	for _, gate := range []bool{true, false} {
		for _, blockDim := range []int{256, 1, 2, 3} {
			var kc obs.KernelCounters
			got, overflow := runSegKernel(t, segs, true, len(want)+1, blockDim, gate, &kc)
			if overflow {
				t.Fatal("unexpected overflow")
			}
			equalPairs(t, fmt.Sprintf("device blockDim=%d gate=%v", blockDim, gate), got, want)
			if !gate {
				continue
			}
			k := kc.Snapshot()
			if blockDim == 256 {
				ref = k
				if k.GateTests >= k.GateChecks {
					t.Fatalf("whole partitions per block: %d gate tests for %d (entry, group) pairs — the run nodes skip nothing", k.GateTests, k.GateChecks)
				}
			} else if k.GateChecks != ref.GateChecks || k.GatePruned != ref.GatePruned || k.GroupScans != ref.GroupScans || k.ColumnsWalked != ref.ColumnsWalked {
				t.Fatalf("blockDim=%d decided other pairs than blockDim=256: %+v vs %+v", blockDim, k, ref)
			}
			if blockDim == 1 && k.GateTests != k.GateChecks {
				t.Fatalf("one group per block: %d gate tests for %d pairs — a one-group span can use no node", k.GateTests, k.GateChecks)
			}
		}
		var host, scalar []pair
		first := 0
		for _, sg := range segs {
			hostSliced(sg.sets, int(sg.base), sg.queries, uint8(first), gate, nil, func(q uint8, s uint32) {
				host = append(host, pair{q, s})
			})
			sorted := slices.Clone(sg.sets)
			slices.SortFunc(sorted, bitvec.Compare)
			cpuMatchBatch(sorted, 0, sg.queries, uint8(first), 256, gate, nil, nil, func(q uint8, s uint32) {
				// Row ids differ between the two orders; compare through the set.
				scalar = append(scalar, pair{q, sg.base + uint32(slices.Index(sg.sets, sorted[s]))})
			})
			first += len(sg.queries)
		}
		sortPairs(host)
		sortPairs(scalar)
		equalPairs(t, fmt.Sprintf("host sliced gate=%v", gate), host, want)
		equalPairs(t, fmt.Sprintf("host scalar gate=%v", gate), scalar, want)
	}
}

// TestRunGateTestsOnWorkload pins what the run nodes are for, in counts
// that repeat exactly: on generator-built partitions of some six hundred
// groups, deciding every (query, group) pair takes at most 0.4 three-word
// tests per pair, and decides them as the group gates alone would — same
// prunes, scans, column words and pairs.
func TestRunGateTestsOnWorkload(t *testing.T) {
	gen, sigs, pool := generatedSets(t, 30000, 5)
	var idx index
	idx.appendPartitions(sigs, balancedPartition(sigs, len(sigs)/4), true, 0, nil)
	pt, maskless := buildPartitionTable(idx.parts)
	rng := rand.New(rand.NewSource(6))
	perPart := make([][]bitvec.Vector, len(idx.parts))
	var pids []uint32
	for i := 0; i < 600; i++ {
		q := bloom.Signature(gen.Query(rng, pool[rng.Intn(len(pool))], 8))
		pids = append(pt.lookupSliced(q, q.Ones(nil), pids[:0]), maskless...)
		for _, pid := range pids {
			perPart[pid] = append(perPart[pid], q)
		}
	}

	var with, without obs.KernelCounters
	var sc spanScratch
	var pairs [2][]pair
	for pid, qs := range perPart {
		p := &idx.parts[pid]
		groups, runs := idx.slicedPart(p)
		for ; len(qs) > 0; qs = qs[min(maxBatchSize, len(qs)):] {
			seg := qs[:min(maxBatchSize, len(qs))]
			cpuMatchBatchSliced(groups, runs, int(p.off), seg, 0, true, &sc, nil, &with,
				func(q uint8, s uint32) { pairs[0] = append(pairs[0], pair{q, s}) })
			cpuMatchBatchSliced(groups, nil, int(p.off), seg, 0, true, &sc, nil, &without,
				func(q uint8, s uint32) { pairs[1] = append(pairs[1], pair{q, s}) })
		}
	}
	w, wo := with.Snapshot(), without.Snapshot()
	t.Logf("%d groups, %d run nodes; (entry, group) pairs %d, three-word tests %d with the nodes, %d without; scans %d",
		len(idx.groups), len(idx.runs), w.GateChecks, w.GateTests, wo.GateTests, w.GroupScans)
	if len(pairs[0]) == 0 || !slices.Equal(pairs[0], pairs[1]) {
		t.Fatalf("%d pairs with the run nodes, %d without, or in another order", len(pairs[0]), len(pairs[1]))
	}
	if wo.GateTests != wo.GateChecks {
		t.Fatalf("without nodes every pair takes one test: %d tests, %d pairs", wo.GateTests, wo.GateChecks)
	}
	if w.GateChecks != wo.GateChecks || w.GatePruned != wo.GatePruned || w.GroupScans != wo.GroupScans || w.ColumnsWalked != wo.ColumnsWalked {
		t.Fatalf("the run nodes changed what is decided: %+v with, %+v without", w, wo)
	}
	if tests := with.GateTests.Load(); float64(tests) > 0.4*float64(w.GateChecks) {
		t.Fatalf("%d three-word tests for %d (entry, group) pairs: want at most 0.4 per pair", tests, w.GateChecks)
	}
}

// TestRunNodesFollowTheIndex drives run nodes through everything that
// moves an index: a full upload and an incremental fold's extents, under
// both placements, with the host fallback taking the place of the two
// batches in five that overflow. Answers stay exact, the nodes skip tests on the
// device and on the host, and the devices hold 40 bytes per node beside
// the groups.
func TestRunNodesFollowTheIndex(t *testing.T) {
	sets := vocabSets(9000, 300, 4, 95)
	base, added := sets[:7500], sets[7500:]
	queries := make([]bitvec.Vector, 600)
	for i := range queries {
		queries[i] = sets[(i*37)%len(sets)].Or(randomSets(1, 3, int64(i)+96)[0])
	}
	for _, replicate := range []bool{true, false} {
		devs := []*gpu.Device{newTestGPU(t, 2), newTestGPU(t, 2)}
		e, err := New(Config{
			MaxPartitionSize: 1500, BatchSize: 64, Threads: 2,
			Devices: devs, StreamsPerDevice: 2, Replicate: replicate, BlockDim: 8,
			MaxPairsPerBatch: 16, DeltaMaxSets: len(added), DeltaMaxRatio: 1e-9,
		})
		if err != nil {
			t.Fatal(err)
		}
		db := &testDB{}
		add := func(batch []bitvec.Vector) {
			for _, s := range batch {
				db.sigs = append(db.sigs, s)
				db.keys = append(db.keys, []Key{Key(len(db.sigs))})
				e.AddSignature(s, Key(len(db.sigs)))
			}
		}
		add(base)
		if err := e.Consolidate(); err != nil {
			t.Fatal(err)
		}
		idx := e.idx.Load()
		if len(idx.runs) == 0 {
			t.Fatal("fixture index has no run node")
		}
		var devBytes int64
		for _, m := range deviceMem(e) {
			devBytes += m
		}
		copies := 1
		if replicate {
			copies = len(devs)
		}
		if floor := int64(copies) * (int64(len(idx.groups))*slicedGroupBytes + int64(len(idx.runs))*runNodeBytes); devBytes < floor {
			t.Fatalf("replicate=%v: devices hold %d bytes, groups and run nodes alone are %d", replicate, devBytes, floor)
		}
		verifyEngine(t, e, db, queries, false)

		// The fold: the background consolidator appends the added sets as
		// new partitions in an extent, with run nodes of their own.
		add(added)
		for deadline := time.Now().Add(10 * time.Second); e.Stats().IncrementalFolds == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("no incremental fold within 10s")
			}
		}
		e.consolidateMu.Lock() // the fold has swapped its index in once this is free
		e.consolidateMu.Unlock()
		idx = e.idx.Load()
		last := idx.parts[len(idx.parts)-1]
		if last.ext == 0 {
			t.Fatal("the fold's partitions are not in an extent")
		}
		extNodes := 0
		for _, p := range idx.parts {
			if p.ext > 0 {
				extNodes += int(p.nRuns)
			}
		}
		if extNodes == 0 {
			t.Fatal("the fold's partitions have no run node")
		}
		mem := deviceMem(e)
		verifyEngine(t, e, db, queries, false)

		st := e.Stats()
		t.Logf("replicate=%v: %d of %d batches overflowed into the host path", replicate, st.ResultOverflows, st.BatchesDispatched)
		if st.ResultOverflows == 0 || st.ResultOverflows == st.BatchesDispatched {
			t.Fatal("want batches on both paths: the device's and, by overflow, the host's")
		}
		if st.KernelGateTests == 0 || st.KernelGateTests >= st.KernelGateChecks {
			t.Fatalf("replicate=%v: %d gate tests for %d (entry, group) pairs", replicate, st.KernelGateTests, st.KernelGateChecks)
		}
		if st.KernelGatePruned != st.KernelGateChecks-st.KernelGroupScans {
			t.Fatalf("pruned %d ≠ checks %d − scans %d", st.KernelGatePruned, st.KernelGateChecks, st.KernelGroupScans)
		}
		assertDrained(t, e, mem)
		e.Close()
	}
}
