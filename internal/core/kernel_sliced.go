package core

import (
	"math"
	"math/bits"
	"sort"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// Bit-sliced subset-match kernel, the engine's only one. The paper's
// kernel (Algorithms 3 and 4) assigns one tag set per thread and spends
// three word operations per (set, query) subset check — 192 operations to
// test 64 sets. This kernel instead reads the partition's sets
// column-transposed (bitvec.SlicedGroup: 64 sets per group), assigns one
// group per thread, and tests all 64 lanes at once: OR-ing the used column
// words at the query's zero bits into a running 64-wide hit word, with a
// per-column early exit as soon as no lane survives. Algorithm 4's
// common-prefix block pre-filter becomes a per-group gate — one
// three-word test against the group's signature intersection discards
// 64 sets before any column is touched — under nested per-run gates
// (runNode) that discard whole runs of groups and hand the groups beneath
// them the list of entries still in play. Matches leave through the
// packed atomic-append result path of §3.3.1. The per-thread kernel was
// 2–5× slower on the benchmark's data and left the engine; its host form
// stays as a test oracle in kernel_test.go (EXPERIMENTS.md, "bit-sliced
// match kernel").

// slicedStats is one block's kernel telemetry, accumulated in matchSpan's
// locals; flush performs one bulk atomic add per thread block (per
// segment on the host path).
type slicedStats struct {
	gateChecks, gatePruned int64 // (entry, group) pairs decided / rejected before any column is read
	gateTests              int64 // three-word tests executed, run nodes and groups
	groupScans, colsWalked int64
	blocks, blocksPruned   int64 // groups visited / groups no entry survived: the prefilter block counters
}

func (st *slicedStats) flush(pf *obs.PartitionCounters, kc *obs.KernelCounters) {
	if pf != nil && st.blocks > 0 {
		pf.PrefilterBlocks.Add(st.blocks)
		pf.PrefilterPruned.Add(st.blocksPruned)
	}
	if kc == nil {
		return
	}
	kc.GateChecks.Add(st.gateChecks)
	kc.GatePruned.Add(st.gatePruned)
	kc.GateTests.Add(st.gateTests)
	kc.GroupScans.Add(st.groupScans)
	kc.ColumnsWalked.Add(st.colsWalked)
	kc.Columns.Observe(st.colsWalked)
}

// runNode is one node of a partition's run tree: a run [first, end) of
// consecutive groups of the partition whose gates share bits, and gate, the
// intersection of those gates. gate is contained in every set of the run,
// so a query that fails gate ⊆ q cannot match any of them and one
// three-word test stands for end − first group tests — Algorithm 4's block
// pre-filter with the block drawn where the data says it pays. Runs nest
// (a child shares strictly more bits than its parent) and a partition's
// nodes are stored in preorder; next is the index of the first node outside
// this node's subtree, where the walk resumes when the run is rejected.
// first, end and next are relative to the partition, so its nodes can be
// copied to any offset of any device buffer.
type runNode struct {
	gate       bitvec.Vector
	first, end uint32
	next       uint32
}

// runNodeBytes is the in-memory size of a runNode (its three words, three
// indices and padding); asserted against unsafe.Sizeof in the tests.
const runNodeBytes = 40

// deriveRuns appends the run tree of one partition's groups to dst. It
// reads nothing but the group gates, so every layout that has groups —
// full builds, KernelBenchmark, a test's hand-made partitions — gets the
// same tree whatever ordered its rows: left to right, a run is extended
// while the intersection of its gates still holds a bit outside known,
// the bits every group of the enclosing run shares (for the outermost
// runs: of the partition, which include its mask — routing has found
// those in the query already); a run of two or more groups becomes a node
// and is searched for runs of its own. A node's intersection is strictly larger
// than its parent's, so a child never spans its whole parent and the
// recursion ends.
func deriveRuns(dst []runNode, groups []bitvec.SlicedGroup) []runNode {
	if len(groups) < 2 {
		return dst
	}
	known := groups[0].Gate
	for g := 1; g < len(groups); g++ {
		known = known.And(groups[g].Gate)
	}
	return deriveRunsIn(dst, len(dst), groups, 0, len(groups), known)
}

func deriveRunsIn(dst []runNode, origin int, groups []bitvec.SlicedGroup, lo, hi int, known bitvec.Vector) []runNode {
	for i := lo; i < hi; {
		acc := groups[i].Gate
		j := i + 1
		for ; j < hi; j++ {
			and := acc.And(groups[j].Gate)
			if and.AndNot(known).IsZero() {
				break
			}
			acc = and
		}
		if j-i < 2 {
			i++
			continue
		}
		at := len(dst)
		dst = append(dst, runNode{gate: acc, first: uint32(i), end: uint32(j)})
		dst = deriveRunsIn(dst, origin, groups, i, j, acc)
		dst[at].next = uint32(len(dst) - origin)
		i = j
	}
	return dst
}

// spanScratch holds the surviving-entry lists of one matchSpan walk: the
// list of every run the walk is inside, innermost last, stacked in one
// array. On a device it lives in the SM's shared memory.
type spanScratch struct {
	surv []uint8
	open []openRun
}

// openRun is a run the walk is inside: the run's end and where its list
// starts in spanScratch.surv (it extends to the next open run's start, or
// to the end of surv for the innermost).
type openRun struct {
	end uint32
	off int
}

// matchSpan matches a segment's entries qs against groups [g0, g1) of a
// partition and emits a (query, set) pair per surviving lane: the work of
// one thread block, and — over all of a partition's groups — of the host
// path. base is the global set id of the partition's first set, qbase the
// batch index of the segment's first entry.
//
// This is Algorithm 4 applied per run instead of per block: on entering a
// run the walk filters the enclosing run's surviving entries by the run's
// gate into a list of its own (the block's threads would stride through
// the parent list together; the list is in shared memory); if nobody
// survives, every group of the run is decided and the walk resumes after
// it. A group — one thread — tests only the list of its innermost run
// against its own gate and column-walks the survivors. The simulator runs
// a block's threads in order, which lets one loop carry the stack of
// lists from a group to the next.
//
// A block whose span starts inside a run never sees that run's node: the
// walk starts at the first node that begins at or after g0. That only
// forgoes a shortcut — a run gate implies nothing its groups' own gates do
// not, so the group tests decide the same pairs — and the same holds for a
// node that extends past g1. With gate false nothing is tested and every
// entry walks every group's columns (Config.DisablePrefilter).
func matchSpan(
	groups []bitvec.SlicedGroup,
	runs []runNode,
	g0, g1 int,
	base uint32,
	qs []bitvec.Vector,
	qbase uint8,
	gate bool,
	sc *spanScratch,
	emit func(qi uint8, setID uint32),
) (st slicedStats) {
	if len(qs) == 0 || g0 >= g1 {
		return st
	}
	var tests, scans, cols, dead int64
	scan := func(g int, qi uint8) {
		hits, c := groups[g].SubsetLanesCols(qs[qi])
		scans++
		cols += int64(c)
		for hits != 0 {
			emit(qbase+qi, base+uint32(g*64+bits.TrailingZeros64(hits)))
			hits &= hits - 1
		}
	}
	if !gate {
		for g := g0; g < g1; g++ {
			for qi := range qs {
				scan(g, uint8(qi))
			}
		}
		st.groupScans, st.colsWalked = scans, cols
		return st
	}

	surv, open := sc.surv[:0], append(sc.open[:0], openRun{end: math.MaxUint32})
	for qi := range qs {
		surv = append(surv, uint8(qi))
	}
	ni := sort.Search(len(runs), func(i int) bool { return int(runs[i].first) >= g0 })
walk:
	for g := g0; g < g1; {
		// Leave the runs that have ended, dropping their lists.
		for top := len(open) - 1; int(open[top].end) <= g; top-- {
			surv, open = surv[:open[top].off], open[:top]
		}
		// Enter the runs that start here — unless this is the span's last
		// group: one group is left to decide, and its own test does that.
		for ; g+1 < g1 && ni < len(runs) && int(runs[ni].first) == g; ni++ {
			nd := &runs[ni]
			off, gt := len(surv), nd.gate
			parent := surv[open[len(open)-1].off:off]
			tests += int64(len(parent))
			for _, qi := range parent {
				if bitvec.AndNotIsZero(gt, qs[qi]) {
					surv = append(surv, qi)
				}
			}
			if len(surv) == off {
				// Some bit the whole run shares is absent from every entry
				// left: none of its sets can be a subset of any of them.
				end := min(int(nd.end), g1)
				dead += int64(end - g)
				g, ni = end, int(nd.next)
				continue walk
			}
			open = append(open, openRun{end: nd.end, off: off})
		}
		live, gt := false, groups[g].Gate
		list := surv[open[len(open)-1].off:]
		tests += int64(len(list))
		for _, qi := range list {
			if bitvec.AndNotIsZero(gt, qs[qi]) {
				live = true
				scan(g, qi)
			}
		}
		if !live {
			dead++
		}
		g++
	}
	sc.surv, sc.open = surv, open

	st.gateChecks = int64(len(qs)) * int64(g1-g0)
	st.gatePruned = st.gateChecks - scans
	st.gateTests = tests
	st.groupScans, st.colsWalked = scans, cols
	st.blocks, st.blocksPruned = int64(g1-g0), dead
	return st
}

// shard is a device's part of the transposed index: the groups of the
// partitions it owns and, beside them, those partitions' run nodes.
type shard struct {
	groups *gpu.Buffer[bitvec.SlicedGroup]
	runs   *gpu.Buffer[runNode]
}

func (s shard) free() {
	s.groups.Free()
	s.runs.Free()
}

// slicedMatchKernel returns the bit-sliced subset-match kernel for one
// dispatched batch against the device's shard of the transposed index;
// each segment locates its partition's groups and run nodes in it. A
// block is BlockDim threads with one group each,
// so a partition of up to 64 × BlockDim sets is one block that sees its
// whole run tree. batchArgs.prefilter enables the run and group gates
// (Config.DisablePrefilter turns them off).
func slicedMatchKernel(a *batchArgs, s shard) gpu.KernelFunc {
	return func(b *gpu.BlockCtx) {
		row, seg, local, qs, sc := a.block(b)
		gs := s.groups.Data()[row[segOff] : row[segOff]+row[segLen]]
		runs := s.runs.Data()[row[segRunOff] : row[segRunOff]+row[segRunLen]]
		h, out := a.hdr.Data(), a.pairs.Data()
		g0 := local * b.Grid.BlockDim
		st := matchSpan(gs, runs, g0, min(g0+b.Grid.BlockDim, len(gs)), row[segBase],
			qs, uint8(row[segFirst]), a.prefilter, sc,
			func(qi uint8, setID uint32) {
				emitPacked(b, h, out, a.maxPairs, qi, setID)
			})
		st.flush(a.pf(seg), a.kc)
	}
}

// cpuMatchBatchSliced runs the bit-sliced subset match for one segment
// on the host: the CPU-only execution path and the overflow/fault
// fallback, one matchSpan over all of the partition's groups.
func cpuMatchBatchSliced(
	groups []bitvec.SlicedGroup, // the partition's slice of the transposed index
	runs []runNode, // and of the run nodes
	globalBase int, // global set id of the partition's first set
	queries []bitvec.Vector,
	qbase uint8, // batch index of queries[0]
	gate bool,
	sc *spanScratch,
	pf *obs.PartitionCounters,
	kc *obs.KernelCounters,
	visit func(q uint8, s uint32),
) {
	st := matchSpan(groups, runs, 0, len(groups), uint32(globalBase), queries, qbase, gate, sc, visit)
	st.flush(pf, kc)
}
