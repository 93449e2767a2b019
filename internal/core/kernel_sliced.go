package core

import (
	"math/bits"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// Bit-sliced subset-match kernel. The scalar kernel (kernel.go) assigns
// one tag set per thread and spends three word operations per (set,
// query) subset check — 192 operations to test 64 sets. The sliced
// kernel instead reads the partition's sets column-transposed
// (bitvec.SlicedGroup: 64 sets per group), assigns one group per
// thread, and tests all 64 lanes at once: OR-ing the used column words
// at the query's zero bits into a running 64-wide hit word, with a
// per-column early exit as soon as no lane survives. Algorithm 4's
// common-prefix block pre-filter becomes a per-group gate — one
// three-word test against the group's signature intersection discards
// 64 sets before any column is touched. Matches leave through the same
// packed atomic-append result path (§3.3.1) as the scalar kernel, so
// the two flavors are pair-for-pair interchangeable (differential- and
// fuzz-tested; Config.ScalarKernel selects the scalar baseline).

// slicedStats accumulates kernel telemetry in locals; flush performs
// one bulk atomic add per thread block (per batch on the host path).
type slicedStats struct {
	gateChecks, gatePruned int64
	groupScans, colsWalked int64
	blocks, blocksPruned   int64 // group-gate analogue of the prefilter block counters
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
	kc.GroupScans.Add(st.groupScans)
	kc.ColumnsWalked.Add(st.colsWalked)
	kc.Columns.Observe(st.colsWalked)
}

// matchGroup tests every query of a segment against one transposed
// group, emitting a (query, set) pair per surviving lane. base is the
// global set id of the group's lane 0, qbase the batch index of the
// segment's first entry.
func matchGroup(
	grp *bitvec.SlicedGroup,
	base uint32,
	qs []bitvec.Vector,
	qbase uint8,
	gate bool,
	st *slicedStats,
	emit func(qi uint8, setID uint32),
) {
	survived := false
	for qi := range qs {
		if gate {
			st.gateChecks++
			if !bitvec.AndNotIsZero(grp.Gate, qs[qi]) {
				// Some bit shared by ALL 64 members is absent from the
				// query: no member can be a subset of it.
				st.gatePruned++
				continue
			}
		}
		survived = true
		hits, cols := grp.SubsetLanesCols(qs[qi])
		st.groupScans++
		st.colsWalked += int64(cols)
		for hits != 0 {
			l := bits.TrailingZeros64(hits)
			emit(qbase+uint8(qi), base+uint32(l))
			hits &= hits - 1
		}
	}
	if gate {
		st.blocks++
		if !survived {
			st.blocksPruned++
		}
	}
}

// slicedMatchKernel returns the bit-sliced subset-match kernel for one
// dispatched batch, the transposed counterpart of matchKernel. base is
// the device-resident transposed index (full index in replicated mode,
// the device's shard otherwise) and exts the device's extent buffers;
// each segment names the one holding its partition's groups.
// batchArgs.prefilter enables the per-group intersection gate
// (Config.DisablePrefilter turns it off, the same ablation switch as the
// scalar prefix test).
func slicedMatchKernel(a *batchArgs, base *gpu.Buffer[bitvec.SlicedGroup], exts []*gpu.Buffer[bitvec.SlicedGroup]) gpu.KernelFunc {
	return func(b *gpu.BlockCtx) {
		row, seg, local, sh := a.block(b)
		buf := base
		if e := row[segExt]; e > 0 {
			buf = exts[e-1]
		}
		gs := buf.Data()[row[segOff] : row[segOff]+row[segLen]]
		h, out := a.hdr.Data(), a.pairs.Data()
		qbase := uint8(row[segFirst])
		var st slicedStats
		b.Threads(func(tid int) {
			g := local*b.Grid.BlockDim + tid
			if g >= len(gs) {
				return
			}
			matchGroup(&gs[g], row[segBase]+uint32(g*64), sh.qs, qbase, a.prefilter, &st,
				func(qi uint8, setID uint32) {
					emitPacked(b, h, out, a.maxPairs, qi, setID)
				})
		})
		st.flush(a.pf(seg), a.kc)
	}
}

// cpuMatchBatchSliced runs the bit-sliced subset match for one segment
// on the host: the CPU-only execution path — and the overflow/fault
// fallback — of an engine configured for the sliced kernel flavor.
// Pair-for-pair equivalent to cpuMatchBatch, which remains the scalar
// baseline.
func cpuMatchBatchSliced(
	groups []bitvec.SlicedGroup, // the partition's slice of the transposed index
	globalBase int, // global set id of the partition's first set
	queries []bitvec.Vector,
	qbase uint8, // batch index of queries[0]
	gate bool,
	pf *obs.PartitionCounters,
	kc *obs.KernelCounters,
	visit func(q uint8, s uint32),
) {
	var st slicedStats
	for g := range groups {
		matchGroup(&groups[g], uint32(globalBase+g*64), queries, qbase, gate, &st, visit)
	}
	st.flush(pf, kc)
}
