package core

import (
	"encoding/binary"
	"sync/atomic"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// Result layout (§3.3.1). A (query, set) pair uses an 8-bit query id (the
// index of the routed entry within the dispatched batch) and a 32-bit set
// id. A naive struct would pad
// each pair to 64 bits, wasting 38% of memory and bus bandwidth; storing
// ids in two separate arrays would avoid the waste but require two result
// copies. TagMatch instead packs results in groups of four pairs — four
// query-id bytes followed by four little-endian 32-bit set ids:
//
//	| q1 q2 q3 q4 | s1 s1 s1 s1 | s2 .. | s3 .. | s4 .. |   (20 bytes)
//
// which is byte-dense (worst-case loss: the unused lanes of the final
// group) and needs a single copy.
//
// The pair counter and the overflow flag live in a separate two-word
// header buffer so the kernel's atomic append has a stable address; the
// launch zeroes it on the device (gpu.Stream.LaunchZeroedAsync), so no
// host transfer resets it.
const (
	resHeaderWords = 2  // header buffer: [pair counter, overflow flag]
	bytesPerGroup  = 20 // 4 query-id bytes + 4×4 set-id bytes

	// maxBatchSize bounds Config.BatchSize: query ids within a batch are
	// uint8 throughout the kernels and the reduce stage, so a larger
	// batch would alias query indices. Config validation enforces it.
	maxBatchSize = 256
)

// pairBufBytes returns the byte size of a packed pair buffer holding up
// to maxPairs pairs.
func pairBufBytes(maxPairs int) int {
	return ((maxPairs + 3) / 4) * bytesPerGroup
}

// emitPacked appends one (query, set) pair to the packed result buffer.
// Each pair writes to byte addresses owned exclusively by its slot, so
// concurrent emits from different threads never touch the same byte.
func emitPacked(b *gpu.BlockCtx, hdr []uint32, pairs []byte, maxPairs int, q uint8, setID uint32) {
	idx := int(b.AtomicAddU32(&hdr[0], 1))
	if idx >= maxPairs {
		atomic.StoreUint32(&hdr[1], 1) // overflow: host re-runs the batch on CPU
		return
	}
	base := (idx / 4) * bytesPerGroup
	lane := idx % 4
	pairs[base+lane] = q
	binary.LittleEndian.PutUint32(pairs[base+4+4*lane:], setID)
}

// decodePacked yields the first count pairs of a packed result buffer.
func decodePacked(packed []byte, count int, visit func(q uint8, s uint32)) {
	for idx := 0; idx < count; idx++ {
		base := (idx / 4) * bytesPerGroup
		lane := idx % 4
		visit(packed[base+lane], binary.LittleEndian.Uint32(packed[base+4+4*lane:]))
	}
}

// Segment table. The unit a device sees is a dispatched batch: up to
// BatchSize routed (query, partition) entries, grouped into segments of
// consecutive entries bound for the same partition. One launch serves
// the whole batch — its grid is the sum of the segments' thread blocks —
// and every block finds its segment, and through it its partition's
// slice of the device index and its entries' signatures, in a small
// table uploaded with the batch: segWords words per segment. The batch's
// signatures are uploaded in entry order, so a segment's are the run
// [segFirst, segFirst+segCount) of the signature buffer. A (query, set)
// pair carries the entry's index in the batch, so the result format, the
// 8-bit query id and the reduce stage are the same for one segment or
// many.
const (
	segBlockEnd = iota // thread blocks of the launch up to and including this segment
	segFirst           // the segment's first entry in the batch
	segCount           // its number of entries
	segOff             // offset of the partition's first group in the device's shard
	segLen             // the partition's groups
	segBase            // global set id of the partition's first set
	segRunOff          // offset of the partition's first run node beside the groups
	segRunLen          // the partition's run nodes
	segWords
)

// segment is one partition's run of entries in a dispatched batch.
type segment struct {
	pid      uint32
	first, n int
}

// batchArgs are the kernel arguments of one dispatched batch.
type batchArgs struct {
	sigs      *gpu.Buffer[bitvec.Vector] // the entries' signatures, in entry order
	tab       *gpu.Buffer[uint32]        // the segment table
	nSeg      int
	hdr       *gpu.Buffer[uint32]
	pairs     *gpu.Buffer[byte]
	maxPairs  int
	prefilter bool
	// pfs holds the per-partition observability counters of each segment
	// (nil entries, or a nil slice, when observability is off): the
	// kernel reports gate effectiveness through them.
	pfs []*obs.PartitionCounters
	kc  *obs.KernelCounters
}

func (a *batchArgs) pf(seg int) *obs.PartitionCounters {
	if a.pfs == nil {
		return nil
	}
	return a.pfs[seg]
}

// block resolves the segment a thread block serves: the segment's table
// row and index, the block's index within the segment, its entries'
// signatures — a dense run of the signature buffer — and the SM's stack
// of surviving-entry lists, kept in its shared memory across blocks. The
// signature buffer is not written while a kernel reading it runs: the
// engine's is filled by the batch's own stream ahead of the launch.
func (a *batchArgs) block(b *gpu.BlockCtx) (row []uint32, seg, local int, qs []bitvec.Vector, sc *spanScratch) {
	rows := a.tab.Data()[:a.nSeg*segWords]
	lo, hi := 0, a.nSeg-1
	for lo < hi {
		mid := (lo + hi) / 2
		if int(rows[mid*segWords+segBlockEnd]) > b.BlockIdx {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	seg, local = lo, b.BlockIdx
	if seg > 0 {
		local -= int(rows[(seg-1)*segWords+segBlockEnd])
	}
	row = rows[seg*segWords : (seg+1)*segWords]

	p := b.Shared()
	sc, _ = (*p).(*spanScratch)
	if sc == nil {
		sc = &spanScratch{}
		*p = sc
	}
	qs = a.sigs.Data()[row[segFirst] : row[segFirst]+row[segCount]]
	return row, seg, local, qs, sc
}

// segBlocks returns the thread blocks a partition of n sets occupies in
// a launch: one thread per 64-lane group, blockDim threads per block.
func segBlocks(n, blockDim int) int {
	return ((n+63)/64 + blockDim - 1) / blockDim
}
