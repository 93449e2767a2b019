package core

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

type pair struct {
	q uint8
	s uint32
}

// bruteForcePairs computes the reference result of a batch: every
// (query, set) pair with sets[s-globalBase] ⊆ queries[q].
func bruteForcePairs(sets []bitvec.Vector, globalBase int, queries []bitvec.Vector) []pair {
	var out []pair
	for qi, q := range queries {
		for si, s := range sets {
			if s.SubsetOf(q) {
				out = append(out, pair{uint8(qi), uint32(globalBase + si)})
			}
		}
	}
	sortPairs(out)
	return out
}

func sortPairs(ps []pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].q != ps[j].q {
			return ps[i].q < ps[j].q
		}
		return ps[i].s < ps[j].s
	})
}

// batchFixture builds a sorted partition slice and a query batch where
// every query is a database set plus extra bits (the paper's query
// construction), guaranteeing matches.
func batchFixture(nSets, nQueries int, seed int64) (sets, queries []bitvec.Vector) {
	sets = randomSets(nSets, 5, seed)
	sort.Slice(sets, func(i, j int) bool { return bitvec.Less(sets[i], sets[j]) })
	queries = make([]bitvec.Vector, nQueries)
	for i := range queries {
		q := sets[(i*7)%len(sets)]
		extra := randomSets(1, 3, seed+int64(i)+1000)[0]
		queries[i] = q.Or(extra)
	}
	return sets, queries
}

// runGPUKernel runs the subset-match kernel over one partition and one
// batch: a one-segment launch. kc may be nil.
func runGPUKernel(t *testing.T, sets, queries []bitvec.Vector, maxPairs, blockDim int, prefilter bool, kc *obs.KernelCounters) ([]pair, bool) {
	t.Helper()
	return runSegKernel(t, []testSeg{{sets: sets, queries: queries}}, maxPairs, blockDim, prefilter, kc)
}

// TestMatchKernelMatchesBruteForce holds the device kernel to both
// oracles, brute force and the paper's Algorithms 3/4 on the host
// (cpuMatchBatch), with the pre-filters on and off.
func TestMatchKernelMatchesBruteForce(t *testing.T) {
	sets, queries := batchFixture(3000, 64, 21)
	want := bruteForcePairs(sets, 0, queries)
	if len(want) == 0 {
		t.Fatal("fixture produced no matches; test is vacuous")
	}
	for _, prefilter := range []bool{true, false} {
		got, overflow := runGPUKernel(t, sets, queries, 100000, 256, prefilter, nil)
		if overflow {
			t.Fatal("unexpected overflow")
		}
		label := fmt.Sprintf("prefilter=%v", prefilter)
		equalPairs(t, label+" vs brute force", got, want)
		seg := []testSeg{{sets: sets, queries: queries}}
		equalPairs(t, label+" vs cpuMatchBatch", got, oracleSegPairs(seg, prefilter))
	}
}

// TestMatchKernelOddBlockDims runs the kernel with its gates off at block
// sizes that cut the partition's groups unevenly: every entry walks every
// group of its block, and lanes past the last set must never emit.
func TestMatchKernelOddBlockDims(t *testing.T) {
	sets, queries := batchFixture(777, 31, 22)
	want := bruteForcePairs(sets, 0, queries)
	for _, bd := range []int{1, 7, 64, 1024} {
		got, overflow := runGPUKernel(t, sets, queries, 100000, bd, false, nil)
		if overflow {
			t.Fatalf("blockDim=%d overflow", bd)
		}
		equalPairs(t, fmt.Sprintf("blockDim=%d", bd), got, want)
	}
}

// TestMatchKernelOverflow pins the result buffer's boundary: a batch with
// exactly maxPairs pairs fits, one pair more sets the overflow flag.
func TestMatchKernelOverflow(t *testing.T) {
	sets, queries := batchFixture(2000, 64, 23)
	want := bruteForcePairs(sets, 0, queries)
	if len(want) < 5 {
		t.Skip("fixture too selective")
	}
	got, overflow := runGPUKernel(t, sets, queries, len(want), 256, true, nil)
	if overflow {
		t.Fatalf("overflow with room for exactly the %d pairs", len(want))
	}
	equalPairs(t, "full buffer", got, want)
	if _, overflow := runGPUKernel(t, sets, queries, len(want)-1, 256, true, nil); !overflow {
		t.Fatalf("no overflow with room for %d of %d pairs", len(want)-1, len(want))
	}
}

func TestCPUMatchBatchMatchesBruteForce(t *testing.T) {
	sets, queries := batchFixture(2500, 48, 24)
	want := bruteForcePairs(sets, 1000, queries)
	for _, prefilter := range []bool{true, false} {
		var got []pair
		cpuMatchBatch(sets, 1000, queries, 0, 256, prefilter, nil, nil, func(q uint8, s uint32) {
			got = append(got, pair{q, s})
		})
		sortPairs(got)
		if len(got) != len(want) {
			t.Fatalf("prefilter=%v: %d pairs, want %d", prefilter, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("prefilter=%v: pair %d mismatch", prefilter, i)
			}
		}
	}
}

func TestCPUMatchBatchEmpty(t *testing.T) {
	called := false
	cpuMatchBatch(nil, 0, []bitvec.Vector{bitvec.FromOnes(1)}, 0, 256, true, nil, nil, func(uint8, uint32) { called = true })
	if called {
		t.Fatal("visit called for empty partition")
	}
}

// cpuMatchBatch is the paper's subset match (Algorithms 3 and 4) on the
// host, kept as a test oracle beside brute force: the engine's one kernel
// is the bit-sliced one (kernel_sliced.go). It applies the block-prefix
// shortcut over runs of blockDim lexicographically sorted sets, and
// reports prefilter effectiveness through pf (may be nil) with one
// atomic update per batch. qScratch is an optional reusable buffer for
// the per-block surviving-query list (pass nil to allocate); the
// possibly-grown buffer is returned for the caller to keep. queries are
// one segment's signatures; visit receives their index in the batch,
// qbase plus the index in queries.
func cpuMatchBatch(
	sets []bitvec.Vector, // the partition's slice of the tagset table
	globalBase int, // global set id of sets[0]
	queries []bitvec.Vector,
	qbase uint8,
	blockDim int,
	prefilter bool,
	pf *obs.PartitionCounters,
	qScratch []uint8,
	visit func(q uint8, s uint32),
) []uint8 {
	if blockDim <= 0 {
		blockDim = 256
	}
	var pfBlocks, pfPruned int64
	if prefilter && pf != nil {
		defer func() {
			pf.PrefilterBlocks.Add(pfBlocks)
			pf.PrefilterPruned.Add(pfPruned)
		}()
	}
	qIdx := qScratch[:0]
	if cap(qIdx) < len(queries) {
		qIdx = make([]uint8, 0, max(len(queries), maxBatchSize))
	}
	for blk := 0; blk < len(sets); blk += blockDim {
		end := min(blk+blockDim, len(sets))
		block := sets[blk:end]
		qIdx = qIdx[:0]
		if prefilter {
			pfBlocks++
			prefixLen := bitvec.CommonPrefixLen(block[0], block[len(block)-1])
			for i := range queries {
				if block[0].PrefixSubsetOf(prefixLen, queries[i]) {
					qIdx = append(qIdx, uint8(i))
				}
			}
			if len(qIdx) == 0 {
				pfPruned++
				continue
			}
		} else {
			for i := range queries {
				qIdx = append(qIdx, uint8(i))
			}
		}
		for t := range block {
			setID := uint32(globalBase + blk + t)
			for _, qi := range qIdx {
				if bitvec.AndNotIsZero(block[t], queries[qi]) {
					visit(qbase+qi, setID)
				}
			}
		}
	}
	return qIdx
}

func TestPackedLayoutRoundTrip(t *testing.T) {
	// Encode pairs through emitPacked on a fake block context, then
	// decode; byte-dense layout must survive arbitrary counts including
	// partial final groups.
	dev := gpu.New(gpu.Config{Workers: 1})
	defer dev.Close()
	s, _ := dev.OpenStream()
	defer s.Close()

	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 100, 255} {
		hdr := make([]uint32, resHeaderWords)
		buf := make([]byte, pairBufBytes(n))
		want := make([]pair, n)
		s.LaunchAsync(gpu.Grid{Blocks: 1, BlockDim: 1}, func(b *gpu.BlockCtx) {
			b.Threads(func(tid int) {
				for i := 0; i < n; i++ {
					want[i] = pair{uint8(i % 251), uint32(i * 2654435761)}
					emitPacked(b, hdr, buf, n, want[i].q, want[i].s)
				}
			})
		})
		s.Synchronize()
		if int(hdr[0]) != n || hdr[1] != 0 {
			t.Fatalf("n=%d: header = %v", n, hdr)
		}
		i := 0
		decodePacked(buf, n, func(q uint8, sid uint32) {
			if q != want[i].q || sid != want[i].s {
				t.Fatalf("n=%d: pair %d = (%d,%d), want %+v", n, i, q, sid, want[i])
			}
			i++
		})
		if i != n {
			t.Fatalf("decoded %d pairs, want %d", i, n)
		}
	}
}

func TestPackedLayoutDensity(t *testing.T) {
	// The packed layout must spend exactly 5 bytes per pair (vs 8 for a
	// padded struct): groups of 4 pairs in 20 bytes.
	if got := pairBufBytes(4); got != 20 {
		t.Fatalf("4 pairs take %d bytes, want 20", got)
	}
	if got := pairBufBytes(256); got != 256/4*20 {
		t.Fatalf("256 pairs take %d bytes, want %d", got, 256/4*20)
	}
	// Worst case loss: 3 unused lanes of the last group = 15 bytes,
	// bounded per batch (the paper says at most 3 bytes of query ids plus
	// their set-id lanes).
	if got := pairBufBytes(5); got != 40 {
		t.Fatalf("5 pairs take %d bytes, want 40", got)
	}
}

func TestEmitPackedConcurrentBlocks(t *testing.T) {
	// Emits from many concurrent blocks must produce exactly one slot per
	// pair with no corruption (this exercises the atomic counter and the
	// byte-disjoint write discipline under the race detector).
	dev := gpu.New(gpu.Config{Workers: 8})
	defer dev.Close()
	s, _ := dev.OpenStream()
	defer s.Close()

	const total = 64 * 128
	hdr := make([]uint32, resHeaderWords)
	buf := make([]byte, pairBufBytes(total))
	s.LaunchAsync(gpu.Grid{Blocks: 64, BlockDim: 128}, func(b *gpu.BlockCtx) {
		b.Threads(func(tid int) {
			g := b.GlobalID(tid)
			emitPacked(b, hdr, buf, total, uint8(g%256), uint32(g))
		})
	})
	s.Synchronize()

	if int(hdr[0]) != total {
		t.Fatalf("count = %d, want %d", hdr[0], total)
	}
	seen := make([]bool, total)
	var mu sync.Mutex
	decodePacked(buf, total, func(q uint8, sid uint32) {
		mu.Lock()
		defer mu.Unlock()
		if sid >= total || seen[sid] {
			t.Fatalf("set id %d duplicated or out of range", sid)
		}
		if uint8(sid%256) != q {
			t.Fatalf("pair (%d,%d) corrupted", q, sid)
		}
		seen[sid] = true
	})
}

func TestClampCount(t *testing.T) {
	if c, o := clampCount(5, 0, 10); c != 5 || o {
		t.Fatalf("got %d,%v", c, o)
	}
	if _, o := clampCount(5, 1, 10); !o {
		t.Fatal("overflow flag ignored")
	}
	if _, o := clampCount(11, 0, 10); !o {
		t.Fatal("count beyond capacity must overflow")
	}
}
