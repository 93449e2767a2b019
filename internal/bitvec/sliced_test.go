package bitvec

import (
	"math/rand"
	"slices"
	"testing"
)

func randVec(rng *rand.Rand, nbits int) Vector {
	var v Vector
	for j := 0; j < nbits; j++ {
		v.Set(rng.Intn(W))
	}
	return v
}

// scalarSubsetLanes is the reference: test each occupied lane with the
// three-word SubsetOf.
func scalarSubsetLanes(masks []Vector, q Vector) uint64 {
	var hits uint64
	for l, m := range masks {
		if m.SubsetOf(q) {
			hits |= 1 << uint(l)
		}
	}
	return hits
}

func TestLaneBlockMatchesScalarSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		masks := make([]Vector, n)
		var lb LaneBlock
		for l := range masks {
			masks[l] = randVec(rng, 2+rng.Intn(40))
			lb.SetLane(l, masks[l])
		}
		if lb.Lanes() != n {
			t.Fatalf("Lanes() = %d, want %d", lb.Lanes(), n)
		}
		for qi := 0; qi < 20; qi++ {
			q := randVec(rng, 4+rng.Intn(80))
			if got, want := lb.SubsetLanes(q), scalarSubsetLanes(masks, q); got != want {
				t.Fatalf("trial %d: SubsetLanes = %#x, scalar = %#x (q=%s)",
					trial, got, want, q.Hex())
			}
		}
	}
}

func TestLaneBlockEmptyMaskLane(t *testing.T) {
	// An all-zero mask is a subset of every query, including the empty
	// one: its lane contributes no columns, so it can never miss.
	var lb LaneBlock
	lb.SetLane(3, Vector{})
	lb.SetLane(5, FromOnes(10))
	if got := lb.SubsetLanes(Vector{}); got != 1<<3 {
		t.Fatalf("empty query: hits = %#x, want lane 3 only", got)
	}
	if got := lb.SubsetLanes(FromOnes(10, 11)); got != 1<<3|1<<5 {
		t.Fatalf("hits = %#x, want lanes 3 and 5", got)
	}
}

func TestLaneBlockBoundaryBits(t *testing.T) {
	// Bits at word boundaries (0, 63, 64, 127, 128, 191) exercise the
	// MSB-first column addressing.
	positions := []int{0, 63, 64, 127, 128, 191}
	var lb LaneBlock
	masks := make([]Vector, len(positions))
	for l, p := range positions {
		masks[l] = FromOnes(p)
		lb.SetLane(l, masks[l])
	}
	for _, p := range positions {
		q := FromOnes(p)
		if got, want := lb.SubsetLanes(q), scalarSubsetLanes(masks, q); got != want {
			t.Fatalf("bit %d: hits = %#x, want %#x", p, got, want)
		}
	}
	all := FromOnes(positions...)
	if got := lb.SubsetLanes(all); got != (1<<len(positions))-1 {
		t.Fatalf("all-bits query: hits = %#x, want all lanes", got)
	}
}

func TestAndNotIsZeroMatchesSubsetOf(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		v, q := randVec(rng, 1+rng.Intn(30)), randVec(rng, 1+rng.Intn(60))
		if AndNotIsZero(v, q) != v.SubsetOf(q) {
			t.Fatalf("AndNotIsZero disagrees with SubsetOf: v=%s q=%s", v.Hex(), q.Hex())
		}
	}
}

func TestPrefixSubsetOfMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		v, q := randVec(rng, 1+rng.Intn(30)), randVec(rng, 1+rng.Intn(60))
		for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 150, 191, 192, 200, rng.Intn(2 * W)} {
			if got, want := v.PrefixSubsetOf(n, q), v.Prefix(n).SubsetOf(q); got != want {
				t.Fatalf("PrefixSubsetOf(%d) = %v, materialized = %v (v=%s q=%s)",
					n, got, want, v.Hex(), q.Hex())
			}
		}
	}
}

func BenchmarkLaneBlockSubsetLanes(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	var lb LaneBlock
	for l := 0; l < 64; l++ {
		lb.SetLane(l, randVec(rng, 20))
	}
	qs := make([]Vector, 64)
	for i := range qs {
		qs[i] = randVec(rng, 60)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= lb.SubsetLanes(qs[i&63])
	}
	_ = sink
}

// TestAppendSlicedGroupsMatchesBuild: appending partitions' groups to a
// shared array yields each partition's BuildSlicedGroups, whatever the
// array's spare capacity held before.
func TestAppendSlicedGroupsMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	sets := make([]Vector, 300)
	for i := range sets {
		sets[i] = randVec(rng, 20)
	}
	dst := make([]SlicedGroup, 1, 16)
	for i := range dst[:cap(dst)] {
		dst[:cap(dst)][i].Valid = ^uint64(0) // stale data beyond len
	}
	lo := 0
	for _, n := range []int{1, 64, 65, 170} {
		at := len(dst)
		dst = AppendSlicedGroups(dst, sets[lo:lo+n])
		if got, want := dst[at:], BuildSlicedGroups(sets[lo:lo+n]); !slices.Equal(got, want) {
			t.Fatalf("%d sets: appended groups differ from a fresh build", n)
		}
		lo += n
	}
}

// setLaneGroups is the reference transpose: every lane set one bit at a
// time through SetLane, the gate the intersection of the lanes.
func setLaneGroups(sets []Vector) []SlicedGroup {
	out := make([]SlicedGroup, (len(sets)+63)/64)
	for i, v := range sets {
		g := &out[i/64]
		if i%64 == 0 {
			g.Gate = Vector{^uint64(0), ^uint64(0), ^uint64(0)}
		}
		g.SetLane(i%64, v)
		g.Gate = g.Gate.And(v)
	}
	return out
}

// TestAppendSlicedGroupsMatchesSetLane holds the word-parallel transpose
// to the per-lane reference over every tail length from 0 to 130 sets (no
// group, a partial one, full ones and a partial third) and bit densities
// from empty through sparse to every bit set, appended behind a group
// whose spare capacity holds stale data.
func TestAppendSlicedGroupsMatchesSetLane(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	full := Vector{^uint64(0), ^uint64(0), ^uint64(0)}
	for _, bits := range []int{0, 1, 3, 12, 40, 96, 150, -1} {
		for n := 0; n <= 130; n++ {
			sets := make([]Vector, n)
			for i := range sets {
				if bits < 0 {
					sets[i] = full
				} else {
					sets[i] = randVec(rng, bits)
				}
			}
			dst := make([]SlicedGroup, 1, 4)
			for i := range dst[:cap(dst)] {
				dst[:cap(dst)][i].Cols[i] = ^uint64(0)
			}
			got := AppendSlicedGroups(dst, sets)[1:]
			if want := setLaneGroups(sets); !slices.Equal(got, want) {
				t.Fatalf("%d sets of %d bits: groups differ from SetLane's", n, bits)
			}
		}
	}
}
