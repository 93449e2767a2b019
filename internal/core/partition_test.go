package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"tagmatch/internal/bitvec"
)

func randomSets(n, tagsPerSet int, seed int64) []bitvec.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]bitvec.Vector, n)
	seen := make(map[bitvec.Vector]bool, n)
	for i := 0; i < n; {
		var v bitvec.Vector
		for j := 0; j < tagsPerSet*7; j++ { // ~7 bits per tag, like Bloom k=7
			v.Set(rng.Intn(bitvec.W))
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		out[i] = v
		i++
	}
	return out
}

// checkPartitionInvariants verifies the Algorithm 1 postconditions:
// every input set appears in exactly one partition, and every member of a
// partition contains the partition's mask.
func checkPartitionInvariants(t *testing.T, sets []bitvec.Vector, specs []partitionSpec, maxP int) {
	t.Helper()
	seen := make([]int, len(sets))
	for pi, spec := range specs {
		if len(spec.members) == 0 {
			t.Fatalf("partition %d is empty", pi)
		}
		for _, m := range spec.members {
			seen[m]++
			if !spec.mask.SubsetOf(sets[m]) {
				t.Fatalf("partition %d: member %d does not contain mask", pi, m)
			}
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("set %d appears in %d partitions, want 1", i, c)
		}
	}
	// Size bound: only violable when all 192 pivot bits were exhausted,
	// which cannot happen for these diverse random sets.
	for pi, spec := range specs {
		if len(spec.members) > maxP {
			t.Fatalf("partition %d has %d members > MAX_P %d", pi, len(spec.members), maxP)
		}
		if spec.mask.IsZero() {
			t.Fatalf("partition %d has empty mask", pi)
		}
	}
}

func TestBalancedPartitionInvariants(t *testing.T) {
	sets := randomSets(5000, 5, 1)
	const maxP = 200
	specs := balancedPartition(sets, maxP)
	checkPartitionInvariants(t, sets, specs, maxP)
	if len(specs) < 5000/maxP {
		t.Fatalf("only %d partitions; cannot cover %d sets with max %d", len(specs), 5000, maxP)
	}
}

func TestBalancedPartitionSmallInputs(t *testing.T) {
	if got := balancedPartition(nil, 100); got != nil {
		t.Fatal("empty database should produce no partitions")
	}
	one := []bitvec.Vector{bitvec.FromOnes(3, 77)}
	specs := balancedPartition(one, 100)
	if len(specs) != 1 || len(specs[0].members) != 1 {
		t.Fatalf("single set should form one partition: %+v", specs)
	}
	if specs[0].mask.IsZero() {
		t.Fatal("single-set partition must still acquire a non-empty mask")
	}
}

func TestBalancedPartitionMaxPOne(t *testing.T) {
	sets := randomSets(64, 4, 2)
	specs := balancedPartition(sets, 1)
	checkPartitionInvariants(t, sets, specs, 1)
	if len(specs) != 64 {
		t.Fatalf("with MAX_P=1, want 64 singleton partitions, got %d", len(specs))
	}
}

func TestBalancedPartitionBalance(t *testing.T) {
	// With pivot bits chosen at ~50% frequency, partitions should be
	// reasonably balanced: no partition should hold more than a tiny
	// fraction of the database when MAX_P is small.
	sets := randomSets(20000, 5, 3)
	const maxP = 500
	specs := balancedPartition(sets, maxP)
	largest := 0
	for _, s := range specs {
		if len(s.members) > largest {
			largest = len(s.members)
		}
	}
	if largest > maxP {
		t.Fatalf("largest partition %d exceeds MAX_P %d", largest, maxP)
	}
	// Average fill should not be pathologically small either (balanced
	// splits roughly halve until under MAX_P).
	avg := float64(len(sets)) / float64(len(specs))
	if avg < float64(maxP)/20 {
		t.Fatalf("average partition fill %.1f suspiciously small (specs=%d)", avg, len(specs))
	}
}

func TestBalancedPartitionNearDuplicateSets(t *testing.T) {
	// Sets sharing almost all bits: the partitioner must terminate and
	// cover everything even when most pivots split unevenly.
	base := bitvec.FromOnes(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	sets := make([]bitvec.Vector, 100)
	for i := range sets {
		v := base
		v.Set(20 + i)
		sets[i] = v
	}
	specs := balancedPartition(sets, 10)
	checkPartitionInvariants(t, sets, specs, 100 /* allow loose bound */)
	total := 0
	for _, s := range specs {
		total += len(s.members)
	}
	if total != 100 {
		t.Fatalf("covered %d sets, want 100", total)
	}
}

func TestBalancedPartitionIdenticalPathology(t *testing.T) {
	// Two distinct vectors, one the subset of the other, MAX_P=1: the
	// algorithm must terminate (used bits grow monotonically) and cover
	// both.
	a := bitvec.FromOnes(5)
	b := bitvec.FromOnes(5, 9)
	specs := balancedPartition([]bitvec.Vector{a, b}, 1)
	total := 0
	for _, s := range specs {
		total += len(s.members)
	}
	if total != 2 {
		t.Fatalf("covered %d, want 2 (specs=%v)", total, specs)
	}
}

// pickPivot is the partitioner's pivot rule as it was before work items
// carried their frequency tables: it recounts every member's bits and
// returns the bit position not in used whose one-frequency is closest to
// 50%, or -1 when every bit is used. Kept as the oracle bitFreq.count,
// bitFreq.split and bitFreq.pivot are compared with.
func pickPivot(sets []bitvec.Vector, members []int32, used bitvec.Vector) int {
	var freq [bitvec.W]int32
	for _, idx := range members {
		v := sets[idx]
		for b := 0; b < bitvec.Blocks; b++ {
			blk := v[b]
			for blk != 0 {
				i := bits.LeadingZeros64(blk)
				freq[b*64+i]++
				blk &^= 1 << (63 - uint(i))
			}
		}
	}
	n := int32(len(members))
	half := n / 2
	best, bestDist := -1, int32(1<<30)
	var fallback int = -1
	for p := 0; p < bitvec.W; p++ {
		if used.Test(p) {
			continue
		}
		f := freq[p]
		if f == 0 || f == n {
			if fallback < 0 {
				fallback = p
			}
			continue
		}
		d := f - half
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = p, d
		}
	}
	if best >= 0 {
		return best
	}
	return fallback
}

// gather returns the signatures of members, in order.
func gather(sets []bitvec.Vector, members []int32) []bitvec.Vector {
	out := make([]bitvec.Vector, len(members))
	for i, m := range members {
		out[i] = sets[m]
	}
	return out
}

// recountingPartition is Algorithm 1 driven by pickPivot: the reference
// balancedPartition must reproduce partition for partition.
func recountingPartition(sets []bitvec.Vector, maxP int) []partitionSpec {
	if len(sets) == 0 {
		return nil
	}
	maxP = max(maxP, 1)
	type work struct {
		mask, used bitvec.Vector
		members    []int32
	}
	all := make([]int32, len(sets))
	for i := range all {
		all[i] = int32(i)
	}
	queue := []work{{members: all}}
	var out []partitionSpec
	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		pivot := -1
		if len(w.members) > maxP || w.mask.IsZero() {
			pivot = pickPivot(sets, w.members, w.used)
		}
		if pivot < 0 {
			f := recount(sets, w.members)
			out = append(out, partitionSpec{mask: w.mask, members: w.members, sets: gather(sets, w.members), freq: &f})
			continue
		}
		w.used.Set(pivot)
		var p0, p1 []int32
		for _, idx := range w.members {
			if sets[idx].Test(pivot) {
				p1 = append(p1, idx)
			} else {
				p0 = append(p0, idx)
			}
		}
		if len(p0) > 0 {
			queue = append(queue, work{mask: w.mask, used: w.used, members: p0})
		}
		if len(p1) > 0 {
			m := w.mask
			m.Set(pivot)
			queue = append(queue, work{mask: m, used: w.used, members: p1})
		}
	}
	return out
}

// TestBalancedPartitionMatchesRecountingOracle holds Algorithm 1 to the
// recounting reference at one and at four OS threads: runs of more than
// forkRun·maxP members split their one-side on a goroutine of their own
// ("random" forks at the root, "forking" through several levels), and the
// output must not depend on how those goroutines are scheduled.
func TestBalancedPartitionMatchesRecountingOracle(t *testing.T) {
	nearDup := make([]bitvec.Vector, 300)
	for i := range nearDup {
		nearDup[i] = bitvec.FromOnes(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
		nearDup[i].Set(20 + i%150)
		nearDup[i].Set(180 - i/150)
	}
	cases := []struct {
		name string
		sets []bitvec.Vector
		maxP int
	}{
		{"random", randomSets(20000, 5, 11), 300},
		{"forking", randomSets(40000, 4, 15), 40},
		{"sparse", randomSets(3000, 1, 12), 40},
		{"singletons", randomSets(200, 4, 13), 1},
		{"near-duplicates", nearDup, 10},
		{"with-zero-vector", append(randomSets(500, 3, 14), bitvec.Vector{}), 50},
	}
	want := make([][]partitionSpec, len(cases))
	for i, tc := range cases {
		want[i] = recountingPartition(tc.sets, tc.maxP)
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i, tc := range cases {
				if got := balancedPartition(tc.sets, tc.maxP); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s: %d partitions differ from the recounting oracle's %d", tc.name, len(got), len(want[i]))
				}
			}
		})
	}
}

func TestPickPivotPrefersBalanced(t *testing.T) {
	// Bit 10 set in half the sets, bit 20 in all, bit 30 in none.
	sets := make([]bitvec.Vector, 10)
	for i := range sets {
		sets[i].Set(20)
		if i < 5 {
			sets[i].Set(10)
		}
	}
	members := make([]int32, len(sets))
	for i := range members {
		members[i] = int32(i)
	}
	var used bitvec.Vector
	if got := pickPivot(sets, members, used); got != 10 {
		t.Fatalf("pivot = %d, want 10 (the 50%% bit)", got)
	}
	used.Set(10)
	// With bit 10 used, remaining candidates are all 0%/100% bits; the
	// fallback must still return an unused bit.
	got := pickPivot(sets, members, used)
	if got < 0 || used.Test(got) {
		t.Fatalf("fallback pivot = %d", got)
	}
}

func TestPickPivotExhausted(t *testing.T) {
	sets := []bitvec.Vector{bitvec.FromOnes(0)}
	members := []int32{0}
	var used bitvec.Vector
	for i := 0; i < bitvec.W; i++ {
		used.Set(i)
	}
	if got := pickPivot(sets, members, used); got != -1 {
		t.Fatalf("pivot = %d with all bits used, want -1", got)
	}
}

func TestSortMembersLexicographically(t *testing.T) {
	sets := randomSets(200, 5, 4)
	members := make([]int32, len(sets))
	for i := range members {
		members[i] = int32(i)
	}
	sortMembersLexicographically(sets, members)
	for i := 1; i < len(members); i++ {
		if bitvec.Less(sets[members[i]], sets[members[i-1]]) {
			t.Fatalf("members not sorted at %d", i)
		}
	}
}

// Property: partitioning is a partition in the mathematical sense for
// arbitrary (deduplicated) inputs and arbitrary small MAX_P.
func TestQuickPartitionCovers(t *testing.T) {
	f := func(raw []bitvec.Vector, maxP uint8) bool {
		seen := map[bitvec.Vector]bool{}
		var sets []bitvec.Vector
		for _, v := range raw {
			if !seen[v] {
				seen[v] = true
				sets = append(sets, v)
			}
		}
		specs := balancedPartition(sets, int(maxP%32)+1)
		count := make([]int, len(sets))
		for _, s := range specs {
			for _, m := range s.members {
				if !s.mask.SubsetOf(sets[m]) {
					return false
				}
				count[m]++
			}
		}
		for _, c := range count {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBalancedPartition100K(b *testing.B) {
	sets := randomSets(100000, 5, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		balancedPartition(sets, 1000)
	}
}

func TestFirstFitPartitionCovers(t *testing.T) {
	sets := randomSets(3000, 5, 5)
	specs := firstFitPartition(sets, 250)
	seen := make([]int, len(sets))
	for _, s := range specs {
		if len(s.members) > 250 {
			t.Fatalf("chunk size %d > 250", len(s.members))
		}
		for _, m := range s.members {
			seen[m]++
			if !s.mask.SubsetOf(sets[m]) {
				t.Fatal("first-fit mask not contained in member")
			}
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("set %d covered %d times", i, c)
		}
	}
	if firstFitPartition(nil, 10) != nil {
		t.Fatal("empty input should yield no partitions")
	}
}
