package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// sharedVocabWorkload builds a database and queries over a small shared
// vocabulary, the regime where Bloom false positives actually occur.
func sharedVocabWorkload(nSets, nQueries int, seed int64) (sets [][]string, queries [][]string) {
	rng := rand.New(rand.NewSource(seed))
	tag := func() string { return fmt.Sprintf("a:%d", rng.Intn(800)) }
	sets = make([][]string, nSets)
	for i := range sets {
		n := 1 + rng.Intn(3)
		sets[i] = make([]string, n)
		for j := range sets[i] {
			sets[i][j] = tag()
		}
	}
	queries = make([][]string, nQueries)
	for i := range queries {
		queries[i] = make([]string, 14)
		for j := range queries[i] {
			queries[i][j] = tag()
		}
	}
	return sets, queries
}

// exactExpected computes the true (non-Bloom) answer.
func exactExpected(sets [][]string, keysOf func(int) Key, q []string) []Key {
	qset := map[string]bool{}
	for _, t := range q {
		qset[t] = true
	}
	var out []Key
	for i, s := range sets {
		ok := true
		for _, t := range s {
			if !qset[t] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, keysOf(i))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestExactVerifyEliminatesFalsePositives(t *testing.T) {
	sets, queries := sharedVocabWorkload(20000, 150, 61)
	keyOf := func(i int) Key { return Key(i + 1) }

	build := func(exact bool) *Engine {
		e, err := New(Config{
			MaxPartitionSize: 500, BatchSize: 64, Threads: 2, ExactVerify: exact,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sets {
			e.AddSet(s, keyOf(i))
		}
		if err := e.Consolidate(); err != nil {
			t.Fatal(err)
		}
		return e
	}

	exactEng := build(true)
	defer exactEng.Close()
	bloomEng := build(false)
	defer bloomEng.Close()

	falsePositives := 0
	for _, q := range queries {
		want := exactExpected(sets, keyOf, q)

		got, err := match(exactEng, tagReq(q, false))
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("exact-verify mismatch: got %d keys, want %d", len(got), len(want))
		}

		raw, err := match(bloomEng, tagReq(q, false))
		if err != nil {
			t.Fatal(err)
		}
		falsePositives += len(raw) - len(want)
		if len(raw) < len(want) {
			t.Fatal("Bloom matching lost true positives (impossible: no false negatives)")
		}
	}
	// The small shared vocabulary makes Bloom false positives likely
	// across 150 wide queries × 20K sets; if none occurred the exact
	// path was not actually exercised against anything.
	if falsePositives == 0 {
		t.Log("no Bloom false positives occurred; exact path verified only equivalence")
	}
}

func TestExactVerifyMatchUnique(t *testing.T) {
	e, err := New(Config{MaxPartitionSize: 16, BatchSize: 8, Threads: 1, ExactVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddSet([]string{"x", "y"}, 1)
	e.AddSet([]string{"x"}, 1)
	e.AddSet([]string{"z"}, 2)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	got, err := match(e, tagReq([]string{"x", "y", "w"}, true))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1]" {
		t.Fatalf("got %v", got)
	}
}

func TestExactVerifySignatureEntriesPassThrough(t *testing.T) {
	// Entries staged via AddSignature carry no tags and cannot be
	// verified; they must still match (documented pass-through).
	e, err := New(Config{MaxPartitionSize: 16, BatchSize: 8, Threads: 1, ExactVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddSignature(randomSets(1, 3, 5)[0], 7)
	e.AddSet([]string{"t"}, 8)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	// A query that bitwise-covers the raw signature must return key 7
	// even though it cannot be exactly verified.
	sig := randomSets(1, 3, 5)[0]
	q := sig.Or(randomSets(1, 2, 6)[0])
	got, err := match(e, Request{Sig: q})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range got {
		if k == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("signature-staged entry not matched: %v", got)
	}
}

func TestExactVerifyOnGPU(t *testing.T) {
	sets, queries := sharedVocabWorkload(5000, 60, 63)
	keyOf := func(i int) Key { return Key(i + 1) }
	e, err := New(Config{
		MaxPartitionSize: 300, BatchSize: 32, Threads: 2, ExactVerify: true,
		GPUs: 1, GPUWorkers: 4, StreamsPerGPU: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i, s := range sets {
		e.AddSet(s, keyOf(i))
	}
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want := exactExpected(sets, keyOf, q)
		got, err := match(e, tagReq(q, false))
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("GPU exact-verify mismatch: got %d want %d keys", len(got), len(want))
		}
	}
}
