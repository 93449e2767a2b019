package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"tagmatch/internal/bitvec"
)

// FuzzLoadSnapshot feeds arbitrary bytes to the snapshot loader, on a
// plain and on an ExactVerify engine: it must either load cleanly or fail
// with ErrBadSnapshot — never panic, never hang, never corrupt the engine.
// The seeds cover what the decoder must get right: a tagged stream, a
// repeated signature, a record without entries, and a header that
// declares 2^40 more records than follow and a record that declares 2^32-1
// more keys, neither of which the decoder may allocate for.
func FuzzLoadSnapshot(f *testing.F) {
	// Seed with a valid snapshot and a few mutations.
	e, err := New(Config{Threads: 1})
	if err != nil {
		f.Fatal(err)
	}
	e.AddSet([]string{"a", "b"}, 1)
	e.AddSet([]string{"c"}, 2)
	if err := e.Consolidate(); err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := e.SaveSnapshot(&valid); err != nil {
		f.Fatal(err)
	}
	e.Close()

	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte("TMSNAP01"))
	f.Add(valid.Bytes()[:12])
	mutated := append([]byte(nil), valid.Bytes()...)
	if len(mutated) > 20 {
		mutated[15] ^= 0xff
	}
	f.Add(mutated)
	ab, c := bitvec.FromOnes(1, 5, 9), bitvec.FromOnes(2, 70, 150)
	recs := []snapRecord{
		{sig: ab, keys: []Key{1, 2}, tags: [][]string{{"a", "b"}, {"b"}}},
		{sig: c, keys: []Key{3}, tags: [][]string{{"c"}}},
	}
	f.Add(encodeSnapshot(true, 2, recs))
	f.Add(encodeSnapshot(false, 3, append(recs, snapRecord{sig: ab, keys: []Key{4}})))
	f.Add(encodeSnapshot(false, 3, append(recs, snapRecord{sig: bitvec.FromOnes(40)})))
	f.Add(encodeSnapshot(false, 2+1<<40, recs))
	// A record whose entry count claims 2^32-1 keys, one of which follows.
	huge := encodeSnapshot(false, 1, []snapRecord{{sig: c, keys: []Key{7}}})
	binary.LittleEndian.PutUint32(huge[len(huge)-8:], ^uint32(0))
	f.Add(huge)

	// One engine of each kind for the whole fuzz process: creating an
	// engine (worker goroutines, channels) per execution makes the fuzz
	// coordinator crawl on small hosts. Loaded state accumulates across
	// executions, which is harmless for a robustness target.
	var engs []*Engine
	f.Cleanup(func() {
		for _, eng := range engs {
			eng.Close()
		}
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		// A fuzzed header can declare 2^60 sets, but the loader streams
		// until the reader runs dry, so cost is bounded by len(data).
		if len(data) > 1<<16 {
			return
		}
		if engs == nil {
			for _, cfg := range []Config{{Threads: 1}, {Threads: 1, ExactVerify: true}} {
				eng, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				engs = append(engs, eng)
			}
		}
		for _, eng := range engs {
			if err := eng.LoadSnapshot(bytes.NewReader(data)); err != nil {
				if !errors.Is(err, ErrBadSnapshot) {
					t.Fatalf("unexpected error type: %v", err)
				}
				continue
			}
			// A successful load must leave a usable engine.
			if _, err := match(eng, tagReq([]string{"x"}, false)); err != nil {
				t.Fatalf("engine unusable after load: %v", err)
			}
		}
	})
}

// FuzzSlicedLookup differentially fuzzes the bit-sliced partition lookup
// against the scalar Algorithm 2 scan: for any set of masks and any
// query, the two must return the same pid set.
func FuzzSlicedLookup(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 0, 0, 0, 0, 4, 5}, []byte{1, 2, 3, 4, 5})
	f.Add([]byte{}, []byte{7})
	f.Add([]byte{0, 0, 0, 0, 0}, []byte{})
	f.Fuzz(func(t *testing.T, maskBytes, qBytes []byte) {
		var parts []partition
		for i := 0; i < len(maskBytes) && len(parts) < 300; i += 5 {
			var m bitvec.Vector
			for _, x := range maskBytes[i:min(i+5, len(maskBytes))] {
				m.Set(int(x) % bitvec.W)
			}
			parts = append(parts, partition{mask: m})
		}
		pt, _ := buildPartitionTable(parts)
		var q bitvec.Vector
		for _, x := range qBytes {
			q.Set(int(x) % bitvec.W)
		}
		ones := q.Ones(nil)
		scalar := sortedPids(pt.lookup(q, ones, nil))
		sliced := sortedPids(pt.lookupSliced(q, ones, nil))
		if len(scalar) != len(sliced) {
			t.Fatalf("scalar %v != sliced %v (q=%s)", scalar, sliced, q.Hex())
		}
		for i := range scalar {
			if scalar[i] != sliced[i] {
				t.Fatalf("scalar %v != sliced %v (q=%s)", scalar, sliced, q.Hex())
			}
		}
	})
}
