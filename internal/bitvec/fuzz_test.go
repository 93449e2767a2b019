package bitvec

import (
	"testing"
)

// FuzzParseHex checks that arbitrary strings either fail cleanly or
// round-trip exactly.
func FuzzParseHex(f *testing.F) {
	f.Add("0123456789abcdef0123456789abcdef0123456789abcdef")
	f.Add("")
	f.Add("zz")
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseHex(s)
		if err != nil {
			return
		}
		if v.Hex() != normalizeHex(s) {
			t.Fatalf("round trip: %q -> %q", s, v.Hex())
		}
	})
}

// normalizeHex lowercases ASCII hex digits (ParseHex accepts both cases,
// Hex emits lowercase).
func normalizeHex(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'F' {
			b[i] = c - 'A' + 'a'
		}
	}
	return string(b)
}

// FuzzFromBinary checks the binary decoder against the encoder.
func FuzzFromBinary(f *testing.F) {
	f.Add(make([]byte, 24))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := FromBinary(data)
		if err != nil {
			if len(data) >= Blocks*8 {
				t.Fatalf("decoder rejected sufficient input (%d bytes)", len(data))
			}
			return
		}
		enc := v.AppendBinary(nil)
		for i := range enc {
			if enc[i] != data[i] {
				t.Fatalf("round trip differs at byte %d", i)
			}
		}
	})
}

// FuzzSubsetAlgebra derives two vectors from fuzz bytes and checks the
// subset laws the matcher depends on.
func FuzzSubsetAlgebra(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{4, 5})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var va, vb Vector
		for _, x := range a {
			va.Set(int(x) % W)
		}
		for _, x := range b {
			vb.Set(int(x) % W)
		}
		if !va.And(vb).SubsetOf(va) || !va.SubsetOf(va.Or(vb)) {
			t.Fatal("lattice laws violated")
		}
		if va.SubsetOf(vb) != (va.Or(vb) == vb) {
			t.Fatal("subset inconsistent with union")
		}
		if va.SubsetOf(vb) != (va.AndNot(vb).IsZero()) {
			t.Fatal("subset inconsistent with and-not")
		}
	})
}

// FuzzLaneBlockSubset packs fuzz-derived masks into a LaneBlock and
// checks the bit-sliced subset test against the scalar SubsetOf for
// every lane, and the word-parallel transpose (BuildSlicedGroups) against
// the block SetLane built.
func FuzzLaneBlockSubset(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 4}, []byte{5, 6})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0}, []byte{255, 0, 63, 64, 128, 191})
	f.Fuzz(func(t *testing.T, maskBytes, qBytes []byte) {
		// Each run of up to 8 bytes defines one mask (bit positions mod W);
		// at most 64 lanes.
		var lb LaneBlock
		var masks []Vector
		for i := 0; i < len(maskBytes) && len(masks) < 64; i += 8 {
			var m Vector
			for _, x := range maskBytes[i:min(i+8, len(maskBytes))] {
				m.Set(int(x) % W)
			}
			lb.SetLane(len(masks), m)
			masks = append(masks, m)
		}
		var q Vector
		for _, x := range qBytes {
			q.Set(int(x) % W)
		}
		var want uint64
		for l, m := range masks {
			if m.SubsetOf(q) {
				want |= 1 << uint(l)
			}
		}
		if got := lb.SubsetLanes(q); got != want {
			t.Fatalf("SubsetLanes = %#x, scalar = %#x (q=%s)", got, want, q.Hex())
		}
		if groups := BuildSlicedGroups(masks); len(masks) > 0 && groups[0].LaneBlock != lb {
			t.Fatal("BuildSlicedGroups differs from SetLane")
		}
	})
}
