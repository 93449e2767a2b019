package gpu

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestOpenStreamFIFOSize checks that a stream's operation FIFO holds
// 64 pending operations.
func TestOpenStreamFIFOSize(t *testing.T) {
	d := newTestDevice(t)
	def, err := d.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	if cap(def.ops) != 64 {
		t.Fatalf("OpenStream: FIFO cap = %d, want 64", cap(def.ops))
	}
}

// TestPipelinedLaunchZeroed checks the fused header reset: the launch
// clears the requested words device-side (no separate H2D copy), and
// the kernel observes the cleared state.
func TestPipelinedLaunchZeroed(t *testing.T) {
	d := newTestDevice(t)
	hdr := MustAlloc[uint32](d, 4)
	defer hdr.Free()
	if err := hdr.CopyToDevice(0, []uint32{7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	s, err := d.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	copies := d.Stats().CopiesHtoD
	var sawAtLaunch [2]uint32
	s.LaunchZeroedAsync(Grid{Blocks: 1, BlockDim: 1}, hdr, 2, func(b *BlockCtx) {
		b.Threads(func(int) {
			sawAtLaunch[0] = atomic.LoadUint32(&hdr.Data()[0])
			sawAtLaunch[1] = atomic.LoadUint32(&hdr.Data()[1])
			atomic.AddUint32(&hdr.Data()[0], 5)
		})
	})
	if err := s.SynchronizeErr(); err != nil {
		t.Fatal(err)
	}
	if sawAtLaunch != [2]uint32{0, 0} {
		t.Fatalf("kernel saw header %v, want zeroed", sawAtLaunch)
	}
	got := make([]uint32, 4)
	if err := hdr.CopyFromDevice(got, 0); err != nil {
		t.Fatal(err)
	}
	// Words 0-1 reset (then incremented by the kernel); 2-3 untouched.
	if got[0] != 5 || got[1] != 0 || got[2] != 9 || got[3] != 10 {
		t.Fatalf("header after fused launch = %v, want [5 0 9 10]", got)
	}
	if extra := d.Stats().CopiesHtoD - copies; extra != 0 {
		t.Fatalf("fused reset issued %d H2D copies, want 0", extra)
	}
	if err := s.SynchronizeErr(); err != nil {
		t.Fatal(err)
	}

	// Out-of-range reset fails the launch instead of corrupting memory.
	s.LaunchZeroedAsync(Grid{Blocks: 1, BlockDim: 1}, hdr, 5, func(b *BlockCtx) {})
	if err := s.SynchronizeErr(); err == nil {
		t.Fatal("out-of-range fused reset succeeded")
	}
}

// TestPipelinedGatedCopy checks CopyFromDeviceGated: the gate resolves
// the destination at the FIFO head (after earlier ops of the segment),
// a nil destination skips the transfer at zero cost, and a pending
// segment error skips the gate entirely.
func TestPipelinedGatedCopy(t *testing.T) {
	d := newTestDevice(t)
	buf := MustAlloc[uint32](d, 8)
	defer buf.Free()
	s, err := d.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The gate reads sizing state written by an earlier callback of the
	// same stream — the header-then-payload pattern of the dispatch path.
	var want []uint32
	var n int
	for i := range 8 {
		want = append(want, uint32(i*3))
	}
	CopyToDeviceAsync(s, buf, 0, want)
	s.Callback(func() { n = 5 })
	var got []uint32
	CopyFromDeviceGated(s, buf, func() ([]uint32, int) {
		got = make([]uint32, n)
		return got, 0
	})
	if err := s.SynchronizeErr(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("gate ran before the sizing callback: len(dst) = %d", len(got))
	}
	for i, v := range got {
		if v != want[i] {
			t.Fatalf("gated copy mismatch at %d: %d != %d", i, v, want[i])
		}
	}

	// nil destination: no transfer, no op recorded, no bus cost.
	d2h := d.Stats().CopiesDtoH
	CopyFromDeviceGated(s, buf, func() ([]uint32, int) { return nil, 0 })
	if err := s.SynchronizeErr(); err != nil {
		t.Fatal(err)
	}
	if extra := d.Stats().CopiesDtoH - d2h; extra != 0 {
		t.Fatalf("skipped gated copy recorded %d D2H ops, want 0", extra)
	}

	// A failed op earlier in the segment must skip the gate: its closure
	// reads state a failed callback chain never staged.
	d.SetFaultPlan(&FaultPlan{Seed: 1, CopyFailProb: 1})
	gateRan := false
	CopyToDeviceAsync(s, buf, 0, want)
	CopyFromDeviceGated(s, buf, func() ([]uint32, int) {
		gateRan = true
		return make([]uint32, 1), 0
	})
	err = s.SynchronizeErr()
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("segment error = %v, want injected fault", err)
	}
	if gateRan {
		t.Fatal("gate ran despite an earlier segment error")
	}
	d.SetFaultPlan(nil)
}

// TestPipelinedOpTags checks that the optional enqueue tag rides on the
// OpRecord to the OnOp observer for every async op flavor — the slot
// attribution the pipelined dispatcher relies on when batches from
// different slots interleave on one stream.
func TestPipelinedOpTags(t *testing.T) {
	d := newTestDevice(t)
	buf := MustAlloc[uint32](d, 4)
	defer buf.Free()
	s, err := d.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	var tags []any
	s.OnOp(func(r OpRecord) { tags = append(tags, r.Tag) })
	defer s.Close()

	type slot struct{ id int }
	a, b := &slot{1}, &slot{2}
	src := make([]uint32, 4)
	dst := make([]uint32, 4)
	CopyToDeviceAsync(s, buf, 0, src, a)
	s.LaunchZeroedAsync(Grid{Blocks: 1, BlockDim: 1}, buf, 1, func(*BlockCtx) {}, a)
	CopyFromDeviceAsync(s, buf, dst, 0, b)
	CopyFromDeviceGated(s, buf, func() ([]uint32, int) { return dst, 0 }, b)
	CopyToDeviceAsync(s, buf, 0, src) // untagged: Tag stays nil
	s.Synchronize()

	wantTags := []any{a, a, b, b, nil}
	if len(tags) != len(wantTags) {
		t.Fatalf("observed %d op records, want %d", len(tags), len(wantTags))
	}
	for i, wantTag := range wantTags {
		if tags[i] != wantTag {
			t.Fatalf("op %d tag = %v, want %v", i, tags[i], wantTag)
		}
	}
}
