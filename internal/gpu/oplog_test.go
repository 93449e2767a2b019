package gpu

import (
	"testing"
	"time"
)

// TestOpRecords exercises the per-op telemetry ring: stream-issued and
// direct operations must both be recorded, with kinds, sizes, stream
// ids, and wait/service phases consistent with how they were issued.
func TestOpRecords(t *testing.T) {
	d := New(Config{Name: "oplog", OpLogSize: 16})
	defer d.Close()

	buf := MustAlloc[uint32](d, 64)
	defer buf.Free()

	s, err := d.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	var observed []OpRecord
	s.OnOp(func(r OpRecord) { observed = append(observed, r) })

	src := make([]uint32, 64)
	CopyToDeviceAsync(s, buf, 0, src)
	s.LaunchAsync(Grid{Blocks: 4, BlockDim: 8}, func(b *BlockCtx) {})
	dst := make([]uint32, 64)
	CopyFromDeviceAsync(s, buf, dst, 0)
	s.Synchronize()
	s.Close()

	// One direct (non-stream) copy on top.
	if err := buf.CopyFromDevice(dst, 0); err != nil {
		t.Fatal(err)
	}

	recs := d.OpRecords()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	wantKinds := []OpKind{OpH2D, OpKernel, OpD2H, OpD2H}
	for i, r := range recs {
		if r.Kind != wantKinds[i] {
			t.Errorf("record %d: kind %s, want %s", i, r.Kind, wantKinds[i])
		}
		if r.Device != "oplog" {
			t.Errorf("record %d: device %q", i, r.Device)
		}
		if r.Wait() < 0 || r.Service() < 0 {
			t.Errorf("record %d: negative wait/service (%v, %v)", i, r.Wait(), r.Service())
		}
	}
	for _, r := range recs[:3] {
		if r.Stream != s.ID() {
			t.Errorf("stream op recorded with stream %d, want %d", r.Stream, s.ID())
		}
	}
	if recs[0].Bytes != 256 || recs[2].Bytes != 256 {
		t.Errorf("copy bytes = %d/%d, want 256", recs[0].Bytes, recs[2].Bytes)
	}
	if recs[1].Blocks != 4 {
		t.Errorf("kernel blocks = %d, want 4", recs[1].Blocks)
	}
	direct := recs[3]
	if direct.Stream != -1 {
		t.Errorf("direct copy stream = %d, want -1", direct.Stream)
	}
	if direct.Wait() != 0 {
		t.Errorf("direct copy wait = %v, want 0", direct.Wait())
	}
	if len(observed) != 3 {
		t.Fatalf("observer saw %d records, want 3 (stream ops only)", len(observed))
	}
	for i, r := range observed {
		if r.Kind != wantKinds[i] {
			t.Errorf("observed %d: kind %s, want %s", i, r.Kind, wantKinds[i])
		}
	}
}

// TestOpRecordsRingWraparound checks the fixed-size ring retains the
// most recent records, oldest first.
func TestOpRecordsRingWraparound(t *testing.T) {
	d := New(Config{Name: "wrap", OpLogSize: 4})
	defer d.Close()
	buf := MustAlloc[byte](d, 16)
	defer buf.Free()

	for i := 0; i < 10; i++ {
		if err := buf.CopyToDevice(0, make([]byte, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	recs := d.OpRecords()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if want := int64(7 + i); r.Bytes != want {
			t.Errorf("record %d: bytes %d, want %d (most recent 4, oldest first)", i, r.Bytes, want)
		}
	}
}

// TestOpLogDisabled pins that OpLogSize=0 (the default) retains no
// records while the aggregate accounting still runs.
func TestOpLogDisabled(t *testing.T) {
	d := New(Config{Name: "off"})
	defer d.Close()
	buf := MustAlloc[byte](d, 8)
	defer buf.Free()
	if err := buf.CopyToDevice(0, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if recs := d.OpRecords(); len(recs) != 0 {
		t.Fatalf("got %d records with OpLogSize=0, want 0", len(recs))
	}
	if s := d.OverlapStats(); s.CopyNs <= 0 {
		t.Errorf("copy-active time = %d, want > 0", s.CopyNs)
	}
}

// TestOverlapAccounting holds a kernel in flight while a copy runs and
// checks the overlap interval accounting: the copy's wall time must be
// charged to OverlapNs, and overlap can never exceed kernel-active or
// copy-active time. The kernel blocks on a channel rather than relying
// on scheduler concurrency, so the test is deterministic on one CPU.
func TestOverlapAccounting(t *testing.T) {
	cost := CostModel{CopyOverhead: 200 * time.Microsecond}
	d := New(Config{Name: "ov", Cost: cost})
	defer d.Close()
	buf := MustAlloc[byte](d, 1024)
	defer buf.Free()

	s1, err := d.OpenStream()
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	s1.LaunchAsync(Grid{Blocks: 1, BlockDim: 1}, func(b *BlockCtx) {
		close(started)
		<-release
	})
	<-started
	// Kernel provably in flight: this copy's entire service time is
	// kernel-overlapped.
	if err := buf.CopyToDevice(0, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	close(release)
	s1.Synchronize()
	s1.Close()

	st := d.OverlapStats()
	if st.KernelNs <= 0 || st.CopyNs <= 0 {
		t.Fatalf("kernel/copy active time = %d/%d, want both > 0", st.KernelNs, st.CopyNs)
	}
	if st.OverlapNs <= 0 {
		t.Errorf("overlap = 0 despite concurrent streams (kernel %d ns, copy %d ns)", st.KernelNs, st.CopyNs)
	}
	if st.OverlapNs > st.KernelNs || st.OverlapNs > st.CopyNs {
		t.Errorf("overlap %d exceeds kernel %d or copy %d", st.OverlapNs, st.KernelNs, st.CopyNs)
	}
	if f := d.OverlapFraction(); f < 0 || f > 1 {
		t.Errorf("overlap fraction %f out of [0,1]", f)
	}
	if u := d.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization %f out of (0,1]", u)
	}
	stats := d.Stats()
	if stats.SMBusyNs <= 0 || stats.KernelActiveNs <= 0 || stats.OverlapNs != st.OverlapNs {
		t.Errorf("Stats overlap fields not populated: %+v", stats)
	}
}
