package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"tagmatch/internal/gpu"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db := makeTestDB(2000, 5, 3, 71)
	src, err := New(Config{MaxPartitionSize: 200, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	db.load(src)
	if err := src.Consolidate(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dst, err := New(Config{MaxPartitionSize: 200, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	sst, dstSt := src.Stats(), dst.Stats()
	if sst.UniqueSets != dstSt.UniqueSets || sst.Keys != dstSt.Keys {
		t.Fatalf("shape mismatch: src %d/%d, dst %d/%d",
			sst.UniqueSets, sst.Keys, dstSt.UniqueSets, dstSt.Keys)
	}

	// Answers must be identical.
	for _, q := range db.makeQueries(100, 72) {
		a, err := match(src, Request{Sig: q, Unique: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := match(dst, Request{Sig: q, Unique: true})
		if err != nil {
			t.Fatal(err)
		}
		sortKeysSlice(a)
		sortKeysSlice(b)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("answers diverge after snapshot: %v vs %v", a, b)
		}
	}
}

func TestSnapshotWithExactTags(t *testing.T) {
	src, err := New(Config{Threads: 1, ExactVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.AddSet([]string{"a", "b"}, 1)
	src.AddSet([]string{"c"}, 2)
	if err := src.Consolidate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dst, err := New(Config{Threads: 1, ExactVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := match(dst, tagReq([]string{"a", "b", "x"}, false))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1]" {
		t.Fatalf("got %v", got)
	}
	// The tags survived: a query that bitwise-collides but string-differs
	// is still verified (cannot easily construct a collision; instead
	// assert the loaded engine still answers exactly for a subset query).
	if got, _ := match(dst, tagReq([]string{"a"}, false)); len(got) != 0 {
		t.Fatalf("partial query matched %v", got)
	}
}

// TestSnapshotIncludesStaged pins the live-update snapshot contract: a
// snapshot taken mid-churn carries db ⊕ staged, so pending adds and
// removes survive a save/load cycle without a Consolidate first.
func TestSnapshotIncludesStaged(t *testing.T) {
	e, err := New(Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddSet([]string{"a"}, 1)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	// Staged but unconsolidated: an add and a remove against the main db.
	e.AddSet([]string{"b"}, 2)
	e.RemoveSet([]string{"a"}, 1)
	if e.PendingOps() != 2 {
		t.Fatalf("PendingOps = %d, want 2", e.PendingOps())
	}
	var buf bytes.Buffer
	if err := e.SaveSnapshot(&buf); err != nil {
		t.Fatalf("SaveSnapshot with staged ops: %v", err)
	}
	// Saving must not drain the staged log.
	if e.PendingOps() != 2 {
		t.Fatalf("PendingOps after save = %d, want 2", e.PendingOps())
	}

	dst, err := New(Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, _ := match(dst, tagReq([]string{"a", "b"}, false))
	if fmt.Sprint(got) != "[2]" {
		t.Fatalf("restored engine answered %v, want [2]", got)
	}
}

func TestSnapshotEmptyDatabase(t *testing.T) {
	src, _ := New(Config{Threads: 1})
	defer src.Close()
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst, _ := New(Config{Threads: 1})
	defer dst.Close()
	if err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.Stats().UniqueSets != 0 {
		t.Fatal("empty snapshot produced sets")
	}
}

func TestSnapshotCorruption(t *testing.T) {
	src, _ := New(Config{Threads: 1})
	defer src.Close()
	src.AddSet([]string{"a"}, 1)
	if err := src.Consolidate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("NOTMAGIC"), full[8:]...),
		"truncated":   full[:len(full)-3],
		"short magic": full[:4],
	}
	for name, data := range cases {
		dst, _ := New(Config{Threads: 1})
		if err := dst.LoadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
		dst.Close()
	}
}

func TestSnapshotLoadMerges(t *testing.T) {
	src, _ := New(Config{Threads: 1})
	defer src.Close()
	src.AddSet([]string{"a"}, 1)
	if err := src.Consolidate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dst, _ := New(Config{Threads: 1})
	defer dst.Close()
	dst.AddSet([]string{"b"}, 2)
	if err := dst.Consolidate(); err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, _ := match(dst, tagReq([]string{"a", "b"}, false))
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("merged load: %v", got)
	}
}

// TestSnapshotRestoreSlicedParity restores a snapshot into a GPU-backed
// engine running the default bit-sliced kernel and holds every answer to
// exact parity with the brute-force reference: the restore path
// (LoadSnapshot staging + its internal Consolidate) must rebuild the
// column-transposed device index identically to a live-built one.
func TestSnapshotRestoreSlicedParity(t *testing.T) {
	db := makeTestDB(2000, 5, 3, 91)
	src, err := New(Config{MaxPartitionSize: 200, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	db.load(src)
	if err := src.Consolidate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	devs := []*gpu.Device{newTestGPU(t, 2), newTestGPU(t, 2)}
	dst, err := New(Config{
		MaxPartitionSize: 200, BatchSize: 32, Threads: 2,
		Devices: devs, StreamsPerDevice: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	verifyEngine(t, dst, db, db.makeQueries(1000, 92), false)

	st := dst.Stats()
	if st.KernelSliced == 0 {
		t.Fatal("restored engine never ran the bit-sliced kernel")
	}
	launches := devs[0].Stats().KernelLaunches + devs[1].Stats().KernelLaunches
	if launches == 0 {
		t.Fatal("restored engine never launched on a device")
	}
}

// TestSnapshotRestoreChaosParity restores a snapshot and then drives the
// restored engine under a combined fault-and-straggler plan with hedging
// enabled: the restored index must stay exact through retries, hedges,
// and CPU fallbacks, proving restore composes with the whole
// tail-tolerant dispatch path.
func TestSnapshotRestoreChaosParity(t *testing.T) {
	db := makeTestDB(1500, 5, 2, 93)
	src, err := New(Config{MaxPartitionSize: 200, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	db.load(src)
	if err := src.Consolidate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	devs := []*gpu.Device{newTestGPU(t, 2), newTestGPU(t, 2)}
	dst, err := New(Config{
		MaxPartitionSize: 200, BatchSize: 32, Threads: 2,
		Devices: devs, StreamsPerDevice: 2,
		FailureThreshold:  3,
		QuarantineBackoff: time.Millisecond,
		HedgePolicy:       HedgePolicy{Mode: HedgeFixed, Budget: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	mem := deviceMem(dst)
	// The plan counts operations from its installation, so FailOps fails
	// device 0's first one whatever the run's interleaving: at least one
	// fault is certain, and the seeded draws add more.
	devs[0].SetFaultPlan(&gpu.FaultPlan{
		Seed: 21, CopyFailProb: 0.05, LaunchFailProb: 0.05,
		SlowProb: 0.02, SlowDelay: 2 * time.Millisecond,
		FailOps: []int64{1},
	})

	verifyEngine(t, dst, db, db.makeQueries(2000, 94), false)
	// A hedge can answer a batch before its failed GPU attempt reports the
	// fault; the drain waits for every attempt chain to end.
	assertDrained(t, dst, mem)

	st := dst.Stats()
	if st.QueriesCompleted != st.QueriesSubmitted {
		t.Fatalf("lost queries: submitted %d completed %d",
			st.QueriesSubmitted, st.QueriesCompleted)
	}
	if st.GPUFaults == 0 {
		t.Fatal("no GPU faults recorded despite the fault plan")
	}
}
