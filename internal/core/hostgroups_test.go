package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"tagmatch/internal/gpu"
)

// totalGroups counts the groups of idx's partitions, wherever they are
// held.
func totalGroups(idx *layout) int {
	n := 0
	for i := range idx.parts {
		n += int(idx.parts[i].nGroups())
	}
	return n
}

// heldGroups returns the partitions whose groups the host holds, in id
// order, and how many groups that is.
func heldGroups(idx *layout) (pids []uint32, groups int) {
	for pid := range idx.groups {
		if g := idx.groups[pid].g; g != nil {
			pids = append(pids, uint32(pid))
			groups += len(g)
		}
	}
	return pids, groups
}

// assertNoHostGroups fails unless the live index holds no transposed group
// on the host and its byte count says so.
func assertNoHostGroups(t *testing.T, e *Engine, when string) {
	t.Helper()
	idx := e.idx.Load()
	if len(idx.devShards) == 0 {
		t.Fatalf("%s: the index has no device shards", when)
	}
	if pids, n := heldGroups(idx.layout); n != 0 {
		t.Fatalf("%s: the host holds %d groups of %d partitions beside the devices", when, n, len(pids))
	}
	if got, want := idx.hostBytes.Load(), hostBytesFor(idx); got != want {
		t.Fatalf("%s: hostBytes %d, the index holds %d", when, got, want)
	}
}

// foldedAfter waits for the background consolidator's first fold after
// the folds-th, and for its index to be swapped in.
func foldedAfter(t *testing.T, e *Engine, folds int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); e.Stats().AutoConsolidations == folds; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no background fold within 10s")
		}
	}
	e.consolidateMu.Lock()
	e.consolidateMu.Unlock()
}

// addNew stages n signatures the database has never held, one key each.
func addNew(e *Engine, db *testDB, n int, seed int64) {
	for _, sig := range randomSets(n, 5, seed) {
		k := Key(1<<24 + len(db.sigs))
		db.sigs = append(db.sigs, sig)
		db.keys = append(db.keys, []Key{k})
		e.AddSignature(sig, k)
	}
}

// TestHostBytesCountsHeldGroups: on the same data, an engine whose devices
// hold the transposed index reports at least its groups' bytes less host
// memory than a CPU-only engine, which holds them all, and both count what
// their arrays hold, slack included.
func TestHostBytesCountsHeldGroups(t *testing.T) {
	db := makeTestDB(3000, 5, 2, 41)
	var host [2]int64
	var groups int
	for i, gpus := range []int{0, 2} {
		e, err := New(Config{MaxPartitionSize: 400, BatchSize: 64, Threads: 2, GPUs: gpus, GPUWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		db.load(e)
		if err := e.Consolidate(); err != nil {
			t.Fatal(err)
		}
		idx := e.idx.Load()
		host[i], groups = e.Stats().HostBytes, totalGroups(idx.layout)
		if floor := int64(cap(idx.sets))*24 + int64(cap(idx.keys))*4; host[i] < floor {
			t.Errorf("GPUs %d: %d host bytes, the tagset and key tables' capacity alone is %d", gpus, host[i], floor)
		}
		want := 0 // the devices hold them
		if gpus == 0 {
			want = groups // the CPU kernel's index
		}
		if _, held := heldGroups(idx.layout); held != want {
			t.Errorf("GPUs %d: the host holds %d of %d groups", gpus, held, groups)
		}
		e.Close()
	}
	t.Logf("host bytes: %d CPU-only, %d with two devices; %d groups", host[0], host[1], groups)
	if host[0]-host[1] < int64(groups)*slicedGroupBytes {
		t.Fatalf("two devices save %d host bytes, the groups alone are %d", host[0]-host[1], int64(groups)*slicedGroupBytes)
	}
}

// TestNoHostGroupsWithDevices: a two-GPU engine holds no transposed group
// on the host after LoadSnapshot, after a fold of signatures the index
// never held (a full build), and after a key-only fold that re-attaches
// the devices a degraded generation gave up. The degraded generation
// holds every group. Answers stay exact throughout.
func TestNoHostGroupsWithDevices(t *testing.T) {
	db := makeTestDB(3000, 5, 2, 43)
	src, err := New(Config{MaxPartitionSize: 400, Threads: 2, DisableLiveUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	db.load(src)
	if err := src.Consolidate(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := src.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	src.Close()

	e, err := New(Config{
		MaxPartitionSize: 400, BatchSize: 64, Threads: 2, GPUs: 2, GPUWorkers: 2,
		DeltaMaxSets: 8, DeltaMaxRatio: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	assertNoHostGroups(t, e, "after LoadSnapshot")
	verifyEngine(t, e, db, db.makeQueries(200, 44), false)

	rows := len(e.idx.Load().sets)
	addNew(e, db, 8, 45)
	foldedAfter(t, e, 0)
	if n := len(e.idx.Load().sets); n != rows+8 {
		t.Fatalf("the fold laid out %d rows, before %d, for 8 new signatures", n, rows)
	}
	assertNoHostGroups(t, e, "after a fold of new signatures")
	verifyEngine(t, e, db, db.makeQueries(200, 46), false)

	// Every allocation fails: the next fold's upload fails and the index
	// degrades to CPU, keeping every group its build transposed.
	devs := e.devices
	for _, d := range devs {
		d.SetFaultPlan(&gpu.FaultPlan{Seed: 47, AllocFailProb: 1})
	}
	folds := e.Stats().AutoConsolidations
	addNew(e, db, 8, 47)
	foldedAfter(t, e, folds)
	idx := e.idx.Load()
	if len(idx.devShards) != 0 {
		t.Fatal("the fold attached devices that fail every allocation")
	}
	if _, held := heldGroups(idx.layout); held != totalGroups(idx.layout) {
		t.Fatalf("the degraded index holds %d of its %d groups", held, totalGroups(idx.layout))
	}
	verifyEngine(t, e, db, db.makeQueries(200, 48), false)

	// The devices recover; a fold of eight new keys on stored sets lays
	// out afresh, as the degraded layout has no devices, and attaches the
	// whole index.
	for _, d := range devs {
		d.SetFaultPlan(nil)
	}
	folds = e.Stats().AutoConsolidations
	for i := range 8 {
		k := Key(1<<25 + i)
		db.keys[i] = append(db.keys[i], k)
		e.AddSignature(db.sigs[i], k)
	}
	foldedAfter(t, e, folds)
	if n := e.Stats().IncrementalFolds; n != 0 {
		t.Fatalf("%d incremental folds: a key-only fold kept a degraded layout", n)
	}
	assertNoHostGroups(t, e, "after a fold that re-attached the devices")
	verifyEngine(t, e, db, db.makeQueries(200, 50), false)
	assertDrained(t, e, deviceMem(e))
}

// TestHostPathsBuildWhatTheyTouch drives every host-side match of a
// device-backed index — the overflow fallback, a dead device's fault
// fallback, a CPU hedge — with no group on the host beforehand. Answers
// equal brute force, the host builds exactly the partitions the host path
// matched, each once (its byte count grows by exactly their groups), and
// the drained engine holds nothing it borrowed.
func TestHostPathsBuildWhatTheyTouch(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		// perturb runs after the consolidate; hosted reports whether a
		// partition that took a batch matched on the host.
		perturb func(e *Engine)
		hosted  func(e *Engine, pid uint32) bool
	}{
		{
			name: "overflow",
			cfg:  Config{GPUs: 1, maxPairsPerBatch: 4},
			hosted: func(e *Engine, pid uint32) bool {
				return e.obs.Parts.Get(pid).Overflows.Load() > 0
			},
		},
		{
			name:    "device death",
			cfg:     Config{GPUs: 2},
			perturb: func(e *Engine) { e.devices[0].Kill() },
			hosted:  func(e *Engine, pid uint32) bool { return e.idx.Load().parts[pid].dev == 0 },
		},
		{
			name: "hedge",
			cfg:  Config{GPUs: 2, HedgeAfter: 500 * time.Microsecond},
			perturb: func(e *Engine) {
				e.devices[0].SetFaultPlan(&gpu.FaultPlan{Seed: 51, SlowProb: 1, SlowDelay: 3 * time.Millisecond})
			},
			// Which batches hedge is timing: a busy clean device can
			// outlast the budget too, and a hedge can lose its race.
			hosted: nil,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := makeTestDB(2000, 5, 2, 52)
			cfg := c.cfg
			cfg.MaxPartitionSize, cfg.BatchSize, cfg.Threads, cfg.GPUWorkers, cfg.StreamsPerGPU = 300, 32, 2, 2, 2
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			db.load(e)
			if err := e.Consolidate(); err != nil {
				t.Fatal(err)
			}
			assertNoHostGroups(t, e, "after Consolidate")
			mem := deviceMem(e)
			if c.perturb != nil {
				c.perturb(e)
			}
			verifyEngine(t, e, db, db.makeQueries(600, 53), false)
			assertDrained(t, e, mem)

			idx := e.idx.Load()
			held, n := heldGroups(idx.layout)
			if n == 0 {
				t.Fatal("no host-side match ran: the case is vacuous")
			}
			if got, want := idx.hostBytes.Load(), hostBytesFor(idx); got != want {
				t.Fatalf("hostBytes %d after the host path, the index holds %d: a partition was counted twice or not at all", got, want)
			}
			var want []uint32
			for pid := range idx.parts {
				routed := e.obs.Parts.Get(uint32(pid)).QueriesRouted.Load() > 0
				if c.hosted == nil {
					if slices.Contains(held, uint32(pid)) && !routed {
						t.Fatalf("partition %d took no batch and was built on the host", pid)
					}
					continue
				}
				if routed && c.hosted(e, uint32(pid)) {
					want = append(want, uint32(pid))
				}
			}
			if c.hosted != nil && !slices.Equal(held, want) {
				t.Fatalf("the host built partitions %v, the host path matched %v", held, want)
			}
			t.Logf("%d of %d partitions built on the host (%d groups)", len(held), len(idx.parts), n)
		})
	}
}

// TestHostPathSameCounters: the same queries, one Match at a time so each
// makes the same batches, report the same kernel work on the host path of
// a device-backed index (its device dead, the groups built from rows) as
// on the device.
func TestHostPathSameCounters(t *testing.T) {
	db := makeTestDB(2000, 5, 2, 54)
	queries := db.makeQueries(150, 55)
	var work [2][5]int64
	for i, kill := range []bool{false, true} {
		e, err := New(Config{MaxPartitionSize: 300, BatchSize: 32, Threads: 2, GPUs: 1, GPUWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		db.load(e)
		if err := e.Consolidate(); err != nil {
			t.Fatal(err)
		}
		if kill {
			e.devices[0].Kill()
		}
		for _, q := range queries {
			got, err := e.Match(t.Context(), Request{Sig: q})
			if err != nil {
				t.Fatal(err)
			}
			if want := db.expected(q, false); len(got) != len(want) {
				t.Fatalf("kill %v: %d keys, want %d", kill, len(got), len(want))
			}
		}
		e.Drain()
		kc := &e.obs.Kernel
		work[i] = [5]int64{kc.GateChecks.Load(), kc.GateTests.Load(), kc.GatePruned.Load(), kc.GroupScans.Load(), kc.ColumnsWalked.Load()}
		if _, held := heldGroups(e.idx.Load().layout); kill != (held > 0) {
			t.Fatalf("kill %v: the host holds %d groups", kill, held)
		}
		e.Close()
	}
	t.Logf("gate checks, gate tests, pruned, group scans, column words: device %v, host %v", work[0], work[1])
	if work[0][0] == 0 || work[0] != work[1] {
		t.Fatalf("the host path counts other work than the device: device %v, host %v", work[0], work[1])
	}
}
