package tagmatch_test

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"tagmatch"
)

func sortKeys(k []tagmatch.Key) {
	sort.Slice(k, func(i, j int) bool { return k[i] < k[j] })
}

func TestPublicAPIQuickstart(t *testing.T) {
	eng, err := tagmatch.New(tagmatch.Config{GPUs: 1, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	eng.AddSet([]string{"en_go", "en_gpu"}, 1001)
	eng.AddSet([]string{"en_go"}, 1002)
	eng.AddSet([]string{"fr_cuisine"}, 1003)
	if eng.PendingOps() != 3 {
		t.Fatalf("PendingOps = %d", eng.PendingOps())
	}
	if err := eng.Consolidate(); err != nil {
		t.Fatal(err)
	}

	keys, err := eng.MatchUnique([]string{"en_go", "en_gpu", "en_eurosys"})
	if err != nil {
		t.Fatal(err)
	}
	sortKeys(keys)
	if fmt.Sprint(keys) != "[1001 1002]" {
		t.Fatalf("keys = %v", keys)
	}

	keys, err = eng.Match([]string{"fr_cuisine", "fr_paris"})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != "[1003]" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestPublicAPICPUOnly(t *testing.T) {
	eng, err := tagmatch.New(tagmatch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.AddSet([]string{"x"}, 1)
	if err := eng.Consolidate(); err != nil {
		t.Fatal(err)
	}
	keys, err := eng.Match([]string{"x", "y"})
	if err != nil || len(keys) != 1 {
		t.Fatalf("keys=%v err=%v", keys, err)
	}
}

func TestPublicAPIStreaming(t *testing.T) {
	eng, err := tagmatch.New(tagmatch.Config{
		GPUs: 2, Threads: 4, BatchSize: 32,
		BatchTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 500; i++ {
		eng.AddSet([]string{fmt.Sprintf("tag%d", i%50), "common"}, tagmatch.Key(i))
	}
	if err := eng.Consolidate(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	total := 0
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		err := eng.SubmitUnique([]string{fmt.Sprintf("tag%d", i%50), "common", "extra"},
			func(r tagmatch.MatchResult) {
				mu.Lock()
				total += len(r.Keys)
				mu.Unlock()
				wg.Done()
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	wg.Wait()
	// Each query matches exactly the 10 sets with its tag index.
	if total != 200*10 {
		t.Fatalf("total keys = %d, want 2000", total)
	}
	st := eng.Stats()
	if st.QueriesCompleted != 200 {
		t.Fatalf("completed = %d", st.QueriesCompleted)
	}
	if len(st.DeviceBytes) != 2 {
		t.Fatalf("DeviceBytes = %v", st.DeviceBytes)
	}
}

func TestPublicAPIRemoveAndReconsolidate(t *testing.T) {
	eng, err := tagmatch.New(tagmatch.Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.AddSet([]string{"a"}, 1)
	eng.AddSet([]string{"a"}, 2)
	if err := eng.Consolidate(); err != nil {
		t.Fatal(err)
	}
	eng.RemoveSet([]string{"a"}, 1)
	if err := eng.Consolidate(); err != nil {
		t.Fatal(err)
	}
	keys, _ := eng.Match([]string{"a", "b"})
	if fmt.Sprint(keys) != "[2]" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestPublicAPIInvalidConfig(t *testing.T) {
	if _, err := tagmatch.New(tagmatch.Config{GPUs: -1}); err == nil {
		t.Fatal("negative GPU count accepted")
	}
}

func TestPublicAPIPartitionedGPUs(t *testing.T) {
	eng, err := tagmatch.New(tagmatch.Config{
		GPUs: 2, Threads: 2, BatchSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 300; i++ {
		eng.AddSet([]string{fmt.Sprintf("t%d", i)}, tagmatch.Key(i))
	}
	if err := eng.Consolidate(); err != nil {
		t.Fatal(err)
	}
	keys, err := eng.Match([]string{"t7", "t8"})
	if err != nil {
		t.Fatal(err)
	}
	sortKeys(keys)
	if fmt.Sprint(keys) != "[7 8]" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestPublicAPISnapshot(t *testing.T) {
	src, err := tagmatch.New(tagmatch.Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.AddSet([]string{"snap"}, 3)
	if err := src.Consolidate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dst, err := tagmatch.New(tagmatch.Config{GPUs: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	keys, err := dst.Match([]string{"snap", "extra"})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != "[3]" {
		t.Fatalf("restored engine answered %v", keys)
	}
}
