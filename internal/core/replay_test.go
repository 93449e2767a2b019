package core

import (
	"flag"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
	"tagmatch/internal/obs"
	"tagmatch/internal/workload"
)

var (
	replayQueries = flag.Int("replay", 0, "queries TestReplayKernel routes through a benchmark-scale index (0 skips it)")
	replaySeed    = flag.Int64("replay.seed", 1, "dataset seed of TestReplayKernel")
	replayPasses  = flag.Int("replay.passes", 3, "timed passes of TestReplayKernel; it reports the fastest")
)

// TestReplayKernel is the sizing harness for kernel changes: it builds
// the canonical benchmark's index (150,000 users of internal/workload, the
// partition ratios and query shapes of bench/workloads.go) without an
// engine, routes -replay generated queries through the partition table,
// cuts each partition's entries into segments the size the benchmark's
// flush passes produce, and runs them through cpuMatchBatchSliced — the
// host path, which shares matchSpan with the device kernel. It logs, per
// query, the kernel's deterministic counts and its time on one core, so a
// gate, layout or finishing idea can be measured before it is built:
//
//	go test ./internal/core/ -run TestReplayKernel -v -replay 4000
//
// Segments run in the order flush passes dispatch them: round-robin over
// the partitions, one segment of each per round, so a partition's next
// segment comes after every other partition's. Only the entries of one
// segment share warm caches: the stream_fanout (20 per segment) and
// scan_heavy (256) rows read a partition's groups cold once per segment
// and warm for the rest of its entries, while the paced_latency row (one)
// reads them cold for every entry, as the engine does at 2,000 queries/s.
// No row runs a partition's segments back to back, which would read them
// all warm (EXPERIMENTS.md, "One copy of the transposed index", has
// both timings).
func TestReplayKernel(t *testing.T) {
	if *replayQueries <= 0 {
		t.Skip("sizing harness; run with -replay N")
	}
	const users, storedEvery = 150_000, 8 // bench/main.go fullUsers, bench/dataset.go storedEvery
	gen, err := workload.New(workload.NewConfig(users, *replaySeed))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[bitvec.Vector]bool{}
	var sigs []bitvec.Vector
	var pool [][]string
	n := 0
	for u := 0; u < users; u++ {
		for _, in := range gen.InterestsOf(uint32(u)) {
			if sig := bloom.Signature(in.Tags); !seen[sig] {
				seen[sig] = true
				sigs = append(sigs, sig)
			}
			if n%storedEvery == 0 {
				pool = append(pool, in.Tags)
			}
			n++
		}
	}

	for _, w := range []struct {
		name    string
		extra   int // extra tags per query; < 0 draws 2 to 4
		partDiv int
		cohort  int // entries per segment: what a flush pass finds per partition
	}{
		{"stream_fanout", -1, 1000, 20},
		{"paced_latency", -1, 1000, 1},
		{"scan_heavy", 8, 16, 256},
	} {
		var idx index
		idx.appendPartitions(sigs, balancedPartition(sigs, len(sigs)/w.partDiv), 0, nil)
		pt, maskless := buildPartitionTable(idx.parts)
		rng := rand.New(rand.NewSource(*replaySeed ^ int64(w.extra)<<32 ^ 0x51ed))
		perPart := make([][]bitvec.Vector, len(idx.parts))
		var pids []uint32
		entries := 0
		for i := 0; i < *replayQueries; i++ {
			q := bloom.Signature(gen.Query(rng, pool[rng.Intn(len(pool))], w.extra))
			pids = append(pt.lookupSliced(q, q.Ones(nil), pids[:0]), maskless...)
			for _, pid := range pids {
				perPart[pid] = append(perPart[pid], q)
			}
			entries += len(pids)
		}

		// The counts are the same in every pass, the time is the fastest
		// (the host stalls; see the verify skill).
		var kc obs.KernelCounters
		var sc spanScratch
		var pairs, segments, blocks int
		best := time.Duration(1 << 62)
		for pass := 0; pass < *replayPasses; pass++ {
			kc, pairs, segments, blocks = obs.KernelCounters{}, 0, 0, 0
			rest := slices.Clone(perPart) // each partition's entries not yet matched
			t0 := time.Now()
			for left := true; left; {
				left = false
				for pid, qs := range rest {
					if len(qs) == 0 {
						continue
					}
					left = true
					seg := qs[:min(w.cohort, len(qs))]
					rest[pid] = qs[len(seg):]
					p := &idx.parts[pid]
					groups, runs := idx.slicedPart(uint32(pid))
					segments++
					blocks += segBlocks(int(p.n), blockDim)
					cpuMatchBatchSliced(groups, runs, int(p.off), seg, 0, true, &sc, nil, &kc,
						func(uint8, uint32) { pairs++ })
				}
			}
			best = min(best, time.Since(t0))
		}
		per := func(v int64) float64 { return float64(v) / float64(*replayQueries) }
		t.Logf("%s seed %d: %d sets, %d partitions, %d groups, %d run nodes (%d B); %d queries, %.1f partitions/query, %.1f entries/segment",
			w.name, *replaySeed, len(idx.sets), len(idx.parts), totalGroups(&idx), len(idx.runs), len(idx.runs)*runNodeBytes,
			*replayQueries, per(int64(entries)), float64(entries)/float64(segments))
		t.Logf("%s per query: thread blocks %.1f, gate checks %.0f, gate tests %.0f, group scans %.0f, column words %.0f, pairs %.1f, prune rate %.3f, %.0f ns",
			w.name, per(int64(blocks)), per(kc.GateChecks.Load()), per(kc.GateTests.Load()), per(kc.GroupScans.Load()), per(kc.ColumnsWalked.Load()),
			per(int64(pairs)), float64(kc.GatePruned.Load())/float64(kc.GateChecks.Load()), per(best.Nanoseconds()))
	}
}
