# TagMatch reproduction build targets.

GO ?= go

.PHONY: check build vet test race chaos bench-canonical-smoke bench-smoke bench-obs bench-hotpath bench-chaos bench-preprocess bench-preprocess-smoke bench-kernel bench-kernel-smoke bench-tail bench-tail-smoke bench-churn bench-churn-smoke obs-smoke obsdiff-gate clean

## check: full CI gate — vet, build, tests, race detector on the
## concurrency-heavy packages, the chaos (fault-injection) suite, a
## short allocation-tracking benchmark pass over the hot path,
## reduced-scale smoke runs of the routing, match-kernel, tail-latency
## and live-update experiments, the observability export smoke
## test, the canonical benchmark's harness smoke and one driver-form run
## of it, and the perf budgets on checked-in baselines.
check: vet build test race chaos bench-smoke bench-preprocess-smoke bench-kernel-smoke bench-tail-smoke bench-churn-smoke obs-smoke bench-canonical-smoke obsdiff-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

## race: the engine pipeline and the lock-free observability layer are
## the packages with real concurrency; -race on the full tree is slow.
race:
	$(GO) test -race ./internal/core/ ./internal/obs/

## chaos: the fault-injection suite under the race detector — seeded
## deterministic GPU faults, scripted device death, quarantine/recovery,
## OOM degrade, overload shedding, straggler injection, deadline
## propagation, hedged re-dispatch, snapshot-restore parity, and every
## one of them crossed with multi-partition batches (TestChaosPacked*,
## ending in the drain-time resource checks) must all hold with -race on,
## as must the exact operation count of a dispatched batch, the
## routed-entry log's kick path, counting sort and cut (TestLog*), and the
## run nodes — derivation, the walk at every block geometry, folds,
## placements and the host fallback (TestRun*).
chaos:
	$(GO) test -race -run 'TestCluster|TestBalancedPartition|TestRun|TestFlushPass|TestLog|TestSweepExpired|TestSegmented|TestFaultPlan|TestStreamSegmentError|TestKill|TestChaos|TestQuarantine|TestConsolidateOOM|TestSubmit|TestMaxInFlight|TestMatchOverloaded|TestServeGraceful|TestConsolidateDegraded|TestStraggler|TestDeadline|TestHedge|TestMatchCtx|TestSnapshotRestore|TestMatchTimeout|TestPipelined|TestDispatchOpsPerBatch|TestDelta' \
		./internal/gpu/ ./internal/core/ ./internal/httpserver/

## bench-smoke: quick -benchmem pass over the hot-path benchmarks so a
## regression in allocs/op shows up in the CI gate without a full
## benchmark run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkHotpathSubmit|BenchmarkBlockingMatch|BenchmarkPartitionLookup' \
		-benchtime=100x -benchmem ./internal/core/

## bench-obs: measure the observability layer's throughput overhead and
## write BENCH_obs.json (budget <2%, gated by obsdiff-gate).
bench-obs:
	$(GO) run ./cmd/tagmatch-bench obs-overhead

## bench-hotpath: measure the buffer-pooling before/after (throughput,
## p50/p99 latency, allocs per query) and write BENCH_hotpath.json.
bench-hotpath:
	$(GO) run ./cmd/tagmatch-bench hotpath

## bench-chaos: measure throughput under seeded GPU faults plus a
## mid-run device death vs. a healthy engine, assert identical match
## output, and write BENCH_chaos.json.
bench-chaos:
	$(GO) run ./cmd/tagmatch-bench chaos

## bench-preprocess: measure the bit-sliced vs. scalar routing lookup
## (ns/query) and the end-to-end throughput of both flavors, and write
## BENCH_preprocess.json. Use `-format benchstat` by hand to diff runs.
bench-preprocess:
	$(GO) run ./cmd/tagmatch-bench preprocess

## bench-preprocess-smoke: the same experiment at reduced scale as a CI
## gate; -no-bench-files keeps the small-scale numbers from overwriting
## the committed BENCH_preprocess.json.
bench-preprocess-smoke:
	$(GO) run ./cmd/tagmatch-bench -scale 0.0005 -queries 4000 -no-bench-files preprocess

## bench-kernel: measure the bit-sliced vs. scalar subset-match kernel
## (ns/query) and the end-to-end throughput of both flavors, re-check
## exactness under the chaos fault plan on the sliced path, and write
## BENCH_kernel.json. Use `-format benchstat` by hand to diff runs.
bench-kernel:
	$(GO) run ./cmd/tagmatch-bench kernel

## bench-kernel-smoke: the same experiment at reduced scale as a CI
## gate; -no-bench-files keeps the small-scale numbers from overwriting
## the committed BENCH_kernel.json.
bench-kernel-smoke:
	$(GO) run ./cmd/tagmatch-bench -scale 0.0005 -queries 4000 -no-bench-files kernel

## bench-tail: measure query-latency percentiles with and without hedged
## re-dispatch while one degraded device straggles on 2% of its
## operations, and write BENCH_tail.json (hedged p99 must be >= 2x
## better, gated by obsdiff-gate).
bench-tail:
	$(GO) run ./cmd/tagmatch-bench tail

## bench-tail-smoke: the same experiment at reduced scale as a CI gate;
## -no-bench-files keeps the small-scale numbers from overwriting the
## committed BENCH_tail.json.
bench-tail-smoke:
	$(GO) run ./cmd/tagmatch-bench -scale 0.0005 -queries 4000 -no-bench-files tail

## bench-churn: measure live updates through the delta overlay — query
## throughput under churn with background consolidation vs the no-churn
## baseline and the stop-the-world ablation, update-visibility latency,
## swap-pause percentiles, and overlay/oracle parity — and write
## BENCH_churn.json (qps ratio >= 0.9, pause p99 >= 5x better than
## stop-the-world, gated by obsdiff-gate).
bench-churn:
	$(GO) run ./cmd/tagmatch-bench churn

## bench-churn-smoke: the same experiment at reduced scale as a CI
## gate; -no-bench-files keeps the small-scale numbers from overwriting
## the committed BENCH_churn.json.
bench-churn-smoke:
	$(GO) run ./cmd/tagmatch-bench -scale 0.0005 -queries 4000 -no-bench-files churn

## obs-smoke: boot a server, push traffic, and assert the export
## surfaces are well-formed — /metrics parses as Prometheus exposition
## (with the GPU overlap/utilization/op-latency families), /debug/timeline
## parses as a Chrome trace-event file, /debug/stats carries the latency
## attribution table.
obs-smoke:
	$(GO) test -race -count=1 -run TestObsSmoke ./internal/httpserver/

## bench-canonical-smoke: the canonical benchmark (BENCHMARK.json) at
## smoke scale — checks the harness and every declared metric, measures
## nothing — then the exact command form the benchmark driver uses, once
## without and once with the traced phase (~30 s each at full scale).
bench-canonical-smoke:
	$(GO) run ./bench -smoke
	bash bench/run.sh --workload paced_latency --seed 1 --seconds 10 --trace 0
	bash bench/run.sh --workload paced_latency --seed 1 --seconds 10 --trace 1

## obsdiff-gate: the perf-regression gate — budget assertions against
## the checked-in BENCH_*.json baselines via cmd/tagmatch-obsdiff
## (which exits non-zero on a violated budget). Regenerate baselines
## with the bench-* targets when an intentional perf change lands.
obsdiff-gate:
	$(GO) run ./cmd/tagmatch-obsdiff \
		-assert 'overhead_pct<=2' BENCH_obs.json
	$(GO) run ./cmd/tagmatch-obsdiff \
		-assert 'results_match>=1' -assert 'cpu_fallbacks>=1' BENCH_chaos.json
	$(GO) run ./cmd/tagmatch-obsdiff \
		-assert 'routing_speedup>=2' BENCH_preprocess.json
	$(GO) run ./cmd/tagmatch-obsdiff \
		-assert 'kernel_speedup>=2' -assert 'results_match>=1' \
		-assert 'chaos_results_match>=1' BENCH_kernel.json
	$(GO) run ./cmd/tagmatch-obsdiff \
		-assert 'hedged_p99_improvement>=2' -assert 'hedge_exactness>=1' \
		-assert 'results_match>=1' BENCH_tail.json
	$(GO) run ./cmd/tagmatch-obsdiff \
		-assert 'churn_results_match>=1' -assert 'qps_ratio>=0.9' \
		-assert 'pause_improvement>=5' -assert 'swap_pause_p99_ms<=250' \
		-assert 'visibility_p99_ms<=250' BENCH_churn.json

clean:
	rm -f BENCH_obs.json BENCH_hotpath.json BENCH_chaos.json BENCH_preprocess.json BENCH_kernel.json BENCH_tail.json BENCH_churn.json
	rm -rf results
