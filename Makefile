# TagMatch reproduction build targets.

GO ?= go

.PHONY: check build vet test race chaos bench-canonical-smoke bench-smoke fuzz-smoke bench-obs obs-smoke loc clean

## check: full CI gate — vet, build, tests, race detector on the
## concurrency-heavy packages, the chaos (fault-injection) suite, a
## short allocation-tracking benchmark pass over the hot path and one
## snapshot load, ten seconds each of the snapshot-loader and bit-sliced
## kernel fuzz targets, the observability export smoke test, and the
## canonical benchmark's harness smoke and one driver-form run of it per
## trace mode.
check: vet build test race chaos bench-smoke fuzz-smoke obs-smoke bench-canonical-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

## race: the engine pipeline, the lock-free observability layer, the
## device simulator (whose SM workers claim a launch's blocks from a
## shared counter) and the public package (whose tests' done callbacks
## run on the reduce workers) are the packages with real concurrency;
## -race on the full tree is slow.
race:
	$(GO) test -race . ./internal/core/ ./internal/obs/ ./internal/gpu/

## chaos: the fault-injection suite under the race detector — seeded
## deterministic GPU faults, scripted device death, quarantine/recovery,
## OOM degrade, overload shedding, straggler injection (a straggling
## device's batches stay on it and launch once: TestStraggler*),
## deadline propagation, snapshot-restore parity, a retry that starts
## from no outcome (TestChaosRetryStartsClean), and every one of them
## crossed with multi-partition batches (TestChaosPacked*, ending in the
## drain-time checks that every pooled query and batch, stream and
## device byte is back) must all hold with -race on,
## as must the exact operation count of a dispatched batch, the
## routed-entry log's kick path, counting sort and cut (TestLog*), and the
## run nodes — derivation, the walk at every block geometry, folds and
## the host fallback (TestRun*) — the one device placement, each GPU
## holding exactly its own partitions (TestEngineMultiGPU), Drain
## waiting out every done callback (TestDrainWaitsForCallbacks),
## submitters racing Close never sending on the closed input channel nor
## losing an admitted query (TestSubmitRacesClose, under TestSubmit), and
## the simulator's block dispatch: concurrent grids run every block
## exactly once, spread over every SM, at one allocation per launch
## (TestLaunch*), a snapshot loaded onto staged ops or saved during a
## synchronous Consolidate being db ⊕ staged at one cut
## (TestSnapshotLoadOntoStaged, TestSnapshotSaveRacesConsolidate), and
## the live index and its signature→row table against a brute-force
## model through full builds, folds that empty rows, re-adds that refill
## them and loads onto staged ops (TestRowTable*), and the one layout
## rule: a key-only fold shares its predecessor's layout and copies no
## byte to a device (TestDeltaFoldKeepsLayout), and a fold of a signature
## the index never held is a full build (TestDeltaNewSignatureFoldRebuilds,
## both under TestDelta), and the one copy of the
## transposed index: no group on the host while devices hold them, and
## every host-side match — overflow, device death, OOM degrade —
## exact, building each partition it touches once (TestHostPath*,
## TestNoHostGroups*), and the full build, its splits forked and its
## partitions laid out by concurrent workers, identical to the digit to
## the serial build it replaced (TestBalancedPartition*).
chaos:
	$(GO) test -race -run 'TestLaunch|TestCluster|TestBalancedPartition|TestRun|TestFlushPass|TestLog|TestSweepExpired|TestSegmented|TestFaultPlan|TestStreamSegmentError|TestKill|TestChaos|TestQuarantine|TestConsolidateOOM|TestSubmit|TestMaxInFlight|TestMatchOverloaded|TestServeGraceful|TestConsolidateDegraded|TestStraggler|TestDeadline|TestMatchCtx|TestSnapshotRestore|TestSnapshotLoadOntoStaged|TestSnapshotSaveRacesConsolidate|TestRowTable|TestMatchTimeout|TestPipelined|TestDispatchOpsPerBatch|TestDelta|TestDrainWaitsForCallbacks|TestEngineMultiGPU|TestHostPath|TestNoHostGroups' \
		./internal/gpu/ ./internal/core/ ./internal/httpserver/

## bench-smoke: quick -benchmem pass over the hot-path benchmarks so a
## regression in allocs/op shows up in the CI gate without a full
## benchmark run, and one bulk load of a 50,000-set snapshot
## (BenchmarkLoadSnapshot: ns, B, allocs and GC cycles per set-up, the
## last as gc/op).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkHotpathSubmit|BenchmarkBlockingMatch|BenchmarkPartitionLookup' \
		-benchtime=100x -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkLoadSnapshot' -benchtime=1x -benchmem ./internal/core/

## fuzz-smoke: ten seconds of each of two fuzz targets — the snapshot
## loader (FuzzLoadSnapshot: every malformed stream rejected, on a plain
## and an ExactVerify engine, without allocating for counts the stream
## does not back) and the bit-sliced kernel against brute force
## (FuzzSlicedMatch). A failing input is written under
## internal/core/testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoadSnapshot$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzSlicedMatch$$' -fuzztime 10s ./internal/core/

## bench-obs: measure the observability layer's throughput overhead and
## write BENCH_obs.json (budget <2%; the canonical benchmark does not
## measure it yet).
bench-obs:
	$(GO) run ./cmd/tagmatch-bench obs-overhead

## obs-smoke: boot a server, push traffic, and assert the export
## surfaces are well-formed — /metrics parses as Prometheus exposition
## (with the GPU overlap/utilization/op-latency families), /debug/timeline
## parses as a Chrome trace-event file, /debug/stats carries the latency
## attribution table — and validate the metric registry: each family's
## # HELP/# TYPE once, every histogram's _count equal to its +Inf bucket,
## every declared metric on /metrics and in /debug/stats, and every Stats
## field a declaration backs equal to its /metrics sample after a drain.
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

## loc: non-test Go lines per package and for the whole tree, the figure
## ROADMAP.md's size targets are stated in.
loc:
	@find . -name '*.go' ! -name '*_test.go' -exec wc -l {} + | awk '$$2 != "total" { \
		d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
		printf "%7d  total\n", t }'

clean:
	rm -f BENCH_obs.json
	rm -rf results
