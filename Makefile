# CI entry points for the conf_icpp_SaezCP20 reproduction.
#
#   make ci      - everything a PR must pass: vet (plus gofmt), build, race tests,
#                  multi-loop conformance/race under -race -count=2,
#                  replay determinism, the allocation/layout gates,
#                  short-mode benchmarks
#   make test    - plain test run (tier-1: go build ./... && go test ./...)
#   make race    - race-detector run over the lock-free scheduler/pool layers,
#                  the real-goroutine runtime, the fairness policies, the
#                  simulator, the flight recorder, record & replay and the
#                  aidserve service tier
#   make race-multiloop - the multi-tenant conformance + registry race suite
#                  under -race -count=2, so flaky interleavings surface in
#                  CI, not in production
#   make replay-determinism - record a simulated run, exact-replay it twice,
#                  assert the two replays serialize byte-identically (the
#                  record & replay subsystem's end-to-end determinism gate)
#   make alloc-check - the zero-allocation and cache-line-layout gates: the
#                  AllocsPerRun assertions and unsafe.Offsetof layout tests
#                  over the pool/core/rt hot paths (run without -race; the
#                  race run covers the same tests with the gates skipped)
#   make zoo-check - the platform-zoo gates: JSON codec round-trip and
#                  Validate rejections in internal/amp, the exactly-once
#                  conformance harness over every named platform, and the
#                  sim-vs-rt cross-engine equivalence on the new presets
#   make obs-check - the flight-recorder gates: the internal/obs suite
#                  (counter cells, Prometheus rendering, analyzer, the
#                  byte-deterministic chrome export), the engine wiring
#                  tests in rt and sim, the histogram-vs-exact-percentile
#                  cross-check, aidserve's metrics endpoint and per-class
#                  shed attribution, and aidstat's committed golden fixture
#   make bench   - the full benchmark harness (figures + micro-benchmarks)
#   make bench-short - benchmarks compiled and run once per case (smoke);
#                  regenerates BENCH_multiloop.json from the registry
#                  throughput rows, BENCH_hotpath.json (with -benchmem
#                  allocation columns) from the claim hot-path rows,
#                  BENCH_zoo.json (per-platform makespan + energy rows), and
#                  BENCH_obs.json (the metrics=on/off hot-path overhead rows)
#                  via cmd/benchjson. Artifacts are written temp-then-rename, so
#                  a failed run never leaves a stale capture or a truncated
#                  JSON behind; a pre-existing BENCH_hotpath.json doubles as
#                  the allocs/op baseline the fresh run must not regress.
#   make serve-smoke - the open-loop service tier end to end: short aidserve
#                  runs under Poisson arrivals in both engines (the real run
#                  also exercises sampled capture + record self-diff), their
#                  Benchmark rows folded into BENCH_serve.json via
#                  cmd/benchjson, temp-then-rename like the other captures
#   make bench-check - validate that the committed benchmark JSONs parse and
#                  that BENCH_hotpath.json still carries allocation columns
#                  (CI gate)

GO ?= go
REPLAYTMP := .replaytmp
BENCHTMP := .benchtmp
SERVETMP := .servetmp

.PHONY: ci vet build test race race-multiloop replay-determinism alloc-check zoo-check obs-check bench bench-short serve-smoke bench-check

ci: vet build race race-multiloop replay-determinism alloc-check zoo-check obs-check bench-short serve-smoke bench-check

vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/pool/... ./internal/rt/... ./internal/fair/... \
		./internal/sim/... ./internal/obs/... ./internal/replay/... ./cmd/aidserve/...
	$(GO) test ./...

race-multiloop:
	$(GO) test -race -count=2 -run 'MultiTenant|Registry|MultiLoop' ./internal/core/ ./internal/rt/ ./internal/sim/
	$(GO) test -race -count=2 ./internal/fair/

replay-determinism:
	rm -rf $(REPLAYTMP) && mkdir -p $(REPLAYTMP)
	$(GO) run ./cmd/aidtrace -app EP -sched aid-dynamic,1,5 -record $(REPLAYTMP)/rec.jsonl
	$(GO) run ./cmd/aidtrace -replay $(REPLAYTMP)/rec.jsonl -o $(REPLAYTMP)/replay1.jsonl > /dev/null
	$(GO) run ./cmd/aidtrace -replay $(REPLAYTMP)/rec.jsonl -o $(REPLAYTMP)/replay2.jsonl > /dev/null
	cmp $(REPLAYTMP)/replay1.jsonl $(REPLAYTMP)/replay2.jsonl
	$(GO) run ./cmd/aidtrace -diff $(REPLAYTMP)/replay1.jsonl,$(REPLAYTMP)/replay2.jsonl > /dev/null
	rm -rf $(REPLAYTMP)

# The allocation gates must run without the race detector (its
# instrumentation allocates; the tests skip themselves under -race), and
# with -count=1 so a cached pass cannot mask a fresh regression.
alloc-check:
	$(GO) test -count=1 -run 'Allocs|Layout' ./internal/pool/ ./internal/core/ ./internal/rt/ ./internal/obs/

# The zoo gates run with -count=1 so a cached pass cannot mask a fresh
# regression in a preset or the codec.
zoo-check:
	$(GO) test -count=1 -run 'PlatformJSON|LoadFile|ValidateRejections|ZooPresets|ZooTopologies|ClusterDist' ./internal/amp/
	$(GO) test -count=1 -run 'ZooConformance' ./internal/core/
	$(GO) test -count=1 -run 'CrossEngineZoo' ./internal/rt/

# The flight-recorder gates run with -count=1 (the golden-fixture and
# determinism assertions must re-run, not replay from the test cache).
obs-check:
	$(GO) test -count=1 ./internal/obs/
	$(GO) test -count=1 -run 'Metrics' ./internal/rt/ ./internal/sim/
	$(GO) test -count=1 -run 'Histogram' ./internal/stats/
	$(GO) test -count=1 -run 'MetricsEndpoint|ShedAttribution' ./cmd/aidserve/
	$(GO) test -count=1 ./cmd/aidstat/

bench:
	$(GO) test -bench=. -benchmem ./...

# Benchmark rows are captured to temp files and converted to JSON in
# separate steps (no pipeline, so a failing `go test` exit code is not
# masked), and every file is written to a .part path first and renamed only
# on success: an aborted run leaves no stale $(BENCHTMP) capture to feed a
# later conversion and no truncated committed artifact. The hot-path JSON is
# additionally diffed against the committed BENCH_hotpath.json (when one
# exists) before replacing it — allocs/op may only go down.
bench-short:
	rm -f $(BENCHTMP) $(BENCHTMP).part
	$(GO) test -short -run=XXX -bench=BenchmarkChunkRemoval -benchtime=100000x ./internal/pool/
	$(GO) test -short -run=XXX -bench=BenchmarkWorkShareSteal -benchtime=100000x ./internal/pool/
	$(GO) test -short -run=XXX -bench=BenchmarkMultiLoop -benchtime=2x ./internal/rt/ > $(BENCHTMP).part
	mv $(BENCHTMP).part $(BENCHTMP)
	cat $(BENCHTMP)
	$(GO) run ./cmd/benchjson -o BENCH_multiloop.json.part $(BENCHTMP)
	mv BENCH_multiloop.json.part BENCH_multiloop.json
	rm -f $(BENCHTMP)
	$(GO) test -short -run=XXX -bench=BenchmarkHotPath -benchtime=100000x -benchmem ./internal/pool/ ./internal/rt/ > $(BENCHTMP).part
	mv $(BENCHTMP).part $(BENCHTMP)
	cat $(BENCHTMP)
	$(GO) run ./cmd/benchjson -o BENCH_hotpath.json.part $(BENCHTMP)
	if [ -f BENCH_hotpath.json ]; then \
		$(GO) run ./cmd/benchjson -check BENCH_hotpath.json.part -baseline BENCH_hotpath.json; \
	fi
	mv BENCH_hotpath.json.part BENCH_hotpath.json
	rm -f $(BENCHTMP)
	$(GO) test -short -run=XXX -bench=BenchmarkZoo -benchtime=1x . > $(BENCHTMP).part
	mv $(BENCHTMP).part $(BENCHTMP)
	cat $(BENCHTMP)
	$(GO) run ./cmd/benchjson -o BENCH_zoo.json.part $(BENCHTMP)
	$(GO) run ./cmd/benchjson -check BENCH_zoo.json.part
	mv BENCH_zoo.json.part BENCH_zoo.json
	rm -f $(BENCHTMP)
	$(GO) test -short -run=XXX -bench='BenchmarkReplay(Exact|WhatIf)' -benchtime=5x ./internal/replay/
	$(GO) test -short -run=XXX -bench=BenchmarkMetricsOverhead -benchtime=100000x -benchmem ./internal/rt/ > $(BENCHTMP).part
	mv $(BENCHTMP).part $(BENCHTMP)
	cat $(BENCHTMP)
	$(GO) run ./cmd/benchjson -o BENCH_obs.json.part $(BENCHTMP)
	$(GO) run ./cmd/benchjson -check BENCH_obs.json.part
	mv BENCH_obs.json.part BENCH_obs.json
	rm -f $(BENCHTMP)

# The service smoke runs short enough for CI but long enough to admit a
# few hundred loops; the real run's -record path also proves the sampled
# capture survives its self-diff before the snapshot is accepted.
serve-smoke:
	rm -f $(SERVETMP) $(SERVETMP).part $(SERVETMP).rec BENCH_serve.json.part
	$(GO) run ./cmd/aidserve -arrivals poisson -rate 200 -duration 1s -iters 5000 -spin 50 \
		-classes gold:8,silver:4,bronze:1 -sample 8 -sample-budget 128 \
		-record $(SERVETMP).rec -bench > $(SERVETMP).part
	$(GO) run ./cmd/aidserve -arrivals poisson -rate 200 -duration 1s -iters 5000 -spin 50 \
		-classes gold:8,silver:4,bronze:1 -virtual -bench >> $(SERVETMP).part
	mv $(SERVETMP).part $(SERVETMP)
	cat $(SERVETMP)
	$(GO) run ./cmd/benchjson -o BENCH_serve.json.part $(SERVETMP)
	$(GO) run ./cmd/benchjson -check BENCH_serve.json.part
	mv BENCH_serve.json.part BENCH_serve.json
	rm -f $(SERVETMP) $(SERVETMP).rec

bench-check:
	$(GO) run ./cmd/benchjson -check BENCH_multiloop.json
	$(GO) run ./cmd/benchjson -check BENCH_hotpath.json -baseline BENCH_hotpath.json
	$(GO) run ./cmd/benchjson -check BENCH_serve.json
	$(GO) run ./cmd/benchjson -check BENCH_zoo.json
	$(GO) run ./cmd/benchjson -check BENCH_obs.json
