GO ?= go

.PHONY: check fmt vet build test replay race bench bench-json bench-e2e lint lint-selftest examples fuzz-smoke crash-recovery compression ingest smoke loc

# check is the pre-PR gate: formatting, static analysis (go vet, whose
# copylocks is the project's lock-copy rule, plus the project's own
# monsterlint suite and the proof that its exit status has teeth), a
# full build, the whole test suite, and the race detector over every
# package. Each step is here for a failure no other step would show:
# the focused targets below (crash-recovery, compression, ingest)
# select tests that `test` and `race` already run, so they are for
# people iterating on one layer, not for the gate. `replay` re-runs one
# test of `test` three times: a history that follows map order can
# match its digest once by chance, not three times.
check: fmt vet lint lint-selftest build test replay race

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs the project's own analyzer suite (see internal/lint) over
# every package, then staticcheck when the host happens to have it —
# the build stays self-contained either way.
lint:
	$(GO) run ./cmd/monsterlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# lint-selftest proves the gate has teeth: monsterlint must exit 3 on
# fixture directories seeded with violations — one single-function
# case (errdrop) and one that only the interprocedural engine can see
# (a lock-order cycle split across helper functions). A built binary is
# used because go run collapses the child's exit status to 1.
lint-selftest:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/monsterlint ./cmd/monsterlint; \
	for fixture in \
		"errdrop ./internal/lint/testdata/src/errdrop" \
		"lockorder ./internal/lint/testdata/src/lockorder" \
	; do \
		set -- $$fixture; \
		$$tmp/monsterlint -analyzers $$1 $$2; \
		code=$$?; \
		if [ $$code -ne 3 ]; then \
			echo "lint-selftest: expected exit 3 on seeded $$1 fixture, got $$code"; \
			rm -rf $$tmp; exit 1; \
		fi; \
		echo "lint-selftest: seeded $$1 violations detected (exit 3) as expected"; \
	done; \
	rm -rf $$tmp

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# replay runs the facade for 8 nodes × 18 h three times over and
# requires each run's stored series and paper-probe responses to hash
# to the checked-in digest: one seed names one history.
replay:
	$(GO) test -run '^TestSeedReplaysBitForBit$$' -count=3 .

race:
	$(GO) test -race ./...

# examples runs each example program in a temporary directory and
# requires exit 0 and the artifacts it says it wrote — `build` only
# proves they compile.
examples:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/ ./examples/... || exit 1; \
	for run in \
		"quickstart" \
		"clusterwatch" \
		"jobenergy" \
		"timeline timeline.svg" \
		"radar radar_normal.svg radar_critical.svg trend.svg usage_matrix.svg dashboard.html" \
	; do \
		set -- $$run; name=$$1; shift; \
		mkdir $$tmp/$$name.d; \
		( cd $$tmp/$$name.d && ../$$name > out.log 2>&1 ) || \
			{ echo "examples: $$name failed:"; cat $$tmp/$$name.d/out.log; exit 1; }; \
		for f in "$$@"; do \
			[ -s $$tmp/$$name.d/$$f ] || { echo "examples: $$name did not write $$f"; exit 1; }; \
		done; \
		echo "examples: $$name ok ($$# artifacts)"; \
	done

# crash-recovery re-runs the durability suite on its own: the WAL
# kill-point matrix (log truncated at every byte offset), torn-frame
# repair, the checkpoint crash windows, the snapshot corruption matrix
# (every bit flip and truncation refused), the pinned on-disk bytes,
# the version 4 snapshot upgrade, the faults and power cuts the
# fault-injecting file system raises (TestCrash*, the failed appends,
# the fake's own crash model and the pin that every file call goes
# through it), and concurrent writes-vs-checkpoints under the race
# detector.
crash-recovery:
	$(GO) test -run 'TestWAL|TestSnapshotCorruptionMatrix|TestGoldenBytes|TestSnapshotV4|TestCrash|TestColdFailedAppend|TestFaultFSCrash|TestFileAccessOnlyThroughFS' -count=1 ./internal/tsdb
	$(GO) test -race -run 'TestWALConcurrentWritesAndCheckpoints' -count=1 ./internal/tsdb

# fuzz-smoke gives each fuzz target a short budget — enough to catch
# shallow panics on every push without stalling the pipeline.
FUZZTIME ?= 15s
fuzz-smoke:
	$(GO) test -fuzz '^FuzzParseQuery$$' -run '^FuzzParseQuery$$' -fuzztime $(FUZZTIME) ./internal/tsdb
	$(GO) test -fuzz '^FuzzMergeSeries$$' -run '^FuzzMergeSeries$$' -fuzztime $(FUZZTIME) ./internal/builder
	$(GO) test -fuzz '^FuzzEncodeResponse$$' -run '^FuzzEncodeResponse$$' -fuzztime $(FUZZTIME) ./internal/builder
	$(GO) test -fuzz '^FuzzWALReplay$$' -run '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/tsdb
	$(GO) test -fuzz '^FuzzBlockDecode$$' -run '^FuzzBlockDecode$$' -fuzztime $(FUZZTIME) ./internal/tsdb
	$(GO) test -fuzz '^FuzzLineProtocol$$' -run '^FuzzLineProtocol$$' -fuzztime $(FUZZTIME) ./internal/tsdb
	$(GO) test -fuzz '^FuzzRollupPlanner$$' -run '^FuzzRollupPlanner$$' -fuzztime $(FUZZTIME) ./internal/tsdb
	$(GO) test -fuzz '^FuzzColdBlockRead$$' -run '^FuzzColdBlockRead$$' -fuzztime $(FUZZTIME) ./internal/tsdb
	$(GO) test -fuzz '^FuzzSnapshotRestore$$' -run '^FuzzSnapshotRestore$$' -fuzztime $(FUZZTIME) ./internal/tsdb
	$(GO) test -fuzz '^FuzzParsePrometheus$$' -run '^FuzzParsePrometheus$$' -fuzztime $(FUZZTIME) ./internal/ingest
	$(GO) test -fuzz '^FuzzWALExhaustive$$' -run '^FuzzWALExhaustive$$' -fuzztime $(FUZZTIME) ./internal/lint

# ingest re-runs the pipeline suite on its own under the race
# detector: acknowledge-after-write, concurrent producers across a
# Run stop, the sink-failure error rule, exact drop accounting, and
# the receiver/sink contracts.
ingest:
	$(GO) test -race -count=1 ./internal/ingest

# smoke runs monsterd three times for a few seconds with a WAL and a
# cold directory; each run must exit 0 and log its final checkpoint,
# whichever point of a cycle the -duration deadline lands in. A run
# with a 6 h warmup and -duration 1s must stop with no BMC request
# failed: -duration counts from the end of the warmup, and a cycle the
# deadline cuts off stops instead of failing every node. A fourth
# run has no -duration: once it serves it gets SIGTERM, the signal
# systemd, Docker and kill send, and must stop the same way. While it
# serves, a fifth run with its own WAL is given the fourth's port: its
# listener fails, and it must stop through its final checkpoint and
# exit non-zero.
smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/monsterd ./cmd/monsterd || exit 1; \
	for i in 1 2 3; do \
		$$tmp/monsterd -nodes 16 -listen 127.0.0.1:0 -wal-dir $$tmp/wal -cold-dir $$tmp/cold \
			-duration 3s > $$tmp/run$$i.log 2>&1 || \
			{ echo "smoke: run $$i exited non-zero:"; cat $$tmp/run$$i.log; exit 1; }; \
		grep -q 'checkpointed' $$tmp/run$$i.log || \
			{ echo "smoke: run $$i did not checkpoint:"; cat $$tmp/run$$i.log; exit 1; }; \
		echo "smoke: run $$i ok"; \
	done; \
	$$tmp/monsterd -nodes 16 -listen 127.0.0.1:0 -warmup 6h -duration 1s > $$tmp/warm.log 2>&1 || \
		{ echo "smoke: 6 h warmup run exited non-zero:"; cat $$tmp/warm.log; exit 1; }; \
	grep -q 'monsterd: stopped .*(0 failed)' $$tmp/warm.log || \
		{ echo "smoke: 6 h warmup run failed BMC requests:"; cat $$tmp/warm.log; exit 1; }; \
	echo "smoke: 6 h warmup run ok"; \
	$$tmp/monsterd -nodes 16 -listen 127.0.0.1:0 -wal-dir $$tmp/wal -cold-dir $$tmp/cold \
		> $$tmp/run4.log 2>&1 & pid=$$!; \
	for n in $$(seq 300); do \
		grep -q 'monsterd: .* on 127\.0\.0\.1' $$tmp/run4.log && break; sleep 0.1; \
	done; \
	grep -q 'monsterd: .* on 127\.0\.0\.1' $$tmp/run4.log || \
		{ kill -9 $$pid; echo "smoke: run 4 never served:"; cat $$tmp/run4.log; exit 1; }; \
	port=$$(sed -n 's/.*monsterd: .* on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' $$tmp/run4.log | head -1); \
	$$tmp/monsterd -nodes 16 -listen 127.0.0.1:$$port -wal-dir $$tmp/wal5 -cold-dir $$tmp/cold5 \
		-duration 30s > $$tmp/run5.log 2>&1 && \
		{ kill -9 $$pid; echo "smoke: run 5 exited 0 on a taken port:"; cat $$tmp/run5.log; exit 1; }; \
	grep -q 'checkpointed' $$tmp/run5.log || \
		{ kill -9 $$pid; echo "smoke: run 5 did not checkpoint after its listener failed:"; cat $$tmp/run5.log; exit 1; }; \
	echo "smoke: run 5 (listen port taken) ok"; \
	kill -TERM $$pid; \
	wait $$pid || { echo "smoke: run 4 exited non-zero on SIGTERM:"; cat $$tmp/run4.log; exit 1; }; \
	grep -q 'checkpointed' $$tmp/run4.log || \
		{ echo "smoke: run 4 did not checkpoint on SIGTERM:"; cat $$tmp/run4.log; exit 1; }; \
	echo "smoke: run 4 (SIGTERM) ok"

# compression re-runs the sealed-block suite on its own under the race
# detector: encode/decode round trips, seal thresholds and tail sizes,
# the prefix/suffix time form against explicit times and the reference
# model (edge times, the append path, seals across the prefix/suffix
# seam, range clears, snapshot and WAL round trips: TestTimeVec*) and
# its decode-cache charge, the float32 value form (which floats it
# keeps, every aggregate bit for bit with the cache on and off, and the
# fuzz seeds' cached-against-plain decode), header pruning, iterator order,
# out-of-order unseal and the range clears that unseal too, the write
# path against the reference model (unsorted tags, growing field sets,
# writes behind sealed blocks, a clear that empties a field), every
# derivation leaving its base view intact, the snapshot round trip
# (sealed blocks verbatim, raw tails through the block codec), the
# pinned block and snapshot bytes, the version 4 snapshot upgrade,
# GROUP BY tag groups that mix covered and wider series, and the
# aggregation kernel against the reference model: every aggregate over
# every column representation, and one answer, bit for bit, per value
# sequence whether its column is float, mixed or float32-cached; and
# series identity: names holding ',', '=' or a blank keep their series
# apart live, after WAL replay and after a checkpoint restore, while
# plain names keep the key they always had.
compression:
	$(GO) test -race -count=1 -run 'TestBlock|FuzzBlockDecode|TestGroupByTagCoveredSeriesJoinsGroup|TestSeal|TestTimeVec|TestColumnIterator|TestOutOfOrderAcrossSealBoundary|TestClearRange|TestWritePathMatchesReference|TestDerivationsLeaveBaseViewIntact|TestSnapshotRoundTripSealedBlocks|TestSnapshotFailingWriter|TestRangeIndexesSuffixSearch|TestWALKillPointsSealedBlocks|TestWALCheckpointSealedBlocks|TestGoldenBytes|TestSnapshotV4|TestVecRepresentationsMatchReference|TestEngineMatchesReference|TestAggregateBitsIndependentOfRepresentation|TestSeriesIdentity|TestSeriesKeyPlainNamesUnchanged' ./internal/tsdb

# bench runs the Metrics Builder ladder benchmark (Figs 10-19):
# naive-sequential vs batched-concurrent on the 8-worker pool; then the
# fused encode + deflate of a dashboard response on one core and on
# two, where the deflate pieces run in parallel.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkBuilder' -benchtime 100x .
	$(GO) test -run '^$$' -bench 'BenchmarkWriteBody' -cpu 1,2 ./internal/builder

# bench-json prints the storage benchmarks (their timings are for
# reading, not for recording) and regenerates the three BENCH files,
# which hold only sizes and counts that repeat exactly:
# BENCH_compression.json (bytes/point, compression ratio),
# BENCH_rollup.json (month-long-dashboard scan reduction through the
# tier planner, decode-cache budget stress), and BENCH_coldtier.json
# (spilled footprint under budget, cold-scan correctness).
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkBlockEncode|BenchmarkBlockDecode|BenchmarkCompressedScan' -benchtime 50x ./internal/tsdb
	$(GO) test -run '^$$' -bench 'BenchmarkTieredDashboard|BenchmarkRawDashboard' -benchtime 5x ./internal/tsdb
	BENCH_JSON=$(CURDIR)/BENCH_compression.json $(GO) test -run '^TestBenchJSON$$' -count=1 -v ./internal/tsdb
	BENCH_JSON=$(CURDIR)/BENCH_rollup.json $(GO) test -run '^TestBenchRollupJSON$$' -count=1 -v ./internal/tsdb
	BENCH_JSON=$(CURDIR)/BENCH_coldtier.json $(GO) test -run '^TestBenchColdTierJSON$$' -count=1 -v ./internal/tsdb

# bench-e2e runs the end-to-end + per-layer benchmark (cmd/loadgen, see
# internal/bench/README.md): all four workloads, five runs each, then a
# comparison against the checked-in baseline. Report-only — the
# baseline was measured on another host, so a REGRESSION verdict here
# is a prompt to run interleaved pairs, not a gate.
BENCH_E2E_OUT ?= .loadgen/bench-e2e.json
bench-e2e:
	@mkdir -p $(dir $(BENCH_E2E_OUT))
	$(GO) run ./cmd/loadgen -workload all -repeat 5 -out $(BENCH_E2E_OUT)
	-$(GO) run ./cmd/loadgen -compare internal/bench/baseline.json $(BENCH_E2E_OUT)

# loc prints non-test Go source lines per package (wc -l, testdata
# excluded) and the two totals CHANGES.md quotes: the whole repo, and
# the repo outside the benchmark (cmd/loadgen, internal/bench).
loc:
	@for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		n=$$(ls $$d/*.go | grep -v '_test\.go$$' | xargs cat | wc -l); \
		p=$${d#$(CURDIR)}; p=$${p#/}; echo "$$n $${p:-.}"; \
	done | awk '{ printf "%7d  %s\n", $$1, $$2; all += $$1; \
		if ($$2 !~ /(cmd\/loadgen|internal\/bench)$$/) prog += $$1 } \
		END { printf "%7d  total\n%7d  total outside cmd/loadgen + internal/bench\n", all, prog }'
