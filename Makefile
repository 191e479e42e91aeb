GO ?= go

.PHONY: all build test race fuzz-smoke vet fmt-check fma-check diet bench bench-pairs bench-smoke bench-go bench-cpu bench-sweep smoke serve-smoke dispatch-smoke cache-smoke clean

all: build test vet fmt-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector (CI runs this as its own
# job; it is several times slower than plain `make test`).
race:
	$(GO) test -race ./...

# fuzz-smoke runs each checked-in fuzz target briefly against its seed corpus
# plus a short exploration budget: the three request decoders, the disk
# cache entry decoder (the one durable-state decoder) and the sweep-row
# payload codec inside it, the dataflow unit
# against its O(PRB) oracle, every accountant probe's cycle spans against
# unit cycles and a private reference's windows against standalone
# private runs. A regression found
# here reproduces with `go test -run=Fuzz` once the failing input is added to
# testdata. Minimizing a new input at the default budget (60s) outlasts the
# whole run, which then stops mutating and keeps nothing, so every target's
# minimization is capped at 1 s.
FUZZTIME ?= 10s
FUZZ = $(GO) test -run='^$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -fuzz
fuzz-smoke:
	$(FUZZ)=FuzzEstimateRequestJSON .
	$(FUZZ)=FuzzSweepRequestJSON .
	$(FUZZ)=FuzzCellsRequestJSON .
	$(FUZZ)=FuzzDiskCacheEntry ./internal/runner
	$(FUZZ)=FuzzSweepRowsCodec ./internal/experiments
	$(FUZZ)=FuzzGDPUnitMatchesOracle ./internal/core
	$(FUZZ)=FuzzOnCyclesSpanEquivalence ./internal/accounting
	$(FUZZ)=FuzzAlignedReference ./internal/sim

vet:
	$(GO) vet ./...

# fmt-check fails when any file is not gofmt-clean (CI-friendly: no rewrite).
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# fma-check fails when the arm64 build of a package outside benchmark/ holds
# a fused multiply-add. Go may fuse x*y + z into one instruction on arm64 (not
# on amd64), which rounds once instead of twice and so moves results by an
# ulp between the two; an explicit float64(x*y) conversion rounds the product
# and forbids the fusion. benchmark/stats.go keeps its two until the next
# benchmark change.
FUSED = (FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADDS|FMSUBS|FNMADDS|FNMSUBS)
fma-check:
	@asm=$$(mktemp) && trap 'rm -f "$$asm"' EXIT && \
	GOARCH=arm64 $(GO) build -o /dev/null -gcflags='repro/...=-S' ./... >"$$asm" 2>&1 || { cat "$$asm"; exit 1; }; \
	out=$$(grep -E '[[:space:]]$(FUSED)[[:space:]]' "$$asm" | grep -v '$(CURDIR)/benchmark/'); \
	if [ -n "$$out" ]; then \
		echo "fused multiply-adds outside benchmark/ (wrap the product in float64(...)):"; echo "$$out"; exit 1; \
	fi; \
	echo "fma-check: $$(grep -cE '[[:space:]]$(FUSED)[[:space:]]' "$$asm") fused instructions, all under benchmark/"

# diet prints the seven tracked size numbers (ROADMAP aim 2; down is good), so
# every PR reports them with the same commands. Never fails the build. The
# last two count exported funcs and methods, and exported types (top-level
# `type X` declarations), in non-test files under internal/;
# TestExportedNamesHaveCallers checks that each one has a caller.
NONTEST_GO = find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*'
diet:
	@echo "non-test Go lines outside benchmark/: $$($(NONTEST_GO) | xargs cat | wc -l)"
	@echo "test Go lines outside benchmark/:     $$(find . -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l)"
	@echo "gdpsim flag definitions:              $$(ls cmd/gdpsim/*.go | grep -v _test.go | xargs cat | grep -cE 'fs\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|Var|[A-Za-z0-9]+Var)\(')"
	@echo "root exported symbols:                $$(ls *.go | grep -v _test.go | xargs grep -hE '^(func|type|var|const) [A-Z]' | wc -l)"
	@echo "gdpsim_* metric families:             $$($(NONTEST_GO) | xargs grep -hoE '"gdpsim_[a-z_]+"' | sort -u | wc -l)"
	@echo "internal exported funcs and methods:  $$(find ./internal -name '*.go' ! -name '*_test.go' | xargs grep -hE '^func (\([^)]*\) )?[A-Z]' | wc -l)"
	@echo "internal exported types:              $$(find ./internal -name '*.go' ! -name '*_test.go' | xargs grep -hE '^type [A-Z]' | wc -l)"

# bench runs the ledger (benchmark/, declared in BENCHMARK.json) on its six
# workloads untraced, one result file per workload under $(BENCH_OUT). Compare
# two directories with `go run ./benchmark -compare <before> <after>`; the
# metrics and the baseline table are in benchmark/README.md. About 15 s per
# workload.
BENCH_OUT ?= .bench_out
bench:
	for w in sim_dense sim_sparse serve_unique serve_dup sweep_cold sweep_recall; do \
		$(GO) run ./benchmark -workload $$w -seed 1 -out $(BENCH_OUT) || exit 1; \
	done

# bench-pairs is the ledger's rule for claiming a gain — at least ten
# alternating pairs on seeds not used while the change was written — as one
# command: it builds ./benchmark at PARENT (from `git archive` into a
# throw-away directory, which is also where the parent runs; its result
# files say git_rev "unknown") and at the working tree, runs PAIRS
# pairs of WORKLOAD on fresh seeds, alternating which side goes first, into
# $(BENCH_OUT)/pairs-$(WORKLOAD)/{parent,change}, and ends with -compare.
# TRACE=1 gives the per-layer numbers instead; SEED0 pins the seeds.
PARENT ?= HEAD
WORKLOAD ?= sim_dense
PAIRS ?= 10
PAIR_SECONDS ?= 10
TRACE ?= 0
bench-pairs:
	@set -e; root=$$(pwd); tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	rev=$$(git rev-parse --short=12 --verify "$(PARENT)^{commit}"); echo "parent: $$rev"; \
	mkdir "$$tmp/parent"; git archive "$$rev" | tar -x -C "$$tmp/parent"; \
	(cd "$$tmp/parent" && $(GO) build -o "$$tmp/bench-parent" ./benchmark); \
	$(GO) build -o "$$tmp/bench-change" ./benchmark; \
	out=$(abspath $(BENCH_OUT))/pairs-$(WORKLOAD); rm -rf "$$out"; mkdir -p "$$out/parent" "$$out/change"; \
	seed0=$${SEED0:-$$(date +%s)}; \
	for i in $$(seq 1 $(PAIRS)); do \
		seed=$$((seed0 + i)); order="parent change"; \
		if [ $$((i % 2)) = 0 ]; then order="change parent"; fi; \
		for side in $$order; do \
			dir="$$root"; if [ $$side = parent ]; then dir="$$tmp/parent"; fi; \
			printf 'pair %d/%d seed %d %s: ' $$i $(PAIRS) $$seed $$side; \
			(cd "$$dir" && "$$tmp/bench-$$side" -workload $(WORKLOAD) -seed $$seed -seconds $(PAIR_SECONDS) \
				-trace $(TRACE) -out "$$out/$$side" >"$$tmp/log" 2>&1) || { cat "$$tmp/log"; exit 1; }; \
			sed -n '$$s/.*"ops_per_s":{"value":\([0-9.]*\).*/\1 op\/s/p' "$$tmp/log" | grep . || echo ok; \
		done; \
	done; \
	"$$tmp/bench-change" -compare "$$out/parent" "$$out/change"

# bench-smoke is the CI correctness gate: one short traced ledger run whose
# exit status is the ledger's own verdict — the loopback-worker sweep returns
# the local rows and the processed-cycle share stays in its band. No
# wall-clock threshold, so nothing self-waives on a small machine.
bench-smoke:
	out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT && \
		$(GO) run ./benchmark -workload sim_sparse -seed 1 -seconds 2 -trace 1 -out "$$out"

# smoke runs the three end-to-end scripts in sequence (CI's one smoke job).
smoke: serve-smoke dispatch-smoke cache-smoke

# serve-smoke boots the real binary, curls /healthz and /metrics and checks
# the telemetry exposition end to end (see scripts/serve_smoke.sh).
serve-smoke:
	sh scripts/serve_smoke.sh

# dispatch-smoke boots two real workers, shards a sweep across them with
# `gdpsim sweep -workers`, byte-compares the rows against a single-machine
# run and checks the dispatch telemetry (see scripts/dispatch_smoke.sh).
dispatch-smoke:
	sh scripts/dispatch_smoke.sh

# cache-smoke byte-compares a sweep run unbounded against the same sweep
# under a starved -cache-mem-mb budget with disk spill, twice (cold and warm
# disk tier); see scripts/cache_smoke.sh.
cache-smoke:
	sh scripts/cache_smoke.sh

# bench-go runs the go-test figure/regeneration benchmarks and the core-tick
# micro-benchmark once each.
bench-go:
	$(GO) test -bench=. -benchtime=1x -run=^$$ . ./internal/cpu

# bench-cpu times cpu.Core.Tick alone (BenchmarkCoreTick: ns per ticked cycle
# on the ledger's dense and sparse scenarios, allocations per cycle), the GDP
# dataflow unit alone (BenchmarkDataflowUnit: ns per event group at PRB 32 and
# 4096, which should be about equal), the synthetic instruction generator
# alone (BenchmarkGeneratorNext: ns per instruction on the same two scenarios)
# and the whole step loop (BenchmarkStepLoop: ns per visited cycle, memory
# system and accountants included), and leaves the cpu, trace and sim test
# binaries and CPU profiles in $(BENCH_OUT), to be read with `go tool pprof
# -top $(BENCH_OUT)/cpu.test $(BENCH_OUT)/cpu.prof` (trace.test and
# trace.prof for the generator, sim.test and sim.prof for the step loop).
# Last it runs BenchmarkEstimateScenario (one Engine.Estimate per scenario,
# the service's hot path) with -benchmem and leaves an alloc-space profile:
# `go tool pprof -sample_index=alloc_space -top $(BENCH_OUT)/repro.test
# $(BENCH_OUT)/estimate.memprof` lists the call sites by bytes allocated
# (alloc_objects counts objects instead); a warm estimate allocates little
# beyond its result, so a new entry near the top is new per-run garbage. Then
# BenchmarkSweepGrid (Engine.Sweep over a small grid of every cell kind on a
# fresh memory cache) leaves $(BENCH_OUT)/sweep.memprof, read the same way
# against repro.test: a sweep's garbage by call site.
bench-cpu:
	mkdir -p $(BENCH_OUT)
	$(GO) test -run=^$$ -bench=BenchmarkDataflowUnit ./internal/core
	$(GO) test -run=^$$ -bench=BenchmarkCoreTick -benchtime=20000000x \
		-o $(BENCH_OUT)/cpu.test -cpuprofile $(BENCH_OUT)/cpu.prof ./internal/cpu
	$(GO) test -run=^$$ -bench=BenchmarkGeneratorNext -benchtime=20000000x \
		-o $(BENCH_OUT)/trace.test -cpuprofile $(BENCH_OUT)/trace.prof ./internal/trace
	$(GO) test -run=^$$ -bench=BenchmarkStepLoop -benchtime=2000000x \
		-o $(BENCH_OUT)/sim.test -cpuprofile $(BENCH_OUT)/sim.prof ./internal/sim
	$(GO) test -run=^$$ -bench=BenchmarkEstimateScenario -benchmem \
		-o $(BENCH_OUT)/repro.test -memprofile $(BENCH_OUT)/estimate.memprof .
	$(GO) test -run=^$$ -bench=BenchmarkSweepGrid -benchmem \
		-o $(BENCH_OUT)/repro.test -memprofile $(BENCH_OUT)/sweep.memprof .

# bench-sweep compares the runner's serial vs parallel accuracy-study
# wall-clock (BenchmarkAccuracySweep/jobs=1 vs /jobs=N).
bench-sweep:
	$(GO) test -bench=BenchmarkAccuracySweep -run=^$$ .

clean:
	$(GO) clean ./...
