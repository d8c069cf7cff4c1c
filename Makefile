# Verification targets mirror ROADMAP.md so CI and humans run the same thing.

GO ?= go

.PHONY: all build test vet vet-host vet-windows fmt-check lint verify verify-full race bench bench-smoke bench-scale obs-smoke store-smoke exp-smoke examples-smoke fuzz-smoke clean

# Packages exercising concurrency: the parallel experiment engine, the
# copy-on-write memory forks, shared-checkpoint restores, and the durable
# store shared across workers.
RACE_PKGS = ./internal/runner ./internal/harness ./internal/workload \
	./internal/mem ./internal/ckpt ./internal/store

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet: vet-host vet-windows

vet-host:
	$(GO) vet ./...

# mem.Memory.Seal maps kernel images read-only on linux and darwin; every
# other platform builds its heap fallback (seal_other.go). Vetting the
# memory packages for windows keeps that fallback compiling.
vet-windows:
	GOOS=windows $(GO) vet ./internal/mem ./internal/workload

# Custom static analysis (internal/lint), over every package type-checked
# with go/types: the compiler-witnessed hot-path allocation gate over every
# function reachable from a //bfetch:hotpath root, no channel send under a
# lock, stats-reset audit, and over every package under internal/ the
# determinism rules and no net. One
# `go list -e -export -deps -json -gcflags='-m=2 ...' ./...` run tells it
# which files each package compiles, where its dependencies' export data
# lies and what the compiler decided; Go's build cache replays the facts of
# up-to-date packages, so a cold run costs one build and a warm run under a
# second. Exits non-zero on any finding, build or type error, or
# unrecognized compiler diagnostic format.
lint:
	$(GO) run ./cmd/bfetch-lint

# Formatting gate: fails listing every file gofmt would rewrite.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Tier-1 verify (ROADMAP.md) plus the formatting gate.
verify: fmt-check build vet test

# Full pass: tier-1 plus the bfetch-lint gate and the race leg over the
# concurrent packages. CI runs these same targets, one step each.
verify-full: fmt-check build vet lint test race

race:
	$(GO) test -race $(RACE_PKGS)

# Hot-path microbenchmarks (BenchmarkCoreCycle must report 0 allocs/op;
# MemReadWrite/MemFork/Checkpoint guard the fast-forward machinery;
# EmuInterp/EmuCompiled guard the threaded-code speedup, RobBitmap the
# issue-stage selection kernel and SimScale the event loop at 16 and 64
# cores). End-to-end measurements come from `bash benchmark/run.sh`, judged
# with `go run ./benchmark compare` (see benchmark/README.md).
bench:
	$(GO) test -run xxx -bench 'CoreCycle|CacheAccess|BFetchTick|SimMemoryBound|SimScale' \
		-benchmem ./internal/cpu ./internal/cache ./internal/core ./internal/sim
	$(GO) test -run xxx -bench 'MemReadWrite|MemFork|Checkpoint' \
		-benchmem ./internal/mem ./internal/ckpt
	$(GO) test -run xxx -bench 'EmuInterp|EmuCompiled|RobBitmap' \
		-benchmem ./internal/emu ./internal/cpu

# CI leg: every kernel microbenchmark, executed 10 iterations each — not a
# measurement, a regression tripwire that keeps the benchmarks compiling and
# their setup/invariant checks (b.Fatal paths) running on every push. The
# root package's figure benchmarks run whole experiments (tens of seconds
# per op) and are excluded; they stay a manual `go test -bench Fig .` affair.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime=10x ./internal/...

# Scale-out smoke: the mix-8/16 slice of the scale experiment at a reduced
# protocol — exercises wide-mix generation, the banked LLC / channeled DRAM
# models and their per-bank metrics end to end without the cost of the full
# 2..64-core sweep. Most of those cores share a bank or a channel within a
# cycle, so the tables pin the shared-level arbitration order; they must
# match the committed golden (BENCH_SCALE_GOLDEN) byte for byte. Regenerate
# it like EXP_SMOKE_GOLDEN, with
#   go run ./cmd/bfetch-bench <BENCH_SCALE_ARGS> > <BENCH_SCALE_GOLDEN>
BENCH_SCALE_ARGS = -exp scale -scalecores 8,16 -ff 20000 -warmup 5000 -measure 20000 -q
BENCH_SCALE_GOLDEN = cmd/bfetch-bench/testdata/scale_smoke.golden

bench-scale:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/bfetch-bench $(BENCH_SCALE_ARGS) > "$$tmp/scale.txt" && \
	diff -u "$(BENCH_SCALE_GOLDEN)" "$$tmp/scale.txt" && \
	echo "bench-scale: the scale tables match the golden ($$(wc -l < "$$tmp/scale.txt") lines)"

# Observability smoke test: tiny batch with the live -http endpoint up,
# scrape it, and validate every obs JSON document against its schema.
obs-smoke:
	./scripts/obs_smoke.sh

# Durable-store smoke test: one experiment run twice against a shared -store
# directory (second run: zero sims, 100% store hits, byte-identical CSVs),
# plus a -j 1 / -j 8 leg sharing one store.
store-smoke:
	./scripts/store_smoke.sh

# Experiment smoke test: every experiment (-exp all) over four kernels at a
# reduced protocol, once with -j 1 and once with -j 8; both table outputs
# must match the committed golden (EXP_SMOKE_GOLDEN) byte for byte. This is
# the only CI step that runs cpistack, ext-isb, ext-bw, ext-depth, fig10,
# mix8, fig15 and ablation. After an intended change to the model or to a
# table's layout, regenerate the golden (on linux/amd64) with
#   go run ./cmd/bfetch-bench <EXP_SMOKE_ARGS> > <EXP_SMOKE_GOLDEN>
# and review its diff with the change.
EXP_SMOKE_ARGS = -exp all -workloads mcf,lbm,gamess,libquantum -mixes 2 \
	-scalecores 2,4 -ff 20000 -warmup 5000 -measure 20000 -q
EXP_SMOKE_GOLDEN = cmd/bfetch-bench/testdata/exp_smoke.golden

exp-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/bfetch-bench" ./cmd/bfetch-bench && \
	"$$tmp/bfetch-bench" $(EXP_SMOKE_ARGS) -j 1 > "$$tmp/j1.txt" && \
	"$$tmp/bfetch-bench" $(EXP_SMOKE_ARGS) -j 8 > "$$tmp/j8.txt" && \
	diff -u "$(EXP_SMOKE_GOLDEN)" "$$tmp/j1.txt" && \
	diff -u "$(EXP_SMOKE_GOLDEN)" "$$tmp/j8.txt" && \
	echo "exp-smoke: -j 1 and -j 8 print the golden tables ($$(wc -l < "$$tmp/j1.txt") lines)"

# Examples smoke test: build and run each program under examples/ (about
# 5 s in total); each stdout must match its golden under examples/testdata/
# byte for byte. The examples drive the public facade (import bfetch
# "repro") end to end, which no test does. After an intended change to the
# model or to an example's output, regenerate a golden with
#   go run ./examples/<name> > examples/testdata/<name>.golden
EXAMPLES = quickstart custom-prefetcher multiprogram pointerchase

examples-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for e in $(EXAMPLES); do \
		$(GO) build -o "$$tmp/$$e" ./examples/$$e && \
		"$$tmp/$$e" > "$$tmp/$$e.txt" && \
		diff -u "examples/testdata/$$e.golden" "$$tmp/$$e.txt" || exit 1; \
	done && \
	echo "examples-smoke: $(words $(EXAMPLES)) examples print their goldens"

# Fuzz smoke test: each fuzz target fuzzes for FUZZTIME (its seed corpus
# already runs in `go test`). One `go test -fuzz` per target, since the flag
# takes a single target per package.
FUZZTIME ?= 5s
FUZZ_TARGETS = \
	./internal/isa:FuzzAssemble \
	./internal/lint:FuzzParseFacts \
	./internal/store:FuzzStoreGet \
	./internal/store:FuzzGetCheckpoint \
	./internal/runner:FuzzValidateReport \
	./internal/emu:FuzzCompiledMatchesInterp \
	./internal/cpu:FuzzCoreMatchesEmu \
	./internal/sim:FuzzConfigValidate

fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz-smoke: $$name ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) "$$pkg"; \
	done

clean:
	rm -rf results
