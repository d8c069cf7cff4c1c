# Verification targets mirror ROADMAP.md so CI and humans run the same thing.

GO ?= go

.PHONY: all build test vet lint verify verify-full verify-race race bench bench-smoke bench-scale obs-smoke store-smoke exp-smoke clean

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

vet:
	$(GO) vet ./...

# Custom static analysis (internal/lint), over every package type-checked
# with go/types: the compiler-witnessed hot-path allocation gate over every
# function reachable from a //bfetch:hotpath root, no channel send under a
# lock, determinism rules, stats-reset audit. The gate builds with
# -gcflags='-m=2 ...' and caches facts per package by build ID: a cold run
# costs one build, a warm run about 0.3 s. Exits non-zero on any finding or
# type error.
lint:
	$(GO) run ./cmd/bfetch-lint

# Tier-1 verify (ROADMAP.md).
verify: build vet test

# Full pass: tier-1 plus the bfetch-lint gate and the race leg over the
# concurrent packages.
verify-full: build vet
	$(GO) run ./cmd/bfetch-lint
	$(GO) test ./...
	$(GO) test -race $(RACE_PKGS)

race:
	$(GO) test -race $(RACE_PKGS)

verify-race: race

# Hot-path microbenchmarks (BenchmarkCoreCycle must report 0 allocs/op;
# MemReadWrite/MemFork/Checkpoint guard the fast-forward machinery;
# EmuInterp/EmuCompiled guard the threaded-code speedup and RobScan/RobBitmap
# the issue-stage selection kernel). End-to-end measurements come from
# `bash benchmark/run.sh`, judged with `go run ./benchmark compare` (see
# benchmark/README.md).
bench:
	$(GO) test -run xxx -bench 'CoreCycle|CacheAccess|BFetchTick|SimMemoryBound' \
		-benchmem ./internal/cpu ./internal/cache ./internal/core ./internal/sim
	$(GO) test -run xxx -bench 'MemReadWrite|MemFork|Checkpoint' \
		-benchmem ./internal/mem ./internal/ckpt
	$(GO) test -run xxx -bench 'EmuInterp|EmuCompiled|RobScan|RobBitmap' \
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
# 2..64-core sweep.
bench-scale:
	$(GO) run ./cmd/bfetch-bench -exp scale -scalecores 8,16 \
		-ff 20000 -warmup 5000 -measure 20000 -q

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
# reduced protocol, once with -j 1 and once with -j 8; the two table outputs
# must match byte for byte. This is the only CI step that runs cpistack,
# ext-isb, ext-bw, ext-depth, fig10, mix8, fig15 and ablation.
EXP_SMOKE_ARGS = -exp all -workloads mcf,lbm,gamess,libquantum -mixes 2 \
	-scalecores 2,4 -ff 20000 -warmup 5000 -measure 20000 -q

exp-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/bfetch-bench" ./cmd/bfetch-bench && \
	"$$tmp/bfetch-bench" $(EXP_SMOKE_ARGS) -j 1 > "$$tmp/j1.txt" && \
	"$$tmp/bfetch-bench" $(EXP_SMOKE_ARGS) -j 8 > "$$tmp/j8.txt" && \
	diff -u "$$tmp/j1.txt" "$$tmp/j8.txt" && \
	echo "exp-smoke: -j 1 and -j 8 print identical tables ($$(wc -l < "$$tmp/j1.txt") lines)"

clean:
	rm -rf results
