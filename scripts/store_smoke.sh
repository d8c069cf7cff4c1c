#!/usr/bin/env bash
# store_smoke.sh — end-to-end smoke test of the durable artifact store.
#
# Runs one experiment twice against a shared -store directory and asserts
# the contract the store ships with: the first run emulates each checkpoint
# once, the second run computes nothing (zero sims, zero store misses, 100%
# answered from disk) and its tables are byte-identical to the first run's.
# A checkpoint-warm leg then removes the stored results, keeps the stored
# checkpoints, and requires each checkpoint to be read from disk once.
# A last leg repeats the check across worker counts (-j 1 populates,
# -j 8 reads) — the disk tier must be as scheduling-independent as the
# in-memory one. A bfetch-sim leg, with a fast-forward, checks that one run
# prints the same whether it has no store, fills one, or is answered from
# one; that a run resuming from stored checkpoints alone is not reported as
# answered from the store; and that a second build of the same source
# (-trimpath, so a different executable) computes instead of reading the
# first build's entries. Run via `make store-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== build"
go build -o "$workdir/bfetch-bench" ./cmd/bfetch-bench
go build -o "$workdir/bfetch-sim" ./cmd/bfetch-sim

proto=(-exp fig8 -workloads mcf,lbm,milc -ff 50000 -warmup 10000 -measure 20000 -q)

echo "== cold run (populates the store)"
"$workdir/bfetch-bench" "${proto[@]}" -store "$workdir/store" \
    -out "$workdir/cold" >/dev/null 2>"$workdir/cold.err"
grep -q 'store:.*misses' "$workdir/cold.err" || {
    echo "cold run never reported store traffic:" >&2
    cat "$workdir/cold.err" >&2
    exit 1
}
# Each of the 3 checkpoints is emulated once and never read back: fig8 runs
# its baselines and its engines as one batch, and every job after the first
# on a workload must find the emulated checkpoint still in memory.
grep -Eq '^fig8 finished in .*; ckpt: [0-9]+ hits, 3 misses\); store: 0 hits,' "$workdir/cold.err" || {
    echo "cold run emulated a checkpoint twice or read one back from disk:" >&2
    cat "$workdir/cold.err" >&2
    exit 1
}

echo "== warm run (must compute nothing)"
"$workdir/bfetch-bench" "${proto[@]}" -store "$workdir/store" \
    -out "$workdir/warm" >/dev/null 2>"$workdir/warm.err"
grep -q '^fig8 finished in .* (0 sims run' "$workdir/warm.err" || {
    echo "warm run simulated something:" >&2
    cat "$workdir/warm.err" >&2
    exit 1
}
grep -Eq 'store: [1-9][0-9]* hits, 0 misses' "$workdir/warm.err" || {
    echo "warm run was not 100% store hits:" >&2
    cat "$workdir/warm.err" >&2
    exit 1
}

echo "== cold vs warm tables byte-identical"
diff -r "$workdir/cold" "$workdir/warm"

echo "== checkpoint-warm run (results removed, checkpoints kept)"
rm -rf "$workdir/store/run"
"$workdir/bfetch-bench" "${proto[@]}" -store "$workdir/store" \
    -out "$workdir/ckwarm" >/dev/null 2>"$workdir/ckwarm.err"
# Nothing is emulated, and each of the 3 stored checkpoints is read once:
# a checkpoint read from the store stays in memory for the workload's other
# jobs.
grep -q '^fig8 finished in .*; ckpt: 9 hits, 0 misses); store: 3 hits, 12 misses$' "$workdir/ckwarm.err" || {
    echo "checkpoint-warm run emulated a checkpoint or read one twice:" >&2
    cat "$workdir/ckwarm.err" >&2
    exit 1
}
diff -r "$workdir/cold" "$workdir/ckwarm"

echo "== worker-count invariance (-j 1 populates, -j 8 reads)"
"$workdir/bfetch-bench" "${proto[@]}" -store "$workdir/jstore" -j 1 \
    -out "$workdir/j1" >/dev/null 2>&1
"$workdir/bfetch-bench" "${proto[@]}" -store "$workdir/jstore" -j 8 \
    -out "$workdir/j8" >/dev/null 2>"$workdir/j8.err"
grep -q '^fig8 finished in .* (0 sims run' "$workdir/j8.err" || {
    echo "-j 8 over the -j 1 store recomputed:" >&2
    cat "$workdir/j8.err" >&2
    exit 1
}
diff -r "$workdir/j1" "$workdir/j8"

echo "== bfetch-sim: no store, cold store, warm store print the same"
sim=(-workloads mcf,lbm -pf bfetch -ff 30000 -warmup 10000 -measure 20000)
"$workdir/bfetch-sim" "${sim[@]}" >"$workdir/sim_nostore.out"
"$workdir/bfetch-sim" "${sim[@]}" -store "$workdir/simstore" \
    >"$workdir/sim_cold.out" 2>"$workdir/sim_cold.err"
"$workdir/bfetch-sim" "${sim[@]}" -store "$workdir/simstore" \
    >"$workdir/sim_warm.out" 2>"$workdir/sim_warm.err"
if grep -q 'answered from' "$workdir/sim_cold.err"; then
    echo "bfetch-sim cold run was answered from an empty store:" >&2
    cat "$workdir/sim_cold.err" >&2
    exit 1
fi
grep -q 'answered from' "$workdir/sim_warm.err" || {
    echo "bfetch-sim warm run was not answered from the store:" >&2
    cat "$workdir/sim_warm.err" >&2
    exit 1
}
diff "$workdir/sim_nostore.out" "$workdir/sim_cold.out"
diff "$workdir/sim_nostore.out" "$workdir/sim_warm.out"

echo "== bfetch-sim: a checkpoint hit alone is not an answer from the store"
# Same fast-forward, other -measure: the stored checkpoints resume the run,
# but no stored result answers it, so it simulates and must say nothing
# about having been answered from disk.
"$workdir/bfetch-sim" "${sim[@]}" -measure 25000 >"$workdir/sim_m_nostore.out"
"$workdir/bfetch-sim" "${sim[@]}" -measure 25000 -store "$workdir/simstore" \
    >"$workdir/sim_m_ckpt.out" 2>"$workdir/sim_m_ckpt.err"
if grep -q 'answered from' "$workdir/sim_m_ckpt.err"; then
    echo "bfetch-sim run that only hit stored checkpoints claimed to be answered from the store:" >&2
    cat "$workdir/sim_m_ckpt.err" >&2
    exit 1
fi
diff "$workdir/sim_m_nostore.out" "$workdir/sim_m_ckpt.out"

echo "== bfetch-sim: another build does not read the first build's store"
go build -trimpath -o "$workdir/bfetch-sim-trim" ./cmd/bfetch-sim
"$workdir/bfetch-sim-trim" "${sim[@]}" -store "$workdir/simstore" \
    >"$workdir/sim_other.out" 2>"$workdir/sim_other.err"
if grep -q 'answered from' "$workdir/sim_other.err"; then
    echo "a second bfetch-sim build was answered from the first build's store:" >&2
    cat "$workdir/sim_other.err" >&2
    exit 1
fi
diff "$workdir/sim_nostore.out" "$workdir/sim_other.out"

echo "store-smoke: OK"
