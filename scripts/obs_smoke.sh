#!/usr/bin/env bash
# obs_smoke.sh — end-to-end smoke test of the observability layer.
#
# Builds the binaries, runs a tiny experiment batch with the live
# introspection endpoint up, scrapes /obs, /obs/stream and /debug/pprof/
# while the server lingers (and checks that the retired /obs/runs answers
# 404), and validates every JSON document (scraped, streamed and written)
# against the obs schemas with `bfetch-sim -validate-obs`. Run via
# `make obs-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"
      [ -n "${bench_pid:-}" ] && kill "$bench_pid" 2>/dev/null
      [ -n "${stream_pid:-}" ] && kill "$stream_pid" 2>/dev/null
      true' EXIT

echo "== build"
go build -o "$workdir/bfetch-bench" ./cmd/bfetch-bench
go build -o "$workdir/bfetch-sim" ./cmd/bfetch-sim

port=$((20000 + RANDOM % 20000))
addr="127.0.0.1:$port"

echo "== run tiny batch with -http $addr"
"$workdir/bfetch-bench" -exp fig8 -workloads mcf,lbm -ff 0 \
    -warmup 20000 -measure 20000 -q \
    -http "$addr" -linger 30s -obsjson "$workdir/obs.json" \
    >"$workdir/bench.out" 2>"$workdir/bench.err" &
bench_pid=$!

echo "== scrape endpoint"
ok=""
stream_pid=""
for _ in $(seq 1 50); do
    if curl -sf "http://$addr/obs" -o "$workdir/status.json" 2>/dev/null; then
        ok=1
        break
    fi
    if ! kill -0 "$bench_pid" 2>/dev/null; then
        echo "bfetch-bench exited before serving:" >&2
        cat "$workdir/bench.err" >&2
        exit 1
    fi
    sleep 0.2
done
if [ -z "$ok" ]; then
    echo "endpoint $addr never came up" >&2
    cat "$workdir/bench.err" >&2
    exit 1
fi

# Attach a live-stream client for the rest of the batch: every job still to
# finish publishes NDJSON status and run documents to it.
curl -sN --max-time 40 "http://$addr/obs/stream" -o "$workdir/stream.ndjson" &
stream_pid=$!

# Wait for the run reports to land on disk (written after the batch).
for _ in $(seq 1 150); do
    [ -s "$workdir/obs.json" ] && break
    sleep 0.2
done
[ -s "$workdir/obs.json" ] || { echo "obs.json never written" >&2; cat "$workdir/bench.err" >&2; exit 1; }

# Scrape the profiles while the server lingers, check that the endpoint
# serves no runs route (obs.json is the complete record), then shut it down.
curl -sf "http://$addr/debug/pprof/" -o /dev/null
runs_code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/obs/runs")
[ "$runs_code" = 404 ] || { echo "/obs/runs answered $runs_code, want 404" >&2; exit 1; }
kill "$bench_pid" 2>/dev/null || true
wait "$bench_pid" 2>/dev/null || true
bench_pid=""

echo "== check live stream"
kill "$stream_pid" 2>/dev/null || true
wait "$stream_pid" 2>/dev/null || true
stream_pid=""
[ -s "$workdir/stream.ndjson" ] || { echo "/obs/stream produced no events" >&2; exit 1; }
# Every stream line is an obs document: validate each one, and require at
# least one batch status and one run report among them.
status_lines=0
run_lines=0
n=0
while IFS= read -r line; do
    n=$((n + 1))
    printf '%s\n' "$line" >"$workdir/line.json"
    schema=$("$workdir/bfetch-sim" -validate-obs "$workdir/line.json") \
        || { echo "stream line $n fails validation" >&2; exit 1; }
    case "$schema" in
        *"valid bfetch-obs-status/v1") status_lines=$((status_lines + 1)) ;;
        *"valid bfetch-obs-run/v1") run_lines=$((run_lines + 1)) ;;
    esac
done <"$workdir/stream.ndjson"
echo "stream: $n lines valid ($status_lines status, $run_lines run)"
[ "$status_lines" -ge 1 ] || { echo "stream carried no status lines" >&2; exit 1; }
[ "$run_lines" -ge 1 ] || { echo "stream carried no run lines" >&2; exit 1; }

echo "== single-run report via bfetch-sim"
"$workdir/bfetch-sim" -workloads mcf -pf stride -warmup 20000 -measure 20000 \
    -obs "$workdir/run.json" >/dev/null 2>&1
for name in c0.l1d.pf_late c0.l1d.polluting useful_timely; do
    grep -q "\"$name\"" "$workdir/run.json" \
        || { echo "run report carries no $name lifecycle count" >&2; exit 1; }
done

echo "== attributed run"
"$workdir/bfetch-sim" -workloads mcf -pf bfetch -warmup 20000 -measure 20000 \
    -cpistack -obs "$workdir/run_cpi.json" >/dev/null 2>&1
grep -q '"c0.cpu.cpi.base"' "$workdir/run_cpi.json" \
    || { echo "run report carries no cpi buckets" >&2; exit 1; }

echo "== -exp cpistack smoke"
"$workdir/bfetch-bench" -exp cpistack -workloads mcf,lbm -ff 0 \
    -warmup 10000 -measure 10000 -q >"$workdir/cpistack.out" 2>&1 \
    || { cat "$workdir/cpistack.out" >&2; exit 1; }
grep -q 'llc_bank_queue' "$workdir/cpistack.out" \
    || { echo "cpistack tables missing queue buckets" >&2; cat "$workdir/cpistack.out" >&2; exit 1; }

echo "== validate schemas"
"$workdir/bfetch-sim" -validate-obs "$workdir/status.json"
"$workdir/bfetch-sim" -validate-obs "$workdir/obs.json"
"$workdir/bfetch-sim" -validate-obs "$workdir/run.json"
"$workdir/bfetch-sim" -validate-obs "$workdir/run_cpi.json"

echo "obs-smoke: OK"
