#!/usr/bin/env bash
# Repo verification: formatting, build, vet, race-enabled tests, the nested
# benchmark module (vet, tests, smoke run), a seeded WAL crash-recovery
# smoke, the consistency-oracle and hub-replication fuzz smokes, a
# durable-CLI recovery smoke per durable family, a multi-process kill -9
# smoke of the distributed runtime, a 5 s fuzz each of the frame reader and
# the worker checkpoint decoder, a check that removed flags and figures stay
# removed, a graphflyd serving smoke (concurrent ingest+query, SIGTERM,
# restart, dump vs single-shot oracle), serving-chaos and degraded-mode
# smokes, a bench smoke (Fig 11 + Fig S7) that emits and schema-validates
# the machine-readable report, one iteration of the repartition
# microbenchmark, the Fig S7 replication gates and the alloc gate against
# the committed BENCH_graphfly.json; ends by printing the repo's size
# (non-test Go lines, CLI flags). Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== go test -race =="
go test -race ./...

echo "== benchmark module (nested go.mod: vet, tests, smoke run of every workload) =="
# ./... above stops at the nested module, so an engine/wal/serve API change
# that breaks benchmark/run.sh would otherwise go unnoticed.
(cd benchmark && go vet ./... && go test ./...)
bash benchmark/run.sh -smoke > /dev/null

echo "== crash-recovery smoke (seeded WAL crash point + oracle check) =="
go test -race -run 'TestCrashRecoverySmoke' -count=1 ./internal/wal

echo "== consistency-oracle smoke (seeded stream x engines x schedulers) =="
go test -race -run 'TestOracleSmoke' -count=1 ./internal/oracle

echo "== hub-replication fuzz smoke (BA skew, replication on/off x schedulers) =="
go test -race -run 'TestFuzzHubSkewReplication' -count=1 ./internal/oracle

echo "== durable CLI smoke (WAL write, then recovery resume) =="
waltmp=$(mktemp -d)
go run ./cmd/graphfly -algo SSSP -dataset LJ -nEdges 1000 -numberOfUpdateBatches 2 \
    -wal -waldir "$waltmp" -fsync interval -snapshot-every 2 > /dev/null
go run ./cmd/graphfly -algo SSSP -dataset LJ -nEdges 1000 -numberOfUpdateBatches 1 \
    -wal -waldir "$waltmp" > "$waltmp/resume.out"
grep -q '^recovered ' "$waltmp/resume.out"
# the accumulative family goes through the same durable wrapper
go run ./cmd/graphfly -algo PageRank -dataset LJ -nEdges 1000 -numberOfUpdateBatches 2 \
    -wal -waldir "$waltmp/pr" -fsync interval -snapshot-every 2 > /dev/null
go run ./cmd/graphfly -algo PageRank -dataset LJ -nEdges 1000 -numberOfUpdateBatches 1 \
    -wal -waldir "$waltmp/pr" > "$waltmp/resume-pr.out"
grep -q '^recovered .* replayed [0-9]* batches to seq 2 ' "$waltmp/resume-pr.out"
rm -rf "$waltmp"

echo "== multi-process crash-restart smoke (3 workers, SIGKILL one, oracle-equal) =="
timeout 300 go test -count=1 -run 'TestProcCrashRestartSmoke' ./internal/dist

echo "== decoder fuzz (frame reader, worker checkpoint reader; 5 s each, must not panic) =="
go test -run '^$' -fuzz 'FuzzReadFrame' -fuzztime 5s ./internal/wal
go test -run '^$' -fuzz 'FuzzReadWorkerCkpt' -fuzztime 5s ./internal/dist

echo "== removed flags and figures (one runtime, one scheduler, one batch path) =="
flagtmp=$(mktemp -d)
go build -o "$flagtmp/graphfly" ./cmd/graphfly
go build -o "$flagtmp/graphflyd" ./cmd/graphflyd
go build -o "$flagtmp/bench" ./cmd/bench
expect_unknown_flag() { # $1 = flag name, $2... = command
    local name=$1 rc=0
    shift
    "$@" > /dev/null 2> "$flagtmp/err" || rc=$?
    if [ "$rc" != 2 ] || ! grep -q "flag provided but not defined: -$name" "$flagtmp/err"; then
        echo "$*: want exit 2 with the unknown-flag usage, got exit $rc:" >&2
        cat "$flagtmp/err" >&2
        exit 1
    fi
}
expect_unknown_flag nodes "$flagtmp/graphfly" -nodes 4
expect_unknown_flag faults "$flagtmp/graphfly" -faults seed=1
expect_unknown_flag faults "$flagtmp/bench" -faults x
expect_unknown_flag sched "$flagtmp/graphfly" -sched x
expect_unknown_flag denseoff "$flagtmp/graphfly" -denseoff
expect_unknown_flag sched "$flagtmp/graphflyd" -sched x
expect_unknown_flag denseoff "$flagtmp/bench" -denseoff
rc=0
"$flagtmp/bench" -fig s2 > /dev/null 2> "$flagtmp/err" || rc=$?
if [ "$rc" != 2 ] || ! grep -q 'unknown figure' "$flagtmp/err"; then
    echo "bench -fig s2: want exit 2 with 'unknown figure', got exit $rc:" >&2
    cat "$flagtmp/err" >&2
    exit 1
fi
rm -rf "$flagtmp"

echo "== graphflyd serving smoke (concurrent ingest+query, SIGTERM, restart, oracle) =="
servetmp=$(mktemp -d)
dpid=""
cleanup_serve() { [ -n "$dpid" ] && kill "$dpid" 2>/dev/null || true; rm -rf "$servetmp"; }
trap cleanup_serve EXIT
go build -o "$servetmp/graphflyd" ./cmd/graphflyd
go build -o "$servetmp/graphfly" ./cmd/graphfly
common=(-algo SSSP -dataset LJ -nEdges 400 -deletions 0.1 -seed 42)
wait_listening() { # $1 = server.out; sets $addr
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^graphflyd listening on \([0-9.:]*\) .*/\1/p' "$1")
        [ -n "$addr" ] && return 0
        sleep 0.1
    done
    echo "graphflyd never came up:" >&2; cat "$1" >&2; return 1
}
"$servetmp/graphflyd" "${common[@]}" -waldir "$servetmp/wal" -addr 127.0.0.1:0 \
    -fsync always -snapshot-every 4 > "$servetmp/server1.out" 2>&1 &
dpid=$!
wait_listening "$servetmp/server1.out"
"$servetmp/graphflyd" "${common[@]}" -client ingest -addr "$addr" \
    -numberOfUpdateBatches 6 > "$servetmp/ingest.out" 2>&1 &
ipid=$!
# a second, concurrent session queries while the ingest session runs
"$servetmp/graphflyd" -client stat -addr "$addr" > /dev/null
"$servetmp/graphflyd" -client topk -addr "$addr" -k 5 > /dev/null
wait "$ipid"
[ "$(grep -c '^ingested batch' "$servetmp/ingest.out")" = 6 ]
kill -TERM "$dpid"
wait "$dpid"
grep -q 'drained: durable through seq 6' "$servetmp/server1.out"
# restart over the same WAL: recovery must cover every acknowledged batch,
# and the served state must byte-match a single-shot oracle run
"$servetmp/graphflyd" "${common[@]}" -waldir "$servetmp/wal" -addr 127.0.0.1:0 \
    -fsync always -snapshot-every 4 > "$servetmp/server2.out" 2>&1 &
dpid=$!
wait_listening "$servetmp/server2.out"
grep -q 'replayed [0-9]* batches to seq 6' "$servetmp/server2.out"
"$servetmp/graphflyd" -client dump -addr "$addr" -o "$servetmp/served.txt"
kill -TERM "$dpid"
wait "$dpid"
dpid=""
"$servetmp/graphfly" "${common[@]}" -numberOfUpdateBatches 6 \
    -outputFile "$servetmp/oracle.txt" > /dev/null
cmp "$servetmp/served.txt" "$servetmp/oracle.txt"
rm -rf "$servetmp"
trap - EXIT

echo "== serving-chaos smoke (faultproxy resets, client resume, dump vs oracle) =="
chaostmp=$(mktemp -d)
dpid=""; ppid=""
cleanup_chaos() {
    [ -n "$dpid" ] && kill "$dpid" 2>/dev/null || true
    [ -n "$ppid" ] && kill "$ppid" 2>/dev/null || true
    rm -rf "$chaostmp"
}
trap cleanup_chaos EXIT
go build -o "$chaostmp/graphflyd" ./cmd/graphflyd
go build -o "$chaostmp/graphfly" ./cmd/graphfly
go build -o "$chaostmp/faultproxy" ./cmd/faultproxy
common=(-algo SSSP -dataset LJ -nEdges 400 -deletions 0.1 -seed 42)
wait_line() { # $1 = logfile, $2 = sed extraction pattern; sets $addr
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n "$2" "$1")
        [ -n "$addr" ] && return 0
        sleep 0.1
    done
    echo "server/proxy never came up:" >&2; cat "$1" >&2; return 1
}
"$chaostmp/graphflyd" "${common[@]}" -waldir "$chaostmp/wal" -addr 127.0.0.1:0 \
    -fsync always -snapshot-every 4 -dedup-window 64 > "$chaostmp/server.out" 2>&1 &
dpid=$!
wait_line "$chaostmp/server.out" 's/^graphflyd listening on \([0-9.:]*\) .*/\1/p'
daddr=$addr
# park the fault proxy between client and daemon: seeded resets + torn writes
"$chaostmp/faultproxy" -listen 127.0.0.1:0 -target "$daddr" \
    -netfault seed=7,reset=0.03,partial=0.02,delay=0.05,maxdelay=2ms,maxfaults=12 \
    > "$chaostmp/proxy.out" 2>&1 &
ppid=$!
wait_line "$chaostmp/proxy.out" 's/^faultproxy listening on \([0-9.:]*\) .*/\1/p'
# resuming client: every batch must land exactly once despite the faults
"$chaostmp/graphflyd" "${common[@]}" -client ingest -client-id chaos-smoke \
    -addr "$addr" -numberOfUpdateBatches 6 > "$chaostmp/ingest.out" 2>&1
[ "$(grep -c '^ingested batch' "$chaostmp/ingest.out")" = 6 ]
grep -q 'seq=6' "$chaostmp/ingest.out" # no duplicate applies shifted the ledger
kill "$ppid"; wait "$ppid" 2>/dev/null || true; ppid=""
# dump straight from the daemon (not through the dead proxy) vs the oracle
"$chaostmp/graphflyd" -client dump -addr "$daddr" -o "$chaostmp/served.txt"
kill -TERM "$dpid"; wait "$dpid"
grep -q 'drained: durable through seq 6' "$chaostmp/server.out"
dpid=""
"$chaostmp/graphfly" "${common[@]}" -numberOfUpdateBatches 6 \
    -outputFile "$chaostmp/oracle.txt" > /dev/null
cmp "$chaostmp/served.txt" "$chaostmp/oracle.txt"

echo "== degraded-mode smoke (injected ENOSPC, read-only window, auto-recovery) =="
# after=4 skips segment creation + batch 1, so batch 2's fsync fails: the
# batch is logged-but-unacked, the daemon flips read-only, the prober swaps
# in a fresh log generation, and the client's same-key resend dedups.
"$chaostmp/graphflyd" "${common[@]}" -waldir "$chaostmp/wal2" -addr 127.0.0.1:0 \
    -fsync always -diskfault after=4,count=1,err=enospc -metrics \
    > "$chaostmp/server2.out" 2>&1 &
dpid=$!
wait_line "$chaostmp/server2.out" 's/^graphflyd listening on \([0-9.:]*\) .*/\1/p'
"$chaostmp/graphflyd" "${common[@]}" -client ingest -client-id degraded-smoke \
    -addr "$addr" -numberOfUpdateBatches 6 > "$chaostmp/ingest2.out" 2>&1
[ "$(grep -c '^ingested batch' "$chaostmp/ingest2.out")" = 6 ]
grep -q 'seq=6' "$chaostmp/ingest2.out"
kill -TERM "$dpid"; wait "$dpid"
dpid=""
grep -q 'drained: durable through seq 6' "$chaostmp/server2.out"
grep -q 'serve.degraded_entries 1' "$chaostmp/server2.out"
grep -q 'serve.degraded_recoveries 1' "$chaostmp/server2.out"
rm -rf "$chaostmp"
trap - EXIT

echo "== bench smoke (machine-readable report + schema validation) =="
benchtmp=$(mktemp -d)
trap 'rm -rf "$benchtmp"' EXIT
# Figure set, scale and GOMAXPROCS must match the committed
# BENCH_graphfly.json (recorded at gomaxprocs 1) so the alloc gate below
# compares like with like: allocs/batch grows with the worker count.
GOMAXPROCS=1 go run ./cmd/bench -json -fig 11,s7 -edgecap 8000 -batch 500 -batches 2 \
    -out "$benchtmp/BENCH_graphfly.json" > "$benchtmp/bench.out"
go run ./scripts/benchdiff -check "$benchtmp/BENCH_graphfly.json"

echo "== repartition microbenchmark smoke (one iteration, so it cannot rot) =="
go test -run '^$' -bench 'BenchmarkRepartition' -benchtime 1x .

echo "== hub-replication figure smoke (Fig S7: replica counters engage on BA) =="
# The BA rows must actually replicate (hubs and routed replica messages
# both nonzero) while the uniform control must stay hub-free.
if ! awk '$1 == "BA" && $(NF-2) > 0 && $(NF-1) > 0 { found = 1 } END { exit !found }' "$benchtmp/bench.out"; then
    echo "Fig S7: no BA row reports replicated hubs with replica traffic" >&2
    cat "$benchtmp/bench.out" >&2
    exit 1
fi
if awk '$1 == "ER-uniform" && $(NF-2) > 0 { exit 1 }' "$benchtmp/bench.out"; then :; else
    echo "Fig S7: uniform control unexpectedly replicated hubs" >&2
    cat "$benchtmp/bench.out" >&2
    exit 1
fi

echo "== alloc gate (fresh smoke vs committed BENCH_graphfly.json) =="
go run ./scripts/benchdiff -allocgate BENCH_graphfly.json "$benchtmp/BENCH_graphfly.json"

echo "== size (what every simplicity PR quotes) =="
echo "non-test Go lines outside benchmark/: $(find . -name '*.go' -not -name '*_test.go' \
    -not -path './benchmark/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l)"
echo "flag definitions under cmd/: $(grep -rhoE 'flag\.[A-Za-z0-9]+\(' cmd | grep -vcE 'flag\.(Parse|Arg|NArg)\(')"

echo "OK"
