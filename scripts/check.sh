#!/usr/bin/env bash
# Repo verification: formatting, build, vet, race-enabled tests, ten
# race-enabled runs of the unit-scheduler conformance suite, five of the
# message-path tests (the accumulative owner-write handoff, the selective
# and local outbox flushes, the quiescence invariant, and the one-worker
# unit order: seeded flows by flow id, then message-reached flows in
# activation order), the nested benchmark
# module (vet, tests, smoke run), five race-enabled runs of the durable
# append path (group commit, the commit window, reopen after a disk fault,
# the serving-mode and background-snapshot crash sweeps, append poisoning,
# and the server's degraded mode and snapshot-in-flight stop: library and
# serving batches share one append mutex with the snapshot writer and the
# log swap), a seeded WAL crash-recovery smoke, the
# consistency-oracle smoke and the hub-skew fuzz smoke (both bit-exact over
# 1, 3 and 4 workers), a durable-CLI recovery smoke
# per durable family, a multi-process kill -9 smoke of the distributed
# runtime, five race-enabled runs of the cluster's membership tests (a
# link reset and a dead worker's EOF each make a worker leave, one worker
# and then every worker killed inside a batch make it re-run, a flowless
# worker takes over when the one flow's owner leaves or dies, plus the
# seeded crash and churn sweeps: membership carries every link fault), a
# 5 s fuzz of every decoder harness (wal frames, snapshots and
# payloads; the worker snapshot loader; the cluster and session messages),
# of the hub-indexed adjacency and of the bulk graph build against the
# one-edge-at-a-time build, a check that removed flags and figures
# stay removed, a graphfly serve smoke at -snapshot-every 4 and 1
# (concurrent ingest+query, SIGTERM, restart, dump vs single-shot oracle;
# at 1 every batch starts a background WAL snapshot), serving-chaos and
# degraded-mode smokes, text-only bench smokes (Fig 11; the measured Fig 16
# loopback cluster and Fig 17 core sweep) so cmd/bench cannot rot, and one
# iteration each of the flow-derivation microbenchmark (what engine
# construction, restore and a D-tree rebuild pay) and of the bulk graph
# build microbenchmark (what every start, recovery and worker checkpoint
# load pays before its first batch); ends by printing
# the repo's size (non-test Go lines, CLI flags). The allocation gate is
# internal/expr's TestFig11AllocBudget, part of the go test runs above.
# Run from anywhere.
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

echo "== scheduler conformance (-race, 10 runs: the one scheduler's handoff protocol) =="
go test -race -count=10 -run '^TestSchedConform' ./internal/engine

echo "== message path (-race, 5 runs: plain owner writes ordered by the unit state machine, outbox flushes, quiescence, concurrent publish marks, unit order) =="
go test -race -count=5 \
    -run 'Accumulative|PageRankEquivalence|QuiescenceInvariant|PropertySSSPEquivalence|PropertyCCEquivalence|LocalThreeWorkers|PublishInvariants|UnitOrder' \
    ./internal/engine

echo "== benchmark module (nested go.mod: vet, tests, smoke run of every workload) =="
# ./... above stops at the nested module, so an engine/wal/serve API change
# that breaks benchmark/run.sh would otherwise go unnoticed.
(cd benchmark && go vet ./... && go test ./...)
bash benchmark/run.sh -smoke > /dev/null

echo "== durable append path (-race, 5 runs: one owner of the log; library and serving batches append, sync, snapshot and reopen under one append mutex) =="
go test -race -count=5 \
    -run 'GroupCommit|GroupWindow|ReopenLog|ServingModeCrash|BackgroundSnapshotCrashes|AppendFailurePoisons' \
    ./internal/wal
go test -race -count=5 -run 'Degraded|ServeStopsWithSnapshotInFlight' ./internal/serve

echo "== crash-recovery smoke (seeded WAL crash point + oracle check) =="
go test -race -run 'TestCrashRecoverySmoke' -count=1 ./internal/wal

echo "== consistency-oracle smoke (seeded stream x engines, bit-exact over 1/3/4 workers) =="
go test -race -run 'TestOracleSmoke' -count=1 ./internal/oracle

echo "== hub-skew fuzz smoke (BA skew, low hub threshold, bit-exact over 1/3/4 workers) =="
go test -race -run 'TestFuzzHubSkew' -count=1 ./internal/oracle

echo "== durable CLI smoke (WAL write, then recovery resume) =="
waltmp=$(mktemp -d)
go run ./cmd/graphfly -algo SSSP -dataset LJ -nEdges 1000 -numberOfUpdateBatches 2 \
    -waldir "$waltmp" -fsync interval -snapshot-every 2 > /dev/null
go run ./cmd/graphfly -algo SSSP -dataset LJ -nEdges 1000 -numberOfUpdateBatches 1 \
    -waldir "$waltmp" > "$waltmp/resume.out"
grep -q '^recovered ' "$waltmp/resume.out"
# the accumulative family goes through the same durable wrapper
go run ./cmd/graphfly -algo PageRank -dataset LJ -nEdges 1000 -numberOfUpdateBatches 2 \
    -waldir "$waltmp/pr" -fsync interval -snapshot-every 2 > /dev/null
go run ./cmd/graphfly -algo PageRank -dataset LJ -nEdges 1000 -numberOfUpdateBatches 1 \
    -waldir "$waltmp/pr" > "$waltmp/resume-pr.out"
grep -q '^recovered .* replayed [0-9]* batches to seq 2 ' "$waltmp/resume-pr.out"
rm -rf "$waltmp"

echo "== multi-process crash-restart smoke (3 workers, SIGKILL one, oracle-equal) =="
timeout 300 go test -count=1 -run 'TestProcCrashRestartSmoke' ./internal/dist

echo "== cluster membership (-race, 5 runs: a lost link is a member that left) =="
go test -race -count=5 \
    -run '^(TestSocketLinkResetMakesWorkerLeave|TestSocketDeadWorkerDetectedAtEOF|TestSocketCrashRestartMidBatch|TestSocketAllWorkersDie|TestSocketFlowlessWorkerTakesOver|TestSocketChaosSeeded|TestSocketMembershipChurnSweep)$' \
    ./internal/dist

echo "== decoder fuzz (every decoder harness; 5 s each, no panic, stable round trips) =="
for target in FuzzReadFrame FuzzReadSnapshot FuzzDecodePayloads; do
    go test -run '^$' -fuzz "^$target\$" -fuzztime 5s ./internal/wal
done
for target in FuzzReadWorkerCkpt FuzzDecodeWire; do
    go test -run '^$' -fuzz "^$target\$" -fuzztime 5s ./internal/dist
done
go test -run '^$' -fuzz '^FuzzDecodeSession$' -fuzztime 5s ./internal/serve

echo "== adjacency fuzz (hub-indexed add / delete / lookup vs a map oracle; bulk build vs AddEdge; 5 s each) =="
go test -run '^$' -fuzz '^FuzzHubAdjacency$' -fuzztime 5s ./internal/graph
go test -run '^$' -fuzz '^FuzzFromEdges$' -fuzztime 5s ./internal/graph

echo "== removed flags and figures (one binary, one runtime, one scheduler, one batch path, one link timing, no hub replication) =="
flagtmp=$(mktemp -d)
go build -o "$flagtmp/graphfly" ./cmd/graphfly
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
expect_unknown_flag sched "$flagtmp/graphfly" serve -sched x
expect_unknown_flag denseoff "$flagtmp/bench" -denseoff
expect_unknown_flag connect-timeout "$flagtmp/graphfly" worker -connect-timeout 1s
expect_unknown_flag heartbeat "$flagtmp/graphfly" worker -heartbeat 1s
expect_unknown_flag peer-timeout "$flagtmp/graphfly" worker -peer-timeout 1s
expect_unknown_flag retrans-base "$flagtmp/graphfly" worker -retrans-base 1s
expect_unknown_flag max-retries "$flagtmp/graphfly" worker -max-retries 3
# retired with the one binary: the WAL is on iff -waldir is set, -cluster
# puts its workers under -waldir and starts them from its own executable,
# and query takes its op as an argument
expect_unknown_flag wal "$flagtmp/graphfly" -wal
expect_unknown_flag clusterDir "$flagtmp/graphfly" -clusterDir x
expect_unknown_flag workerBin "$flagtmp/graphfly" -workerBin x
expect_unknown_flag client "$flagtmp/graphfly" query -client ingest
expect_unknown_flag quiet "$flagtmp/graphfly" worker -quiet
# retired with hub replication (graphfly's -hub-threshold stays: it tunes
# the adjacency hub index)
expect_unknown_flag replicate-hubs "$flagtmp/graphfly" -replicate-hubs
expect_unknown_flag hub-replicas "$flagtmp/graphfly" -hub-replicas 2
expect_unknown_flag hub-replicas "$flagtmp/bench" -hub-replicas 2
expect_unknown_flag hub-threshold "$flagtmp/bench" -hub-threshold 16
# retired with the machine-readable bench report
expect_unknown_flag json "$flagtmp/bench" -json
expect_unknown_flag out "$flagtmp/bench" -out x.json
expect_exit2() { # $1 = stderr pattern, $2... = command
    local want=$1 rc=0
    shift
    "$@" > /dev/null 2> "$flagtmp/err" || rc=$?
    if [ "$rc" != 2 ] || ! grep -q "$want" "$flagtmp/err"; then
        echo "$*: want exit 2 with '$want', got exit $rc:" >&2
        cat "$flagtmp/err" >&2
        exit 1
    fi
}
expect_exit2 'unknown figure' "$flagtmp/bench" -fig s2
expect_exit2 'unknown figure' "$flagtmp/bench" -fig s7
expect_exit2 'unknown subcommand' "$flagtmp/graphfly" graphflyd
rm -rf "$flagtmp"

# serving_smoke <snapshot-every>: at 1 every batch hands a snapshot to the
# background writer, so captures queue behind one in flight (the wait path)
# and SIGTERM's drain lands on a writer mid-snapshot.
serving_smoke() {
echo "== graphfly serve smoke, -snapshot-every $1 (concurrent ingest+query, SIGTERM, restart, oracle) =="
servetmp=$(mktemp -d)
dpid=""
cleanup_serve() { [ -n "$dpid" ] && kill "$dpid" 2>/dev/null || true; rm -rf "$servetmp"; }
trap cleanup_serve EXIT
go build -o "$servetmp/graphfly" ./cmd/graphfly
workload=(-dataset LJ -nEdges 400 -deletions 0.1 -seed 42)
common=(-algo SSSP "${workload[@]}")
wait_listening() { # $1 = server.out; sets $addr
    addr=""
    for _ in $(seq 1 100); do
        # the backgrounded server opens its log itself: it may not exist yet
        addr=$(sed -n 's/^graphflyd listening on \([0-9.:]*\) .*/\1/p' "$1" 2>/dev/null) || true
        [ -n "$addr" ] && return 0
        sleep 0.1
    done
    echo "graphfly serve never came up:" >&2; cat "$1" >&2; return 1
}
"$servetmp/graphfly" serve "${common[@]}" -waldir "$servetmp/wal" -addr 127.0.0.1:0 \
    -fsync always -snapshot-every "$1" > "$servetmp/server1.out" 2>&1 &
dpid=$!
wait_listening "$servetmp/server1.out"
"$servetmp/graphfly" query ingest "${workload[@]}" -addr "$addr" \
    -numberOfUpdateBatches 6 > "$servetmp/ingest.out" 2>&1 &
ipid=$!
# a second, concurrent session queries while the ingest session runs
"$servetmp/graphfly" query stat -addr "$addr" > /dev/null
"$servetmp/graphfly" query topk -addr "$addr" -k 5 > /dev/null
wait "$ipid"
[ "$(grep -c '^ingested batch' "$servetmp/ingest.out")" = 6 ]
kill -TERM "$dpid"
wait "$dpid"
grep -q 'drained: durable through seq 6' "$servetmp/server1.out"
# restart over the same WAL: recovery must cover every acknowledged batch,
# and the served state must byte-match a single-shot oracle run
"$servetmp/graphfly" serve "${common[@]}" -waldir "$servetmp/wal" -addr 127.0.0.1:0 \
    -fsync always -snapshot-every "$1" > "$servetmp/server2.out" 2>&1 &
dpid=$!
wait_listening "$servetmp/server2.out"
grep -q 'replayed [0-9]* batches to seq 6' "$servetmp/server2.out"
"$servetmp/graphfly" query dump -addr "$addr" -o "$servetmp/served.txt"
kill -TERM "$dpid"
wait "$dpid"
dpid=""
"$servetmp/graphfly" "${common[@]}" -numberOfUpdateBatches 6 \
    -outputFile "$servetmp/oracle.txt" > /dev/null
cmp "$servetmp/served.txt" "$servetmp/oracle.txt"
rm -rf "$servetmp"
trap - EXIT
}
serving_smoke 4
serving_smoke 1

echo "== serving-chaos smoke (faultproxy resets, client resume, dump vs oracle) =="
chaostmp=$(mktemp -d)
dpid=""; ppid=""
cleanup_chaos() {
    [ -n "$dpid" ] && kill "$dpid" 2>/dev/null || true
    [ -n "$ppid" ] && kill "$ppid" 2>/dev/null || true
    rm -rf "$chaostmp"
}
trap cleanup_chaos EXIT
go build -o "$chaostmp/graphfly" ./cmd/graphfly
go build -o "$chaostmp/faultproxy" ./cmd/faultproxy
workload=(-dataset LJ -nEdges 400 -deletions 0.1 -seed 42)
common=(-algo SSSP "${workload[@]}")
wait_line() { # $1 = logfile, $2 = sed extraction pattern; sets $addr
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n "$2" "$1" 2>/dev/null) || true # the log may not exist yet
        [ -n "$addr" ] && return 0
        sleep 0.1
    done
    echo "server/proxy never came up:" >&2; cat "$1" >&2; return 1
}
"$chaostmp/graphfly" serve "${common[@]}" -waldir "$chaostmp/wal" -addr 127.0.0.1:0 \
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
"$chaostmp/graphfly" query ingest "${workload[@]}" -client-id chaos-smoke \
    -addr "$addr" -numberOfUpdateBatches 6 > "$chaostmp/ingest.out" 2>&1
[ "$(grep -c '^ingested batch' "$chaostmp/ingest.out")" = 6 ]
grep -q 'seq=6' "$chaostmp/ingest.out" # no duplicate applies shifted the ledger
kill "$ppid"; wait "$ppid" 2>/dev/null || true; ppid=""
# an ack follows the durable log, not the apply (DESIGN.md "Consistent
# reads"; batch 4 also writes a WAL snapshot inside the applier): wait until
# batch 6 is visible, and fail if it never is
applied=""
for _ in $(seq 1 100); do
    if "$chaostmp/graphfly" query stat -addr "$daddr" | grep -q '^applied seq 6,'; then
        applied=1; break
    fi
    sleep 0.1
done
[ -n "$applied" ] || { echo "graphfly serve never applied batch 6" >&2; exit 1; }
# dump straight from the daemon (not through the dead proxy) vs the oracle
"$chaostmp/graphfly" query dump -addr "$daddr" -o "$chaostmp/served.txt"
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
"$chaostmp/graphfly" serve "${common[@]}" -waldir "$chaostmp/wal2" -addr 127.0.0.1:0 \
    -fsync always -diskfault after=4,count=1,err=enospc -metrics \
    > "$chaostmp/server2.out" 2>&1 &
dpid=$!
wait_line "$chaostmp/server2.out" 's/^graphflyd listening on \([0-9.:]*\) .*/\1/p'
"$chaostmp/graphfly" query ingest "${workload[@]}" -client-id degraded-smoke \
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

echo "== bench smoke (Fig 11 text tables, so cmd/bench cannot rot) =="
GOMAXPROCS=1 go run ./cmd/bench -fig 11 -edgecap 8000 -batch 500 -batches 2 > /dev/null

echo "== bench smoke (Fig 16 loopback cluster + Fig 17 core sweep, both measured) =="
go run ./cmd/bench -fig 16,17 -edgecap 8000 -batch 500 -batches 2 > /dev/null

echo "== flow-derivation and bulk-build microbenchmark smokes (one iteration each, so they cannot rot) =="
go test -run '^$' -bench 'BenchmarkRepartition' -benchtime 1x .
go test -run '^$' -bench 'BenchmarkFromEdges' -benchtime 1x -benchmem ./internal/graph

echo "== size (what every simplicity PR quotes) =="
echo "non-test Go lines outside benchmark/: $(find . -name '*.go' -not -name '*_test.go' \
    -not -path './benchmark/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l)"
# A definition on the package flag set or on a subcommand's FlagSet (fs).
echo "flag definitions under cmd/: $(grep -rhoE '\b(flag|fs)\.((Bool|Int|Int64|Uint|Uint64|Float64|String|Duration)(Var)?|Var|Func|BoolFunc|TextVar)\(' cmd | wc -l)"

echo "OK"
