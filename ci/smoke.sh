#!/usr/bin/env bash
# End-to-end smokes of the run_experiments binary: result cache, process
# and remote backends, the scale scenario, thread budgets, the daemon and
# fault injection. Each smoke runs in its own temporary directory; the
# script builds the binary once, takes no flags, and stops every daemon
# and worker host it started when it exits.
#
# Usage: ci/smoke.sh
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=$(mktemp -d)

cleanup() {
    local status=$?
    local pids
    pids=$(jobs -p)
    [ -z "$pids" ] || kill $pids 2> /dev/null || true
    wait 2> /dev/null || true
    if [ "$status" -ne 0 ]; then
        echo "smoke failed (exit $status) in $PWD; its logs:" >&2
        tail -n 20 ./*.log >&2 2> /dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

# Enters a fresh directory for one smoke, in which
# ./target/release/run_experiments is the one build.
enter() {
    echo "=== $1"
    mkdir -p "$WORK/$1/target/release"
    ln -s "$ROOT/target/release/run_experiments" "$WORK/$1/target/release/run_experiments"
    cd "$WORK/$1"
}

cache_smoke() {
    enter cache
    # Cold run (populates the cache)
    ./target/release/run_experiments --only fig6 --jobs 2 \
        --cache-dir exp-cache --out cold-results 2> cold.log
    cat cold.log
    grep -q 'cache: 0 hit(s), 15 miss(es), 0 invalidated' cold.log
    # Warm run (must be all hits)
    ./target/release/run_experiments --only fig6 --jobs 2 \
        --cache-dir exp-cache --out warm-results 2> warm.log
    cat warm.log
    grep -q 'cache: 15 hit(s), 0 miss(es), 0 invalidated' warm.log
    cmp cold-results/summary.json warm-results/summary.json
}

process_backend_smoke() {
    enter process-backend
    # Cold run on the process backend (worker subprocesses)
    ./target/release/run_experiments --only fig6 --jobs 2 \
        --backend process \
        --cache-dir exp-cache --out proc-results 2> proc.log
    cat proc.log
    grep -q 'cache: 0 hit(s), 15 miss(es), 0 invalidated' proc.log
    # Warm run on the local backend (same cache, must be all hits)
    ./target/release/run_experiments --only fig6 --jobs 2 \
        --backend local \
        --cache-dir exp-cache --out local-results 2> local.log
    cat local.log
    grep -q 'cache: 15 hit(s), 0 miss(es), 0 invalidated' local.log
    cmp proc-results/summary.json local-results/summary.json
}

scale_smoke() {
    enter scale
    # Cold scale run (single 2000-node part, batched waves)
    ./target/release/run_experiments --only scale --jobs 2 \
        --set n=2000 --set waves=4 \
        --cache-dir scale-cache --out scale-cold 2> cold.log
    cat cold.log
    grep -q 'cache: 0 hit(s), 1 miss(es), 0 invalidated' cold.log
    # Warm scale run (must replay from cache)
    ./target/release/run_experiments --only scale --jobs 2 \
        --set n=2000 --set waves=4 \
        --cache-dir scale-cache --out scale-warm 2> warm.log
    cat warm.log
    grep -q 'cache: 1 hit(s), 0 miss(es), 0 invalidated' warm.log
    cmp scale-cold/summary.json scale-warm/summary.json
}

service_smoke() {
    enter service
    # One set of job flags for both front ends: the cmp below proves the
    # one-shot run and `submit` parse them into the same job. The seed
    # is not the default, so a flag dropped on either side shows.
    local JOB_FLAGS="--only fig6 --jobs 2 --seed 7"
    ./target/release/run_experiments serve \
        --socket svc.sock --cache-dir svc-cache > /dev/null 2> serve.log &
    local SERVE_PID=$!
    for i in $(seq 1 100); do
        [ -S svc.sock ] && break
        sleep 0.1
    done
    [ -S svc.sock ]
    # Cold submission (populates the shared cache)
    ./target/release/run_experiments submit --socket svc.sock \
        $JOB_FLAGS --out svc-cold 2> submit-cold.log
    cat submit-cold.log
    grep -q 'cache: 0 hit(s), 15 miss(es), 0 invalidated' submit-cold.log
    # Warm submission (must be all hits)
    ./target/release/run_experiments submit --socket svc.sock \
        $JOB_FLAGS --out svc-warm 2> submit-warm.log
    cat submit-warm.log
    grep -q 'cache: 15 hit(s), 0 miss(es), 0 invalidated' submit-warm.log
    # Job table shows both jobs done
    ./target/release/run_experiments status --socket svc.sock | tee status.json
    grep -c '"Done"' status.json | grep -qx 2
    # One-shot reference run (no daemon involved)
    ./target/release/run_experiments $JOB_FLAGS --out one-shot
    cmp svc-cold/summary.json svc-warm/summary.json
    cmp svc-cold/summary.json one-shot/summary.json
    # Process-backend submission matches the one-shot run
    ./target/release/run_experiments submit --socket svc.sock \
        $JOB_FLAGS --backend process --refresh --out svc-process
    cmp svc-process/summary.json one-shot/summary.json
    # SIGTERM drains the daemon and it exits 0
    kill -TERM "$SERVE_PID"
    wait "$SERVE_PID"
    cat serve.log
    [ ! -S svc.sock ]
}

threads_per_item_smoke() {
    enter threads-per-item
    ./target/release/run_experiments --only scale --jobs 2 \
        --set n=2000 --set waves=4 \
        --threads-per-item 1 --out threads-1
    ./target/release/run_experiments --only scale --jobs 2 \
        --set n=2000 --set waves=4 \
        --threads-per-item 4 --out threads-4
    cmp threads-1/summary.json threads-4/summary.json
}

scale_shard_smoke() {
    enter scale-shard
    # Sharded construction + partitioned wave repair: worker threads
    # steal shards, the fixed grid defines the RNG streams — so a cold
    # (cache-bypassing) run must produce the same bytes at any
    # shard-worker count.
    # (`--set shards=8` pins a multi-shard grid: 2000 nodes is below the
    # population gate and would otherwise default to a single shard.)
    ./target/release/run_experiments --only scale \
        --set n=2000 --set waves=4 --set shards=8 \
        --threads-per-item 1 --no-cache --out shard-workers-1
    ./target/release/run_experiments --only scale \
        --set n=2000 --set waves=4 --set shards=8 \
        --threads-per-item 4 --no-cache --out shard-workers-4
    cmp shard-workers-1/summary.json shard-workers-4/summary.json
}

remote_backend_smoke() {
    enter remote-backend
    # Two loopback worker hosts on ephemeral ports; each prints its
    # bound address as its first stdout line. The second host is rigged
    # to crash after its first completed item — the dispatcher must
    # re-queue its in-flight work on the survivor and still finish.
    ./target/release/run_experiments serve-worker \
        --listen 127.0.0.1:0 > workerA.addr 2> workerA.log &
    ONIONBOTS_WORKER_CRASH_AFTER_ITEMS=1 \
        ./target/release/run_experiments serve-worker \
        --listen 127.0.0.1:0 > workerB.addr 2> workerB.log &
    for i in $(seq 1 100); do
        [ -s workerA.addr ] && [ -s workerB.addr ] && break
        sleep 0.1
    done
    # One check per line: errexit ignores all but the last command of an
    # `a && b` list.
    [ -s workerA.addr ]
    [ -s workerB.addr ]
    cat workerA.addr workerB.addr
    # Cold run on the remote backend (survives the host kill)
    ./target/release/run_experiments --only fig6,scale --jobs 2 \
        --set n=2000 --set waves=4 \
        --backend remote \
        --worker "$(cat workerA.addr)" --worker "$(cat workerB.addr)" \
        --cache-dir remote-cache --out remote-results 2> remote.log
    cat workerB.log remote.log
    grep -q 'cache: 0 hit(s), 16 miss(es), 0 invalidated' remote.log
    # Warm run on the local backend (same cache, must be all hits)
    ./target/release/run_experiments --only fig6,scale --jobs 2 \
        --set n=2000 --set waves=4 \
        --backend local \
        --cache-dir remote-cache --out local-results 2> local.log
    cat local.log
    grep -q 'cache: 16 hit(s), 0 miss(es), 0 invalidated' local.log
    cmp remote-results/summary.json local-results/summary.json
}

chaos_smoke() {
    enter chaos
    # Fault-free reference run (local backend, no cache)
    ./target/release/run_experiments --only fig6,scale --jobs 2 \
        --set n=2000 --set waves=4 \
        --no-cache --out chaos-reference
    # Three loopback hosts: one clean, one rigged to hang after its
    # second item (the dispatcher must abandon it at the deadline), one
    # rigged to crash on its first item (its work must re-queue). The
    # run is wrapped in a watchdog: a hang here is a regression, not a
    # flake.
    ./target/release/run_experiments serve-worker \
        --listen 127.0.0.1:0 > workerA.addr 2> workerA.log &
    ONIONBOTS_FAULTS='remote.host.item=hang@2' \
        ./target/release/run_experiments serve-worker \
        --listen 127.0.0.1:0 > workerB.addr 2> workerB.log &
    ONIONBOTS_FAULTS='remote.host.item=crash@1' \
        ./target/release/run_experiments serve-worker \
        --listen 127.0.0.1:0 > workerC.addr 2> workerC.log &
    for i in $(seq 1 100); do
        [ -s workerA.addr ] && [ -s workerB.addr ] && [ -s workerC.addr ] && break
        sleep 0.1
    done
    [ -s workerA.addr ]
    [ -s workerB.addr ]
    [ -s workerC.addr ]
    cat workerA.addr workerB.addr workerC.addr
    timeout 120 ./target/release/run_experiments \
        --only fig6,scale --jobs 2 \
        --set n=2000 --set waves=4 \
        --backend remote --remote-deadline-ms 2000 \
        --worker "$(cat workerA.addr)" --worker "$(cat workerB.addr)" \
        --worker "$(cat workerC.addr)" \
        --cache-dir chaos-cache --out chaos-remote 2> chaos.log
    cat workerB.log workerC.log chaos.log
    cmp chaos-reference/summary.json chaos-remote/summary.json
    # Warm replay proves the chaos run never poisoned the cache
    ./target/release/run_experiments --only fig6,scale --jobs 2 \
        --set n=2000 --set waves=4 \
        --backend local \
        --cache-dir chaos-cache --out chaos-warm 2> warm.log
    cat warm.log
    grep -q 'cache: 16 hit(s), 0 miss(es), 0 invalidated' warm.log
    cmp chaos-reference/summary.json chaos-warm/summary.json

    # Admission control: a --max-jobs 1 daemon whose first job is held
    # in Running by a seeded delay must answer a second submission with
    # a Rejected frame (clean refusal, not a queue or a hang), then
    # accept the same job once the slot frees.
    ONIONBOTS_FAULTS='service.job=delay:3000@1' \
        ./target/release/run_experiments serve \
        --socket chaos.sock --cache-dir chaos-svc-cache \
        --max-jobs 1 > /dev/null 2> serve.log &
    local SERVE_PID=$!
    for i in $(seq 1 100); do
        [ -S chaos.sock ] && break
        sleep 0.1
    done
    [ -S chaos.sock ]
    timeout 120 ./target/release/run_experiments submit --socket chaos.sock \
        --only fig6 --jobs 2 --out probe-a 2> submit-a.log &
    local SUBMIT_PID=$!
    sleep 1
    if timeout 30 ./target/release/run_experiments submit --socket chaos.sock \
        --only fig6 --jobs 2 --out probe-b 2> submit-b.log; then
        echo 'second submission should have been refused'
        exit 1
    fi
    cat submit-b.log
    grep -q 'refused' submit-b.log
    wait "$SUBMIT_PID"
    cat submit-a.log
    timeout 120 ./target/release/run_experiments submit --socket chaos.sock \
        --only fig6 --jobs 2 --out probe-b 2> submit-b2.log
    cat submit-b2.log
    cmp probe-a/summary.json probe-b/summary.json
    kill -TERM "$SERVE_PID"
}

(cd "$ROOT" && cargo build --release -p onionbots-bench --bin run_experiments)
cache_smoke
process_backend_smoke
scale_smoke
service_smoke
threads_per_item_smoke
scale_shard_smoke
remote_backend_smoke
chaos_smoke
echo "all smokes passed"
