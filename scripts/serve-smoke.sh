#!/bin/sh
# serve-smoke.sh — end-to-end smoke test of the serving subsystem, in four
# phases:
#
#   1. Single server: start mpdata-serve on a random port, push one small job
#      per strategy through it with mpdata-load, assert the server-side
#      metrics report zero failures and count the bytes of the cached
#      engines and of the slots' scratch arenas, serve one periodic islands
#      job whose parts end in a one-plane block and require the original
#      arm's checksum sum, then SIGTERM the server and require a clean drain
#      (exit 0).
#   2. Fleet: start two replicas and an mpdata-router on random ports, drive
#      mixed traffic through the router, kill -9 one replica once it runs a
#      job, and assert zero failed jobs and at least one reroute in the
#      router's /metrics (every affected job rerouted and re-run), the dead
#      replica evicted from membership, and a clean SIGTERM drain of the
#      router.
#   3. Streaming (docs/STREAMING.md): start a server with a 1 MiB default
#      stream budget, push a batch of streamed jobs whose domains exceed the
#      budget several times over (>= 4 tiles each) and require that their
#      unsynced scratch stores left the disk-bandwidth gauge at 0, then kill
#      -9 the server mid-way through a long durable streamed job, restart it
#      on the same spill directory, resubmit the same stream_id, and assert
#      the job completes with zero failures from the surviving checkpoint and
#      moves the gauge above 0.
#   4. Solver catalog (docs/SOLVERS.md): submit one job per catalog solver
#      through a router and assert each succeeded, with the replica's
#      per-solver metric labels accounting for every entry.
#
# Usage:
#
#   scripts/serve-smoke.sh [jobs]
#
# JOBS (argument or env) is the phase-1 job count (default 8: two rounds over
# the four strategies, so the second round must hit the schedule cache).
set -eu
cd "$(dirname "$0")/.." || exit 1

jobs=${1:-${JOBS:-8}}
fleet_jobs=${FLEET_JOBS:-16}
bindir=$(mktemp -d)
pids=""

cleanup() {
    for pid in $pids; do
        if kill -0 "$pid" 2>/dev/null; then
            kill -9 "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$bindir"
}
trap cleanup EXIT

go build -o "$bindir/mpdata-serve" ./cmd/mpdata-serve
go build -o "$bindir/mpdata-router" ./cmd/mpdata-router
go build -o "$bindir/mpdata-load" ./cmd/mpdata-load

# scrape_url LOG PID PREFIX: wait for "PREFIX: listening on http://HOST:PORT"
# in LOG and print the URL (both binaries log the same machine-readable line).
scrape_url() {
    _log=$1
    _pid=$2
    _prefix=$3
    _url=""
    for _ in $(seq 1 100); do
        _url=$(sed -n "s/^$_prefix: listening on \\(http:\\/\\/[^ ]*\\).*/\\1/p" "$_log" | head -n1)
        [ -n "$_url" ] && break
        if ! kill -0 "$_pid" 2>/dev/null; then
            echo "serve-smoke: $_prefix died on startup:" >&2
            cat "$_log" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "$_url" ]; then
        echo "serve-smoke: $_prefix never reported its listen address" >&2
        cat "$_log" >&2
        exit 1
    fi
    echo "$_url"
}

# metric_value URL SERIES: print one exposition sample's value.
metric_value() {
    curl -fsS "$1/metrics" | awk -v s="$2" '$1 == s {print $2}'
}

# serve_sum URL SPEC: run one job spec through the server, require that it
# succeeded, and print its checksum sum as the server encoded it.
serve_sum() {
    _id=$(curl -fsS -XPOST "$1/v1/jobs" -d "$2" | sed -n 's/^  "id": "\(.*\)",$/\1/p')
    _res=""
    for _ in $(seq 1 300); do
        _res=$(curl -fsS "$1/v1/jobs/$_id/result" 2>/dev/null) && break
        sleep 0.1
    done
    if ! echo "$_res" | grep -q '"state": "succeeded"'; then
        echo "serve-smoke: job $_id ($2) did not succeed: $_res" >&2
        exit 1
    fi
    echo "$_res" | sed -n 's/^ *"sum": \([^,]*\),$/\1/p' | head -n1
}

# ---------------------------------------------------------------- phase 1 --

log="$bindir/serve.log"
"$bindir/mpdata-serve" -addr 127.0.0.1:0 -slots 2 >"$log" 2>&1 &
server_pid=$!
pids="$server_pid"
url=$(scrape_url "$log" "$server_pid" mpdata-serve)
echo "serve-smoke: server at $url (pid $server_pid), running $jobs jobs"

# One small job per strategy (round robin over all four), 4 clients.
"$bindir/mpdata-load" -addr "$url" -jobs "$jobs" -concurrency 4 \
    -grids 48x32x8 -steps 3 -p 2

# The server's own counters must agree: every submission succeeded.
failed=$(metric_value "$url" serve_jobs_failed_total)
succeeded=$(metric_value "$url" serve_jobs_succeeded_total)
if [ "$failed" != "0" ]; then
    echo "serve-smoke: server reports $failed failed jobs" >&2
    exit 1
fi
if [ "$succeeded" != "$jobs" ]; then
    echo "serve-smoke: server reports $succeeded succeeded jobs, want $jobs" >&2
    exit 1
fi
# The idle cached engines hold their state and the slots' arenas the stage
# scratch: after the jobs, both are counted.
cache_bytes=$(metric_value "$url" serve_schedule_cache_bytes)
scratch_bytes=$(metric_value "$url" serve_slot_scratch_bytes)
if [ "${cache_bytes:-0}" = "0" ] || [ "${scratch_bytes:-0}" = "0" ]; then
    echo "serve-smoke: cached engines hold ${cache_bytes:-?} bytes, slot arenas ${scratch_bytes:-?}; want both above 0" >&2
    exit 1
fi

# The periodic seam on this runner's shape: a 26-plane grid without block_i
# leaves each island part ending in a one-plane block at host-cache widths.
# The islands job must sum to the bits of the unblocked original job.
seam='"grid":"26x128x16","steps":3,"processors":2,"boundary":"periodic"'
islands_sum=$(serve_sum "$url" "{$seam,\"strategy\":\"islands\"}")
original_sum=$(serve_sum "$url" "{$seam,\"strategy\":\"original\"}")
if [ -z "$islands_sum" ] || [ "$islands_sum" != "$original_sum" ]; then
    echo "serve-smoke: periodic 26x128x16 islands sum $islands_sum, original $original_sum" >&2
    exit 1
fi

# Graceful drain: SIGTERM must exit 0 and log the clean-drain line.
kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
if [ "$rc" != "0" ]; then
    echo "serve-smoke: server exited $rc after SIGTERM" >&2
    cat "$log" >&2
    exit 1
fi
if ! grep -q "drained cleanly" "$log"; then
    echo "serve-smoke: no clean-drain log line" >&2
    cat "$log" >&2
    exit 1
fi
pids=""
echo "serve-smoke: phase 1 OK ($succeeded jobs, periodic seam sum $islands_sum on both arms, clean drain)"

# ---------------------------------------------------------------- phase 2 --

r1log="$bindir/replica1.log"
r2log="$bindir/replica2.log"
rtlog="$bindir/router.log"

"$bindir/mpdata-serve" -addr 127.0.0.1:0 -slots 2 >"$r1log" 2>&1 &
r1_pid=$!
pids="$r1_pid"
"$bindir/mpdata-serve" -addr 127.0.0.1:0 -slots 2 >"$r2log" 2>&1 &
r2_pid=$!
pids="$pids $r2_pid"
r1_url=$(scrape_url "$r1log" "$r1_pid" mpdata-serve)
r2_url=$(scrape_url "$r2log" "$r2_pid" mpdata-serve)

"$bindir/mpdata-router" -addr 127.0.0.1:0 -replicas "$r1_url,$r2_url" >"$rtlog" 2>&1 &
router_pid=$!
pids="$pids $router_pid"
router_url=$(scrape_url "$rtlog" "$router_pid" mpdata-router)
echo "serve-smoke: fleet router at $router_url over $r1_url + $r2_url"

# Mixed traffic through the router: two grids x four strategies, enough steps
# that the run spans the replica kill below. Generous retry budget: after the
# kill, half the fleet's capacity is gone and submissions may back off.
"$bindir/mpdata-load" -addr "$router_url" -jobs "$fleet_jobs" -concurrency 4 \
    -grids 48x32x8,32x32x16 -steps 25 -p 2 -retries 12 &
load_pid=$!
pids="$pids $load_pid"

# Kill one replica mid-run — kill -9, no drain — once its /metrics shows a
# running job: that job, and any queued on it, must be rerouted by the
# router, not lost.
busy=""
for _ in $(seq 1 200); do
    running=$(metric_value "$r1_url" serve_jobs_running 2>/dev/null || true)
    if [ -n "$running" ] && [ "$running" != "0" ]; then
        busy=1
        break
    fi
    sleep 0.05
done
if [ -z "$busy" ]; then
    echo "serve-smoke: replica 1 never showed a running job to be killed under" >&2
    exit 1
fi
kill -9 "$r1_pid" 2>/dev/null || true
echo "serve-smoke: killed replica 1 (pid $r1_pid) with $running job(s) running"

rc=0
wait "$load_pid" || rc=$?
pids="$r2_pid $router_pid"
if [ "$rc" != "0" ]; then
    echo "serve-smoke: fleet load run exited $rc after the replica kill" >&2
    cat "$rtlog" >&2
    exit 1
fi

# Router counters: every job terminal exactly once, none failed, and the
# dead replica evicted from the membership (healthy gauge down to 1).
failed=$(metric_value "$router_url" fleet_jobs_failed_total)
succeeded=$(metric_value "$router_url" fleet_jobs_succeeded_total)
if [ "$failed" != "0" ]; then
    echo "serve-smoke: router reports $failed failed jobs after the kill" >&2
    curl -fsS "$router_url/metrics" >&2
    exit 1
fi
if [ "$succeeded" != "$fleet_jobs" ]; then
    echo "serve-smoke: router reports $succeeded succeeded jobs, want $fleet_jobs" >&2
    curl -fsS "$router_url/metrics" >&2
    exit 1
fi
healthy=""
for _ in $(seq 1 50); do
    healthy=$(metric_value "$router_url" fleet_replicas_healthy)
    [ "$healthy" = "1" ] && break
    sleep 0.1
done
if [ "$healthy" != "1" ]; then
    echo "serve-smoke: fleet_replicas_healthy=$healthy, want 1 after the kill" >&2
    exit 1
fi
# The job replica 1 was running when it died must have been re-run elsewhere.
reroutes=$(metric_value "$router_url" fleet_reroutes_total)
if [ "$(awk -v r="$reroutes" 'BEGIN{print (r+0 >= 1) ? 1 : 0}')" != "1" ]; then
    echo "serve-smoke: fleet_reroutes_total=$reroutes, want >= 1 after killing a busy replica" >&2
    curl -fsS "$router_url/metrics" >&2
    exit 1
fi

# Graceful router drain: SIGTERM must exit 0 and log the clean-drain line.
kill -TERM "$router_pid"
rc=0
wait "$router_pid" || rc=$?
if [ "$rc" != "0" ]; then
    echo "serve-smoke: router exited $rc after SIGTERM" >&2
    cat "$rtlog" >&2
    exit 1
fi
if ! grep -q "drained cleanly" "$rtlog"; then
    echo "serve-smoke: no clean-drain line in the router log" >&2
    cat "$rtlog" >&2
    exit 1
fi
kill -TERM "$r2_pid" 2>/dev/null || true
wait "$r2_pid" 2>/dev/null || true
pids=""
echo "serve-smoke: phase 2 OK ($succeeded jobs, $reroutes reroutes, replica kill survived, clean drain)"

# ---------------------------------------------------------------- phase 3 --

spill="$bindir/spill"
stlog="$bindir/stream.log"
"$bindir/mpdata-serve" -addr 127.0.0.1:0 -slots 2 \
    -spill-dir "$spill" -stream-budget-mb 1 >"$stlog" 2>&1 &
stream_pid=$!
pids="$stream_pid"
st_url=$(scrape_url "$stlog" "$stream_pid" mpdata-serve)
echo "serve-smoke: streaming server at $st_url (spill $spill, 1 MiB budget)"

# 3a: a batch of anonymous streamed jobs. Each 128x16x16 domain needs several
# MiB resident, so the 1 MiB budget forces >= 4 tiles per sweep per job.
stream_jobs=${STREAM_JOBS:-4}
"$bindir/mpdata-load" -addr "$st_url" -jobs "$stream_jobs" -concurrency 2 \
    -grids 128x16x16 -steps 3 -p 1 -strategies original \
    -streamed -budget-mb 1

failed=$(metric_value "$st_url" serve_jobs_failed_total)
sjobs=$(metric_value "$st_url" serve_stream_jobs_total)
stiles=$(metric_value "$st_url" serve_stream_tiles_total)
if [ "$failed" != "0" ]; then
    echo "serve-smoke: streaming server reports $failed failed jobs" >&2
    exit 1
fi
if [ "$sjobs" != "$stream_jobs" ]; then
    echo "serve-smoke: serve_stream_jobs_total=$sjobs, want $stream_jobs" >&2
    exit 1
fi
# >= 4 tiles x >= 1 sweep per job.
if [ "$(awk -v t="$stiles" -v j="$stream_jobs" 'BEGIN{print (t+0 >= 4*j) ? 1 : 0}')" != "1" ]; then
    echo "serve-smoke: serve_stream_tiles_total=$stiles, want >= $((4 * stream_jobs))" >&2
    exit 1
fi
# Anonymous streamed engines go back to the pool with their seeded stores: on
# two slots at most the first two jobs build one, every later job rewinds one.
shits=$(metric_value "$st_url" serve_schedule_cache_hits_total)
if [ "$(awk -v h="$shits" -v j="$stream_jobs" 'BEGIN{print (h+0 >= j-2) ? 1 : 0}')" != "1" ]; then
    echo "serve-smoke: serve_schedule_cache_hits_total=$shits, want >= $((stream_jobs - 2))" >&2
    exit 1
fi
# Anonymous stores are removed when their engine retires; only the spill root
# (and any durable stream-* stores) may remain.
leftovers=$(find "$spill" -maxdepth 1 -name 'job-*' 2>/dev/null | wc -l)
if [ "$leftovers" != "0" ]; then
    echo "serve-smoke: $leftovers anonymous tile stores leaked in $spill" >&2
    exit 1
fi
# Scratch stores are never synced, so their throughput is the page cache's:
# it must not reach the disk-bandwidth estimate that prices residencies.
diskbw=$(metric_value "$st_url" serve_stream_disk_bw_bytes)
if [ "$diskbw" != "0" ]; then
    echo "serve-smoke: serve_stream_disk_bw_bytes=$diskbw after anonymous jobs only, want 0" >&2
    exit 1
fi
echo "serve-smoke: phase 3a OK ($sjobs streamed jobs, $shits engine reuses, $stiles tile residencies, disk estimate untouched)"

# 3b: kill -9 the server mid-way through a long durable streamed job, then
# restart on the same spill directory and resubmit the same stream_id. The
# checkpointed store must survive the crash and the rerun must complete.
"$bindir/mpdata-load" -addr "$st_url" -jobs 1 -concurrency 1 \
    -grids 256x16x16 -steps 30 -p 1 -strategies original \
    -streamed -budget-mb 1 -stream-id smoke >"$bindir/stream-load1.log" 2>&1 &
load_pid=$!
pids="$pids $load_pid"

# Wait for tile progress well past the 3a baseline — usually a whole sweep —
# then pull the plug.
advanced=""
for _ in $(seq 1 200); do
    now=$(metric_value "$st_url" serve_stream_tiles_total 2>/dev/null || echo "$stiles")
    if [ "$(awk -v a="$now" -v b="$stiles" 'BEGIN{print (a+0 > b+26) ? 1 : 0}')" = "1" ]; then
        advanced=1
        break
    fi
    sleep 0.05
done
if [ -z "$advanced" ]; then
    echo "serve-smoke: durable streamed job never advanced past $stiles tiles" >&2
    cat "$bindir/stream-load1.log" >&2
    exit 1
fi
kill -9 "$stream_pid" 2>/dev/null || true
wait "$load_pid" 2>/dev/null || true
pids=""
echo "serve-smoke: killed streaming server (pid $stream_pid) mid-job"

if [ ! -f "$spill/stream-smoke-0/checkpoint.json" ]; then
    echo "serve-smoke: durable store $spill/stream-smoke-0 lost its checkpoint" >&2
    ls -la "$spill" >&2 || true
    exit 1
fi

"$bindir/mpdata-serve" -addr 127.0.0.1:0 -slots 2 \
    -spill-dir "$spill" -stream-budget-mb 1 >"$stlog" 2>&1 &
stream_pid=$!
pids="$stream_pid"
st_url=$(scrape_url "$stlog" "$stream_pid" mpdata-serve)

# Same spec + stream_id: the restarted server must adopt the checkpoint and
# finish the job (exit 0 = zero failed).
"$bindir/mpdata-load" -addr "$st_url" -jobs 1 -concurrency 1 \
    -grids 256x16x16 -steps 30 -p 1 -strategies original \
    -streamed -budget-mb 1 -stream-id smoke

failed=$(metric_value "$st_url" serve_jobs_failed_total)
resumed=$(metric_value "$st_url" serve_stream_resumed_total)
diskbw=$(metric_value "$st_url" serve_stream_disk_bw_bytes)
if [ "$failed" != "0" ]; then
    echo "serve-smoke: restarted streaming server reports $failed failed jobs" >&2
    exit 1
fi
# The durable store's throughput is the device's: it feeds the estimate.
if [ "$(awk -v b="$diskbw" 'BEGIN{print (b+0 > 0) ? 1 : 0}')" != "1" ]; then
    echo "serve-smoke: serve_stream_disk_bw_bytes=$diskbw after the durable job, want > 0" >&2
    exit 1
fi

kill -TERM "$stream_pid"
rc=0
wait "$stream_pid" || rc=$?
if [ "$rc" != "0" ]; then
    echo "serve-smoke: streaming server exited $rc after SIGTERM" >&2
    cat "$stlog" >&2
    exit 1
fi
if ! grep -q "drained cleanly" "$stlog"; then
    echo "serve-smoke: no clean-drain line in the streaming server log" >&2
    cat "$stlog" >&2
    exit 1
fi
pids=""
echo "serve-smoke: phase 3 OK (crash survived, resumed_total=$resumed, disk estimate $diskbw B/s, clean drain)"

# ---------------------------------------------------------------- phase 4 --
# Solver catalog: one job per catalog entry through the router. Every solver
# must serve end-to-end — solver-aware cache keys and routing hash — and the
# replica's per-solver metric labels must account for each of them.

# The catalog's names come from mpdata-sim's unknown-solver diagnostic,
# "... (catalog: mpdata, gcr, ...)", which its reject_solver golden pins.
go build -o "$bindir/mpdata-sim" ./cmd/mpdata-sim
catalog=$("$bindir/mpdata-sim" -solver '?' 2>&1 | sed -n 's/.*(catalog: \(.*\))$/\1/p' | tr -d ,)

# Solvers that pack components along k need their own grid (docs/SOLVERS.md);
# everything else runs the shared phase-1 grid.
solver_grid() {
    case $1 in
        lbm)  echo 48x32x9 ;;
        swe)  echo 48x48x3 ;;
        wave) echo 48x48x2 ;;
        life) echo 48x48x1 ;;
        *)    echo 48x32x8 ;;
    esac
}

s4log="$bindir/solver-replica.log"
s4rtlog="$bindir/solver-router.log"
"$bindir/mpdata-serve" -addr 127.0.0.1:0 -slots 2 >"$s4log" 2>&1 &
s4_pid=$!
pids="$s4_pid"
s4_url=$(scrape_url "$s4log" "$s4_pid" mpdata-serve)
"$bindir/mpdata-router" -addr 127.0.0.1:0 -replicas "$s4_url" >"$s4rtlog" 2>&1 &
s4rt_pid=$!
pids="$pids $s4rt_pid"
s4rt_url=$(scrape_url "$s4rtlog" "$s4rt_pid" mpdata-router)
echo "serve-smoke: solver-catalog router at $s4rt_url over $s4_url"

solver_jobs=0
for sv in $catalog; do
    "$bindir/mpdata-load" -addr "$s4rt_url" -jobs 1 -concurrency 1 \
        -grids "$(solver_grid "$sv")" -steps 3 -p 2 -strategies islands \
        -solvers "$sv"
    solver_jobs=$((solver_jobs + 1))
done
if [ "$solver_jobs" -lt 5 ]; then
    echo "serve-smoke: catalog listed only $solver_jobs solvers, want >= 5" >&2
    exit 1
fi

failed=$(metric_value "$s4rt_url" fleet_jobs_failed_total)
succeeded=$(metric_value "$s4rt_url" fleet_jobs_succeeded_total)
if [ "$failed" != "0" ]; then
    echo "serve-smoke: solver-catalog router reports $failed failed jobs" >&2
    exit 1
fi
if [ "$succeeded" != "$solver_jobs" ]; then
    echo "serve-smoke: router reports $succeeded succeeded jobs, want $solver_jobs" >&2
    exit 1
fi
# Per-solver labels on the replica: exactly one succeeded job per entry.
for sv in $catalog; do
    v=$(curl -fsS "$s4_url/metrics" |
        awk -v s="serve_jobs_succeeded_total{solver=\"$sv\"}" '$1 == s {print $2}')
    if [ "$v" != "1" ]; then
        echo "serve-smoke: serve_jobs_succeeded_total{solver=\"$sv\"}=$v, want 1" >&2
        curl -fsS "$s4_url/metrics" | grep '^serve_jobs' >&2 || true
        exit 1
    fi
done

kill -TERM "$s4rt_pid"
rc=0
wait "$s4rt_pid" || rc=$?
if [ "$rc" != "0" ]; then
    echo "serve-smoke: solver-catalog router exited $rc after SIGTERM" >&2
    cat "$s4rtlog" >&2
    exit 1
fi
kill -TERM "$s4_pid" 2>/dev/null || true
wait "$s4_pid" 2>/dev/null || true
pids=""
echo "serve-smoke: phase 4 OK ($solver_jobs catalog solvers served through the router)"
