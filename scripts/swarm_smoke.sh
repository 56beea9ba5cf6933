#!/usr/bin/env bash
# Swarm smoke: boot 1 router + 2 WAL-backed group-partition nodes as
# REAL processes over localhost TCP, run a short open-loop swarm, and
# gate the resulting SLO report with dmps-swarm -check: it must parse,
# every mix must show zero errors, zero floor-exclusivity violations,
# and a finite, non-zero p99 grant latency.
#
# The lecture mix runs MULTI-PROCESS: two dmps-swarm shards split one
# seeded schedule (-shards 2 -shard i), synchronize t0 through the
# -barrier file handshake, pre-dial their fleets (-prealloc), and write
# per-shard reports that -merge folds back into one document — so every
# push exercises the sharded generator path end to end. The reconnect
# storm and the chaos failure drill (the group's owner is felled
# mid-floor-hold and restarted mid-mix) run single-process, and all
# three mixes merge into the one report CI uploads as an artifact.
#
# Every run traces: -trace stamps a sampled context on all requests and
# pools the fleet's /debug/traces flight recorders into the report's
# Stage/ breakdown, which the final check gates (≥ 5 stages with spans,
# p50 sum within 1.5× the measured grant p50).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_swarm_smoke.json}"

NODE0=127.0.0.1:7241
NODE1=127.0.0.1:7242
ROUTER=127.0.0.1:7240
NODES="$NODE0,$NODE1"
MET0=127.0.0.1:7251
MET1=127.0.0.1:7252
METR=127.0.0.1:7250
METRICS="$METR,$MET0,$MET1"

BIN="$(mktemp -d)"
RUN="$(mktemp -d)"
cleanup() {
    kill $(cat "$RUN"/node*.pid 2>/dev/null) 2>/dev/null || true
    kill "${PIDS[@]}" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$BIN" "$RUN"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/dmps-server ./cmd/dmps-router ./cmd/dmps-swarm

# node_ctl {start|kill} <idx>: the chaos mix's hooks restart the victim
# with the same flags and WAL dir, so the restart replays its journal.
cat > "$RUN/node_ctl" <<EOF
#!/usr/bin/env bash
set -euo pipefail
cmd="\$1"; i="\$2"
addrs=($NODE0 $NODE1)
mets=($MET0 $MET1)
case "\$cmd" in
start)
    "$BIN/dmps-server" -addr "\${addrs[\$i]}" -cluster "$NODES" -node "\$i" \
        -probe 100ms -rf 2 -wal "$RUN/wal/node\$i" -metrics "\${mets[\$i]}" &
    echo \$! > "$RUN/node\$i.pid"
    ;;
kill)
    kill -9 "\$(cat "$RUN/node\$i.pid")"
    ;;
esac
EOF
chmod +x "$RUN/node_ctl"

PIDS=()
for i in 0 1; do "$RUN/node_ctl" start "$i"; done
"$BIN/dmps-router" -addr "$ROUTER" -nodes "$NODES" -recover 500ms -metrics "$METR" &
PIDS+=($!)

for addr in "$NODE0" "$NODE1" "$ROUTER"; do
    for _ in $(seq 1 50); do
        if (exec 3<>"/dev/tcp/${addr%:*}/${addr#*:}") 2>/dev/null; then
            exec 3>&- || true
            continue 2
        fi
        sleep 0.1
    done
    echo "swarm_smoke: $addr never came up" >&2
    exit 1
done

# Multi-process lecture: two shards split the 200-op schedule (~100
# ops each), pre-dial their fleets, and gate t0 on the barrier files so
# the merged timeline is one schedule. Each shard's chair runs its own
# group; the merged report re-checks floor exclusivity over both.
SHARD_PIDS=()
for i in 0 1; do
    "$BIN/dmps-swarm" -addr "$ROUTER" -nodes "$NODES" \
        -mix lecture -members 6 -ops 200 -mean 20ms -settle 8s -seed 6 \
        -shards 2 -shard "$i" -barrier "$RUN/barrier" -prealloc \
        -trace "$METRICS" \
        -note "swarm smoke: lecture shard $i of 2" \
        -out "$RUN/lecture_shard$i.json" &
    SHARD_PIDS+=($!)
done
for pid in "${SHARD_PIDS[@]}"; do
    wait "$pid" || { echo "swarm_smoke: lecture shard failed" >&2; exit 1; }
done

# ~8s of single-process open-loop load for the failure drills: 200 ops
# per mix at a 20ms mean gap ≈ 4s of scheduled arrivals each, plus
# settle — the chaos mix spends part of its window felling and
# restarting the owner node. 200 ops means ~20 release/re-acquire floor
# probes per mix, so the p99 grant gates rest on a real sample
# population rather than two-sample noise.
"$BIN/dmps-swarm" -addr "$ROUTER" -nodes "$NODES" \
    -mix reconnect-storm,chaos -members 6 -ops 200 -mean 20ms \
    -settle 8s -seed 6 \
    -chaos-kill "$RUN/node_ctl kill \$DMPS_CHAOS_NODE" \
    -chaos-restart "$RUN/node_ctl start \$DMPS_CHAOS_NODE" \
    -trace "$METRICS" \
    -note "swarm smoke: router + 2 WAL-backed nodes over localhost TCP" \
    -out "$RUN/drills.json"

# One merged document: the sharded lecture plus the drill mixes.
"$BIN/dmps-swarm" -merge -out "$OUT" \
    "$RUN/lecture_shard0.json" "$RUN/lecture_shard1.json" "$RUN/drills.json"
# The errors=0 + zero-violations gates are the correctness signal; no
# latency trend is judged here (p99s from a few hundred ops on a shared
# runner cannot resolve one). -require-stages gates the tracing plane:
# the merged report must decompose the grant SLO into ≥ 5 stages with
# spans, whose p50 sum stays within 1.5× the measured grant p50.
"$BIN/dmps-swarm" -check "$OUT" -require-stages 5
echo "swarm_smoke: OK ($OUT)"
