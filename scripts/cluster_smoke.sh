#!/usr/bin/env bash
# Multi-process cluster smoke: boot 1 router + 3 WAL-backed
# group-partition nodes as REAL processes over localhost TCP, then run
# three drills CI depends on:
#
#   1. the quickstart flow across a partition boundary (cmd/dmps-smoke),
#      with the observability probe requiring the replication and WAL
#      series fleet-wide;
#   2. kill-owner-mid-flow: the swarm chaos mix fells the node owning
#      its group while the floor is held and chats are in flight, load
#      rides the failover onto the replica, the node is restarted, and
#      the router's -recover prober migrates its partitions home under
#      a new epoch — gated on zero errors, and on the tracing plane
#      having retained the drill's slow operations in at least one
#      surviving flight recorder's slow-op ring;
#   3. full-restart-replays-WAL: all three nodes are felled at once and
#      restarted on their same WAL dirs, and the fleet must serve the
#      whole quickstart flow again from its replayed journals.
set -euo pipefail
cd "$(dirname "$0")/.."

NODE0=127.0.0.1:7141
NODE1=127.0.0.1:7142
NODE2=127.0.0.1:7143
ROUTER=127.0.0.1:7140
NODES="$NODE0,$NODE1,$NODE2"
MET0=127.0.0.1:7151
MET1=127.0.0.1:7152
MET2=127.0.0.1:7153
METR=127.0.0.1:7150
METRICS="$METR,$MET0,$MET1,$MET2"

BIN="$(mktemp -d)"
RUN="$(mktemp -d)"
cleanup() {
    # Kill the whole tree; the trap runs on success and failure alike.
    kill $(cat "$RUN"/node*.pid 2>/dev/null) 2>/dev/null || true
    kill "${PIDS[@]}" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$BIN" "$RUN"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/dmps-server ./cmd/dmps-router ./cmd/dmps-smoke ./cmd/dmps-swarm

# node_ctl {start|kill} <idx>: chaos hooks and the restart drill both
# drive nodes through this, so every (re)start uses the same flags and
# the same per-node WAL dir — a restart replays what its predecessor
# journalled.
cat > "$RUN/node_ctl" <<EOF
#!/usr/bin/env bash
set -euo pipefail
cmd="\$1"; i="\$2"
addrs=($NODE0 $NODE1 $NODE2)
mets=($MET0 $MET1 $MET2)
case "\$cmd" in
start)
    "$BIN/dmps-server" -addr "\${addrs[\$i]}" -cluster "$NODES" -node "\$i" \
        -probe 100ms -rf 3 -wal "$RUN/wal/node\$i" -metrics "\${mets[\$i]}" &
    echo \$! > "$RUN/node\$i.pid"
    ;;
kill)
    pid="\$(cat "$RUN/node\$i.pid")"
    kill -9 "\$pid"
    # Wait for the process to be gone (a zombie has closed its sockets
    # too), so that a start right after can bind the same port.
    for _ in \$(seq 200); do
        stat="\$(ps -o stat= -p "\$pid" 2>/dev/null | tr -d " " || true)"
        if [ -z "\$stat" ] || [ "\${stat#Z}" != "\$stat" ]; then break; fi
        sleep 0.05
    done
    ;;
esac
EOF
chmod +x "$RUN/node_ctl"

wait_up() {
    for addr in "$@"; do
        for _ in $(seq 1 50); do
            if (exec 3<>"/dev/tcp/${addr%:*}/${addr#*:}") 2>/dev/null; then
                exec 3>&- || true
                continue 2
            fi
            sleep 0.1
        done
        echo "cluster_smoke: $addr never came up" >&2
        exit 1
    done
}

PIDS=()
for i in 0 1 2; do "$RUN/node_ctl" start "$i"; done
"$BIN/dmps-router" -addr "$ROUTER" -nodes "$NODES" -recover 500ms -metrics "$METR" &
PIDS+=($!)
wait_up "$NODE0" "$NODE1" "$NODE2" "$ROUTER"

# Drill 1: cross-partition quickstart + observability (replication,
# epoch and WAL series must exist fleet-wide).
"$BIN/dmps-smoke" -router "$ROUTER" -nodes "$NODES" -metrics "$METRICS" -wal -prefix smoke1

# Drill 2: kill the chaos group's owner mid-floor-hold, restart it
# later in the mix; zero errors means the replica converged and the
# migration home lost nothing. -trace stamps every request, so the
# fleet's tracing planes record the drill — including the
# downtime-length replication acks the kill forced: at -rf 3 the
# adopting survivor replicates every append to the WHOLE ring, dead
# node included, so its post-restart acks carry round trips no shorter
# than the outage (at -rf 2 each node ships only to its own successor
# and no survivor ever waits on the felled node).
"$BIN/dmps-swarm" -addr "$ROUTER" -nodes "$NODES" -mix chaos \
    -members 4 -ops 60 -mean 20ms -settle 10s -seed 7 \
    -chaos-kill "$RUN/node_ctl kill \$DMPS_CHAOS_NODE" \
    -chaos-restart "$RUN/node_ctl start \$DMPS_CHAOS_NODE" \
    -trace "$METRICS" \
    -note "cluster smoke chaos drill" -out "$RUN/chaos.json"
"$BIN/dmps-swarm" -check "$RUN/chaos.json"

# The chaos drill must have left evidence in a flight recorder: some
# traced operation rode out the kill window, so at least one surviving
# process's slow-op ring (always retained, never evicted by fast ops)
# must be non-empty. Pure-bash HTTP GET — the probe must run BEFORE
# drill 3 restarts every node, because the rings die with the process.
slow_ring_nonempty() {
    local addr=$1 body
    exec 9<>"/dev/tcp/${addr%:*}/${addr#*:}" || return 1
    printf 'GET /debug/traces HTTP/1.0\r\nHost: %s\r\n\r\n' "$addr" >&9
    body="$(cat <&9)"
    exec 9>&- || true
    [[ "$body" == *'"slow":[{'* ]]
}
# A just-acked slow span sits in the pending table until the plane's
# sweeper sees it quiet for a full cycle (250ms), so poll for a few
# seconds rather than racing the final sweep.
FOUND_SLOW=0
for _ in $(seq 1 20); do
    for addr in $METR $MET0 $MET1 $MET2; do
        if slow_ring_nonempty "$addr"; then
            echo "cluster_smoke: slow-op traces retained at http://$addr/debug/traces"
            FOUND_SLOW=1
        fi
    done
    [ "$FOUND_SLOW" = 1 ] && break
    sleep 0.3
done
if [ "$FOUND_SLOW" != 1 ]; then
    echo "cluster_smoke: FAIL: no endpoint retained a slow-op trace after the chaos drill" >&2
    exit 1
fi

# Drill 3: full-cluster restart on the same WAL dirs. The router never
# tears its map down (no sessions were flowing), so the fleet must come
# back serving from its replayed journals alone. node_ctl kill returns
# only once the old process is gone, so each start can bind its port.
for i in 0 1 2; do "$RUN/node_ctl" kill "$i"; done
for i in 0 1 2; do "$RUN/node_ctl" start "$i"; done
wait_up "$NODE0" "$NODE1" "$NODE2"
sleep 1 # let the router's recover prober reinstate anything it marked down
"$BIN/dmps-smoke" -router "$ROUTER" -nodes "$NODES" -metrics "$METRICS" -wal -prefix smoke2

echo "cluster_smoke: OK (router + 3 WAL-backed nodes, chaos kill/restart, full WAL-replay restart)"
