#!/bin/sh
# End-to-end smoke test of the spechpcd HTTP service (run by CI): start
# the daemon against a temp cache directory, submit a job, wait for it
# to finish, then submit the identical job again and fail unless the
# second pass performs ZERO fresh simulations — the proof that the
# serving layer's memo, store lookups and cross-request coalescing make
# a repeated query free. Finishes with a graceful SIGTERM shutdown check.
#
# Usage: scripts/service_smoke.sh [job-json]
set -eu

job=${1:-'{"benchmark":"tealeaf","cluster":"A","class":"tiny","ranks":26,"sim_steps":2}'}
workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "service_smoke: building cmd/spechpcd"
go build -o "$workdir/spechpcd" ./cmd/spechpcd

"$workdir/spechpcd" -addr 127.0.0.1:0 -parallel 4 -cache-dir "$workdir/store" \
    >"$workdir/daemon.log" 2>"$workdir/daemon.err" &
daemon_pid=$!

# The daemon prints "spechpcd: listening on http://127.0.0.1:PORT ..."
# once the listener is up; poll for it.
base=""
for _ in $(seq 1 100); do
    base=$(sed -n 's#^spechpcd: listening on \(http://[0-9.:]*\).*#\1#p' "$workdir/daemon.log")
    [ -n "$base" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || {
        echo "service_smoke: daemon died on startup" >&2
        cat "$workdir/daemon.err" >&2
        exit 1
    }
    sleep 0.1
done
if [ -z "$base" ]; then
    echo "service_smoke: daemon never reported its address" >&2
    exit 1
fi
echo "service_smoke: daemon up at $base"

curl -sf "$base/healthz" >/dev/null || {
    echo "service_smoke: healthz failed" >&2
    exit 1
}

# json_field <name> <file>: pull one numeric/string scalar out of the
# service's indented JSON (one field per line, no jq needed).
json_field() {
    sed -n "s/^ *\"$1\": *\"\{0,1\}\([^\",]*\)\"\{0,1\},\{0,1\}\$/\1/p" "$2" | head -1
}

submit_and_wait() { # submit_and_wait <label>
    curl -sf -X POST --data-binary "$job" \
        "$base/api/v1/jobs" >"$workdir/$1.json"
    jid=$(json_field id "$workdir/$1.json")
    if [ -z "$jid" ]; then
        echo "service_smoke: $1: submission returned no id" >&2
        cat "$workdir/$1.json" >&2
        exit 1
    fi
    state=""
    for _ in $(seq 1 600); do
        curl -sf "$base/api/v1/jobs/$jid" >"$workdir/$1.status.json"
        state=$(json_field state "$workdir/$1.status.json")
        [ "$state" = "done" ] || [ "$state" = "failed" ] || [ "$state" = "cancelled" ] && break
        sleep 0.2
    done
    if [ "$state" != "done" ]; then
        echo "service_smoke: $1: job ended as '$state'" >&2
        cat "$workdir/$1.status.json" >&2
        exit 1
    fi
    curl -sf "$base/statsz" >"$workdir/$1.statsz.json"
    fresh=$(json_field fresh_sims "$workdir/$1.statsz.json")
    echo "service_smoke: $1: job $jid done, cumulative fresh_sims=$fresh"
}

submit_and_wait cold
cold_fresh=$fresh
if [ "$cold_fresh" -eq 0 ]; then
    echo "service_smoke: cold pass simulated nothing - job already cached?" >&2
    exit 1
fi

submit_and_wait warm
if [ "$fresh" -ne "$cold_fresh" ]; then
    echo "service_smoke: FAIL: second submission ran $((fresh - cold_fresh)) fresh simulations; want 0 (store + coalescing must serve it)" >&2
    exit 1
fi

# The repeat must have been served from the memo/store: the stats line
# confirms hits advanced.
warm_hits=$(json_field memo_hits "$workdir/warm.statsz.json")
if [ -z "$warm_hits" ] || [ "$warm_hits" -eq 0 ]; then
    echo "service_smoke: FAIL: warm pass recorded no memo hits" >&2
    exit 1
fi

# Graceful shutdown: SIGTERM must stop the daemon cleanly.
kill -TERM "$daemon_pid"
i=0
while kill -0 "$daemon_pid" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "service_smoke: FAIL: daemon ignored SIGTERM" >&2
        exit 1
    fi
    sleep 0.1
done
daemon_pid=""
grep -q '^campaign:' "$workdir/daemon.err" || {
    echo "service_smoke: FAIL: shutdown printed no campaign stats line" >&2
    cat "$workdir/daemon.err" >&2
    exit 1
}
echo "service_smoke: OK (second submission served with zero fresh simulations, clean shutdown)"
