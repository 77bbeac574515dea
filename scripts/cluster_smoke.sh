#!/bin/sh
# Distributed-sweep smoke drill, run as real processes:
#
#   1. single-process sweep -> reference merged JSONL;
#   2. coordinator + two worker processes over loopback HTTP;
#   3. SIGKILL one worker after its first results land (its leases
#      expire and the cells are re-issued to the survivor);
#   4. assert the distributed run exits 0 and its merged JSONL is
#      byte-identical to the single-process reference;
#   5. scrape /cluster/metrics at completion and assert the fleet
#      telemetry balances: the aggregate worker.cells_done counter
#      equals the merged row count plus the coordinator's duplicate
#      results (a speculative or re-issued copy completes a cell twice
#      but lands only one row).
#
# This is the end-to-end counterpart of internal/dist's in-process
# cluster tests: same protocol, plus real process boundaries, real
# sockets, and a real SIGKILL.
set -eu
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
COORD_PID=""
W1_PID=""
W2_PID=""
cleanup() {
	# Kill AND reap: a TERM without a wait leaves orphans running on the
	# coordinator port after the script exits (found by the chaos work —
	# a failed assertion used to strand both workers).
	for pid in "$COORD_PID" "$W1_PID" "$W2_PID"; do
		[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	done
	for pid in "$COORD_PID" "$W1_PID" "$W2_PID"; do
		[ -n "$pid" ] && wait "$pid" 2>/dev/null || true
	done
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

# Sized so the sweep runs for seconds, not milliseconds: the SIGKILL
# below must land while cells are still in flight, and a too-small
# sweep can finish inside one poll interval of the kill-window loop
# (the worker exits first and the drill degenerates into a plain run).
SWEEP_FLAGS="-cycles 3000 -fu INT_ADD -images 1 -imgsize 16 -seed 1"

echo "-- building binaries"
go build -o "$TMP/tevot-sweep" ./cmd/tevot-sweep

echo "-- single-process reference sweep"
"$TMP/tevot-sweep" $SWEEP_FLAGS -out "$TMP/ref.jsonl" \
	-run-json "$TMP/ref-run.json" >/dev/null 2>&1

echo "-- coordinator + 2 workers, SIGKILL one mid-run"
"$TMP/tevot-sweep" $SWEEP_FLAGS -coordinator 127.0.0.1:0 -lease-ttl 3s \
	-checkpoint "$TMP/journal.jsonl" -out "$TMP/dist.jsonl" \
	-run-json "$TMP/coord-run.json" \
	>"$TMP/coord.out" 2>"$TMP/coord.log" &
COORD_PID=$!

ADDR=""
i=0
while [ $i -lt 100 ]; do
	ADDR=$(grep -o 'addr=http://[0-9.:]*' "$TMP/coord.log" 2>/dev/null | head -1 | cut -d= -f2) || true
	[ -n "$ADDR" ] && break
	kill -0 "$COORD_PID" 2>/dev/null || { echo "FAIL: coordinator died at startup"; cat "$TMP/coord.log"; exit 1; }
	sleep 0.1
	i=$((i + 1))
done
[ -n "$ADDR" ] || { echo "FAIL: coordinator never logged its address"; cat "$TMP/coord.log"; exit 1; }

# Manifests go into $TMP too: the workers' cwd is the repo root, and
# the default -run-json run.json would litter (and race over) a
# run.json in the checkout.
"$TMP/tevot-sweep" -join "$ADDR" -id smoke-a \
	-run-json "$TMP/w1-run.json" >/dev/null 2>"$TMP/w1.log" &
W1_PID=$!
"$TMP/tevot-sweep" -join "$ADDR" -id smoke-b \
	-run-json "$TMP/w2-run.json" >/dev/null 2>"$TMP/w2.log" &
W2_PID=$!

# Wait for at least one completed cell so the kill happens mid-run. If
# the coordinator dies here, fail with its log instead of spinning out
# the full window against a dead endpoint.
i=0
DONE=0
while [ $i -lt 200 ]; do
	DONE=$(curl -s "$ADDR/progress" 2>/dev/null | grep -o '"done":[0-9]*' | head -1 | cut -d: -f2) || true
	[ "${DONE:-0}" -ge 1 ] && break
	kill -0 "$COORD_PID" 2>/dev/null || { echo "FAIL: coordinator died mid-run"; cat "$TMP/coord.log"; exit 1; }
	sleep 0.1
	i=$((i + 1))
done
[ "${DONE:-0}" -ge 1 ] || { echo "FAIL: no cell completed before kill window"; exit 1; }

kill -9 "$W1_PID"
wait "$W1_PID" 2>/dev/null || true
W1_PID=""
echo "   killed worker smoke-a at done=$DONE; survivor finishes the sweep"

# Wait for the last cell, then scrape the telemetry surfaces inside the
# coordinator's post-completion linger window.
CELLS=$(curl -s "$ADDR/progress" 2>/dev/null | grep -o '"cells":[0-9]*' | head -1 | cut -d: -f2) || true
i=0
while [ $i -lt 600 ]; do
	DONE=$(curl -s "$ADDR/progress" 2>/dev/null | grep -o '"done":[0-9]*' | head -1 | cut -d: -f2) || true
	[ "${DONE:-0}" -eq "${CELLS:-0}" ] && break
	kill -0 "$COORD_PID" 2>/dev/null || break
	sleep 0.1
	i=$((i + 1))
done
curl -s "$ADDR/cluster/metrics" >"$TMP/cluster.prom" 2>/dev/null || true
curl -s "$ADDR/metrics" >"$TMP/coord.prom" 2>/dev/null || true

COORD_EXIT=0
wait "$COORD_PID" || COORD_EXIT=$?
COORD_PID=""
[ "$COORD_EXIT" -eq 0 ] || { echo "FAIL: coordinator exit $COORD_EXIT"; cat "$TMP/coord.log"; exit 1; }
wait "$W2_PID" 2>/dev/null || { echo "FAIL: surviving worker failed"; cat "$TMP/w2.log"; exit 1; }
W2_PID=""

cmp "$TMP/ref.jsonl" "$TMP/dist.jsonl" || {
	echo "FAIL: distributed output differs from single-process reference"
	exit 1
}
echo "   merged output byte-identical to single-process run"

# Fleet telemetry balance: Σ worker.cells_done (the aggregate sample on
# /cluster/metrics) must equal merged rows + duplicate results (the
# coordinator's own counter on /metrics). Every accepted or duplicate
# report carries a snapshot that already counts it, so this is an
# identity at completion, not an eventually-consistent estimate.
ROWS=$(wc -l <"$TMP/dist.jsonl")
AGG=$(grep '^tevot_worker_cells_done_total{aggregate="cluster"}' "$TMP/cluster.prom" | awk '{print $2}') || true
DUPS=$(grep '^tevot_dist_results_duplicate_total ' "$TMP/coord.prom" | awk '{print $2}') || true
[ -n "${AGG:-}" ] || { echo "FAIL: /cluster/metrics had no aggregate cells_done sample"; cat "$TMP/cluster.prom"; exit 1; }
[ -n "${DUPS:-}" ] || { echo "FAIL: coordinator /metrics had no duplicate-results counter"; cat "$TMP/coord.prom"; exit 1; }
[ "$AGG" -eq "$((ROWS + DUPS))" ] || {
	echo "FAIL: cluster telemetry imbalance: cells_done=$AGG, rows=$ROWS, duplicates=$DUPS"
	cat "$TMP/cluster.prom"
	exit 1
}
echo "   cluster telemetry balanced: cells_done=$AGG == rows=$ROWS + duplicates=$DUPS"

# No stray processes: every worker and the coordinator must be gone now
# that the run completed — an orphan here means a leaked supervisor or
# a worker that never heard "done".
if command -v pgrep >/dev/null 2>&1; then
	STRAYS=$(pgrep -f "$TMP/tevot-" 2>/dev/null || true)
	[ -z "$STRAYS" ] || {
		echo "FAIL: stray sweep processes survived the run: $STRAYS"
		ps -p $STRAYS 2>/dev/null || true
		exit 1
	}
	echo "   no stray worker or coordinator processes"
fi
