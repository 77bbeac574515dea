#!/bin/sh
# Loadgen smoke drill, run as real processes:
#
#   1. train a small INT_ADD model and boot tevot-serve with coalescing
#      on (-batch 8);
#   2. drive it with tevot-loadgen through a short two-step ramp;
#   3. assert the loadgen exits 0 and its JSON report recorded OK
#      completions;
#   4. scrape /metrics and assert the serve accounting identity
#      (requests == served + shed + timeouts + canceled + bad +
#      internal) on the aggregate counters after the run quiesces.
#
# The in-process counterpart (two shards, per-FU identity) lives in
# internal/loadgen's tests; this drill adds real process boundaries and
# real sockets.
set -eu
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
SERVE_PID=""
cleanup() {
	[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
	[ -n "$SERVE_PID" ] && wait "$SERVE_PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "-- building binaries"
go build -o "$TMP/tevot-train" ./cmd/tevot-train
go build -o "$TMP/tevot-serve" ./cmd/tevot-serve
go build -o "$TMP/tevot-loadgen" ./cmd/tevot-loadgen

echo "-- training a small INT_ADD model"
"$TMP/tevot-train" -fu INT_ADD -cycles 300 -seed 1 -savemodels "$TMP" \
	-run-json "$TMP/train-run.json" >/dev/null 2>"$TMP/train.log" || {
	echo "FAIL: training"; cat "$TMP/train.log"; exit 1; }

echo "-- booting tevot-serve (batch 8)"
"$TMP/tevot-serve" -model "$TMP/int_add.tevot" -addr 127.0.0.1:0 \
	-batch 8 -workers 2 -queue 64 \
	-run-json "$TMP/serve-run.json" >/dev/null 2>"$TMP/serve.log" &
SERVE_PID=$!

ADDR=""
i=0
while [ $i -lt 100 ]; do
	ADDR=$(grep -o 'addr=http://[0-9.:]*' "$TMP/serve.log" 2>/dev/null | head -1 | cut -d= -f2) || true
	[ -n "$ADDR" ] && break
	kill -0 "$SERVE_PID" 2>/dev/null || { echo "FAIL: server died at startup"; cat "$TMP/serve.log"; exit 1; }
	sleep 0.1
	i=$((i + 1))
done
[ -n "$ADDR" ] || { echo "FAIL: server never logged its address"; cat "$TMP/serve.log"; exit 1; }

echo "-- short open-loop ramp against $ADDR"
"$TMP/tevot-loadgen" -url "$ADDR" -rps 150,300 -step 1s -seed 7 \
	-out "$TMP/report.json" -run-json "$TMP/loadgen-run.json" \
	2>"$TMP/loadgen.log" || {
	echo "FAIL: loadgen exit"; cat "$TMP/loadgen.log"; exit 1; }

OKS=$(grep -o '"ok": *[0-9]*' "$TMP/report.json" | awk -F: '{s+=$2} END {print s+0}')
[ "$OKS" -gt 0 ] || { echo "FAIL: report has no OK completions"; cat "$TMP/report.json"; exit 1; }
echo "   $OKS OK completions across the ramp"

# Accounting identity on the aggregate counters. The loadgen has fully
# quiesced (its process exited), so these are settled totals.
curl -s "$ADDR/metrics" >"$TMP/serve.prom" || { echo "FAIL: /metrics scrape"; exit 1; }
val() {
	grep "^tevot_serve_${1}_total " "$TMP/serve.prom" | awk '{print $2}' | head -1
}
REQ=$(val requests); SRV=$(val served); SHD=$(val shed)
TMO=$(val timeouts); CAN=$(val canceled); BAD=$(val bad_requests); INT=$(val internal_errors)
for v in "$REQ" "$SRV" "$SHD" "$TMO" "$CAN" "$BAD" "$INT"; do
	[ -n "$v" ] || { echo "FAIL: missing serve counter on /metrics"; cat "$TMP/serve.prom"; exit 1; }
done
SUM=$((SRV + SHD + TMO + CAN + BAD + INT))
[ "$REQ" -eq "$SUM" ] || {
	echo "FAIL: accounting identity broken: requests=$REQ != served=$SRV + shed=$SHD + timeouts=$TMO + canceled=$CAN + bad=$BAD + internal=$INT"
	exit 1
}
echo "   accounting identity holds: requests=$REQ == outcome sum=$SUM"

kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "   server drained clean"
