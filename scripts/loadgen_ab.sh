#!/bin/sh
# Batching A/B saturation study.
#
# Trains one small INT_ADD model, then ramps the SAME open-loop
# schedule (same seed) against the serving stack twice in tevot-loadgen's
# in-process mode: coalescing ON (-inproc-batch 64) vs OFF
# (-inproc-batch 1). Writes LOADGEN_saturation.json holding both full
# reports plus a summary comparing sustained RPS at the p99 bound, and
# fails unless batching sustained more load.
#
# In-process dispatch (no sockets) is deliberate: client and server
# share cores on a CI box, and the kernel network path — identical in
# both arms — otherwise dominates per-request cost and buries the
# server-side difference in scheduler noise. The full handler →
# admission → coalescer → inference → accounting path stays under
# measurement; scripts/loadgen_smoke.sh covers the socket path with
# real processes.
#
# Usage: sh scripts/loadgen_ab.sh [out.json]
set -eu
cd "$(dirname "$0")/.."
OUT="${1:-LOADGEN_saturation.json}"

RPS="${AB_RPS:-16000,20000,24000,28000,32000}"
STEP="${AB_STEP:-5s}"
P99_BOUND="${AB_P99_BOUND:-50}"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

echo "-- building binaries"
go build -o "$TMP/tevot-train" ./cmd/tevot-train
go build -o "$TMP/tevot-loadgen" ./cmd/tevot-loadgen

echo "-- training a small INT_ADD model"
"$TMP/tevot-train" -fu INT_ADD -cycles 300 -seed 1 -savemodels "$TMP" \
	-run-json "$TMP/train-run.json" >/dev/null 2>"$TMP/train.log" || {
	echo "FAIL: training"; cat "$TMP/train.log"; exit 1; }

# run_arm <label> <batch-size> — one full ramp, in-process stack.
run_arm() {
	label="$1"; batch="$2"
	echo "-- arm $label: -inproc-batch $batch, ramp $RPS @ $STEP/step"
	"$TMP/tevot-loadgen" -inproc-model "$TMP/int_add.tevot" \
		-inproc-batch "$batch" -inproc-workers 2 -inproc-queue 256 \
		-rps "$RPS" -step "$STEP" -settle 1s -seed 7 \
		-p99-bound "$P99_BOUND" -inflight 512 \
		-out "$TMP/$label.json" -run-json "$TMP/loadgen-$label-run.json" \
		2>"$TMP/loadgen-$label.log" || {
		echo "FAIL: $label loadgen"; cat "$TMP/loadgen-$label.log"; exit 1; }
}

run_arm batching_on 64
run_arm batching_off 1

python3 - "$TMP/batching_on.json" "$TMP/batching_off.json" "$OUT" \
	"$RPS" "$STEP" <<'EOF'
import json, sys

on = json.load(open(sys.argv[1]))
off = json.load(open(sys.argv[2]))
# sustained_rps is omitted from a report when no step met the bound.
s_on, s_off = on.get("sustained_rps", 0), off.get("sustained_rps", 0)
out = {
    "mode": "in-process server stack (tevot-loadgen -inproc-model)",
    "ramp_rps": sys.argv[4],
    "step_duration": sys.argv[5],
    "p99_bound_ms": on["p99_bound_ms"],
    "summary": {
        "batching_on_sustained_rps": s_on,
        "batching_off_sustained_rps": s_off,
        "speedup": round(s_on / s_off, 3) if s_off else None,
    },
    "batching_on": on,
    "batching_off": off,
}
with open(sys.argv[3], "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
print(f"sustained RPS at p99<={on['p99_bound_ms']}ms: "
      f"batching on {s_on:.1f} vs off {s_off:.1f}")
if not s_on or s_on <= s_off:
    print("FAIL: batching did not sustain more load")
    sys.exit(1)
EOF
echo "wrote $OUT"
