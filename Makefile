GO ?= go

.PHONY: build test check bench fuzz serve cluster cluster-smoke chaos loadgen loadgen-ab

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Hygiene gate: vet + race-enabled full suite (see scripts/check.sh).
check:
	sh scripts/check.sh

bench:
	$(GO) test -bench=. -benchmem ./...

# Boot the hardened prediction service on :8080, training and saving
# the model first if MODEL does not exist yet. Override with e.g.
#   make serve MODEL=models/FP_MUL.tevot SERVE_ADDR=:9090
MODEL ?= models/INT_ADD.tevot
SERVE_ADDR ?= :8080
serve:
	@test -f $(MODEL) || $(GO) run ./cmd/tevot-train \
		-fu $(basename $(notdir $(MODEL))) -savemodels $(dir $(MODEL))
	$(GO) run ./cmd/tevot-serve -model $(MODEL) -addr $(SERVE_ADDR)

# Open-loop saturation ramp against a running server (boot one with
# `make serve`). Override the schedule with e.g.
#   make loadgen LOADGEN_URL=http://127.0.0.1:9090 LOADGEN_RPS=500,1000,2000
LOADGEN_URL ?= http://127.0.0.1:8080
LOADGEN_RPS ?= 100,250,500,1000
LOADGEN_STEP ?= 5s
loadgen:
	$(GO) run ./cmd/tevot-loadgen -url $(LOADGEN_URL) \
		-rps $(LOADGEN_RPS) -step $(LOADGEN_STEP)

# Batching A/B: run the same ramp against -batch 64 and -batch 1
# servers over the same model and write LOADGEN_saturation.json
# comparing sustained RPS at a bounded p99.
loadgen-ab:
	sh scripts/loadgen_ab.sh

# In-process local cluster: coordinator + CLUSTER_WORKERS workers in one
# process, merged output at CLUSTER_OUT (byte-identical to a
# single-process sweep of the same flags).
CLUSTER_WORKERS ?= 3
CLUSTER_OUT ?= fig3.dist.jsonl
cluster:
	$(GO) run ./cmd/tevot-sweep -cluster $(CLUSTER_WORKERS) \
		-checkpoint $(CLUSTER_OUT).ckpt -out $(CLUSTER_OUT)

# Real-process fault drill: SIGKILL a worker mid-sweep, assert the
# merged output still matches the single-process run byte-for-byte.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Chaos soak: the seeded fault-schedule corpus (network/disk/clock
# planes) against the distributed sweep, under the race detector.
# Replay one schedule verbatim with CHAOS_SEED:
#   make chaos CHAOS_SEED=17
CHAOS_SEED ?=
chaos:
	sh scripts/chaos_soak.sh $(if $(CHAOS_SEED),-seed $(CHAOS_SEED))

# Short active fuzzing pass over every parser fuzz target.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=20s ./internal/sdf
	$(GO) test -fuzz=FuzzParse -fuzztime=20s ./internal/vcd
	$(GO) test -fuzz=FuzzParse -fuzztime=20s ./internal/liberty
