#!/bin/sh
# Full hygiene gate: build, vet, and the whole test suite under the race
# detector. The runner/experiments packages are deliberately concurrent;
# any data race is a failing check, not a flake.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt: every Go file formatted"
test -z "$(gofmt -l .)"

echo "== benchmark module: perfbench/ (a separate module) vets and tests against this tree"
(cd perfbench && GOFLAGS=-mod=mod go vet . && GOFLAGS=-mod=mod go test .)

echo "== lint: no raw print/log in library packages"
sh scripts/lintobs.sh

echo "== observability smoke: -debug-addr endpoint + run manifest"
go test -run 'TestDebugEndpointSmoke' ./cmd/tevot-sweep

echo "== metrics exposition smoke: /metrics strict-parses mid-run, tracing on"
go test -run 'TestMetricsExpositionSmoke' ./cmd/tevot-sweep

echo "== serve smoke: boot, predict, shed under tiny queue, corrupt reload, SIGTERM drain"
go test -run 'TestServeAbuseSmoke' ./cmd/tevot-serve

echo "== coalescer: flush policy, riders behind busy workers, queued deadlines, drain, hard stop, torn-model guard, 0-alloc hot path (race)"
go test -race -run \
	'TestFlushOn|TestRidersLeaveInNextFlush|TestDrainFlushesPartialBatch|TestCloseAnswersQueuedItems|TestBatchQueuedDeadline|TestReloadMidBatchGeneration|TestRetryAfterDerived|TestPerFU|TestAccountingIdentityPerFU' \
	./internal/serve
go test -run 'TestServeBatchHotPathAllocs' ./internal/serve

echo "== request decode: one-pass parser vs encoding/json, differential fuzz"
go test -run '^$' -fuzz '^FuzzPredictDecode$' -fuzztime 15s ./internal/serve

echo "== loadgen smoke: real processes, open-loop ramp, /metrics accounting identity"
sh scripts/loadgen_smoke.sh

echo "== signal handling: SIGTERM flushes checkpoint + finalizes manifest"
go test -run 'TestSigtermFlushesCheckpointAndManifest' ./cmd/tevot-sweep

echo "== kernel equivalence: calendar-queue vs reference heap, every FU"
go test -run 'TestKernelDiffFUs' ./internal/sim

echo "== memo equivalence: transition memo + bitslice windows vs uncached kernels"
go test -run 'TestKernelDiffRandom|TestMemo|TestBeginWindowErrors' ./internal/sim
go test -run 'TestMemoHitRateImagingStreams' ./internal/core

echo "== forest fit: binned split search reproduces the pinned forests, per-worker scratch (race)"
go test -race -run 'TestForestFitDigests|TestForestDeterministicAcrossWorkerCounts' ./internal/ml

echo "== determinism: sharded DTA bit-identity + singleflight (race)"
go test -race -short -run \
	'TestCharacterizeShardingDeterminism|TestCharacterizeConcurrentSharedFUnit|TestStaticSingleflight' \
	./internal/core

echo "== distributed sweep: local cluster under race, kills + forced expiry, fleet telemetry"
go test -race -run 'TestLocalClusterByteIdentical|TestCoordinatorResumesFromJournal|TestClusterTelemetryAndTracing' ./internal/dist

echo "== distributed sweep smoke: real processes, SIGKILL a worker mid-run"
sh scripts/cluster_smoke.sh

echo "== chaos soak (short profile): seeded network/disk/clock fault schedules"
sh scripts/chaos_soak.sh -short

echo "== go test -race ./..."
go test -race ./...

echo "ok"
