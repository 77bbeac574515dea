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

echo "== metrics exposition smoke: /metrics strict-parses mid-run"
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

echo "== recovery: failed and interrupted cells re-run on -resume (race)"
go test -race -run 'TestFailedCellsNotCheckpointed|TestCancellationSkipsRemaining|TestCheckpointToleratesTruncatedTail' ./internal/runner
go test -race -run 'TestFig3RunResumeReproducesUninterruptedRun' ./internal/experiments

echo "== kernel equivalence: waveform vs reference heap, every FU (random, imaging-shaped and 16-bit operands), extreme delay ratios, stamp wrap (heap batches, window pruning); exact time ties on random circuits with 1-3 ps integer delays (equal-time pins, an output event at an input batch's time); simulator vs zero-delay evaluation; the netlist's flattened view the kernel reads (TestCSR: fanout edges, topological pin table, reader positions)"
go test -run 'TestKernelDiffFUs|TestKernelDiffExtremeDelayRatio|TestKernelDiffStampWrap|TestKernelDiffRandom|TestFuzzSimulatorAgainstEval' ./internal/sim
go test -run 'TestCSR' ./internal/netlist

echo "== memo equivalence: transition memo + bitslice windows vs uncached kernels; per-shard drop rule; per-tier cascade counters"
go test -run 'TestKernelDiffRandom|TestMemo|TestBeginWindowErrors' ./internal/sim
go test -run 'TestMemoHitRateImagingStreams|TestMemoDropOnRandomStreams|TestCascadeCounters' ./internal/core

echo "== tail labelling: re-simulating only the cycles that reach the clock equals full labelling, every FU"
go test -run 'TestLabel' ./internal/core

echo "== paper goldens: Fig. 3 rows, Table II accuracies, Table III cells, Table IV points, Fig. 4 PSNRs, DTA digests per FU"
go test -run 'TestFig3ShapeAndPhysics|TestTable2SmallRun|TestTable3SmallRun|TestTable4AndFig4Small|TestDTADigest' ./internal/experiments

echo "== forest fit: binned split search reproduces the pinned forests (digests of their compiled nodes) from float rows, all-float and with leading 0/1 columns as bits, and from packed rows (TEVoT-NH and application-shaped cases), per-worker scratch (race); a file saved before trees were kept only compiled loads and predicts as a fresh fit (TestLoadForestWithQuantilesField); compiled walks equal pointer walks of the saved trees (TestCompiledForestMatchesPointerTrees, TestPredictDelaysMatchPointerTrees); allocation guards: a fit keeps one 16-byte copy of each tree (TestFitAllocatesOneNodeCopy), a 99-cycle shard sizes its memo map to itself (TestShortShardMemoMap)"
go test -race -run 'TestForestFitDigests|TestFloatRowsBitPrefix|TestFitPackedRefusesBadInput|TestForestDeterministicAcrossWorkerCounts|TestLoadForestWithQuantilesField|TestCompiledForestMatchesPointerTrees|TestFitAllocatesOneNodeCopy' ./internal/ml
go test -race -run 'TestPredictDelaysMatchPointerTrees|TestShortShardMemoMap' ./internal/core

echo "== determinism: sharded DTA bit-identity + singleflight (race); the one shard rule (CharOpts) and Table III cells equal at GOMAXPROCS 1 and 4"
go test -race -short -run \
	'TestCharacterizeShardingDeterminism|TestCharacterizeConcurrentSharedFUnit|TestStaticSingleflight' \
	./internal/core
go test -run 'TestCharOpts|TestTable3RunShardingInvariant' ./internal/experiments

echo "== distributed sweep: local cluster under race, kills + forced expiry, fleet telemetry, a worker of another protocol version refused at register"
go test -race -run 'TestLocalClusterByteIdentical|TestCoordinatorResumesFromJournal|TestClusterTelemetry|TestRegisterRefusesOtherProtocolVersion' ./internal/dist

echo "== distributed sweep smoke: real processes, SIGKILL a worker mid-run"
sh scripts/cluster_smoke.sh

echo "== chaos soak (short profile): seeded network/disk/clock fault schedules"
sh scripts/chaos_soak.sh -short

echo "== go test -race ./..."
go test -race ./...

echo "ok"
