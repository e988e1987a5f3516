#!/usr/bin/env bash
# Tier-1 verification: build, vet, race-test everything, then smoke each
# fuzz target briefly. CI and pre-commit both run this; keep it fast enough
# to run on every change (~2-3 minutes).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: unformatted files:"
	echo "$unformatted"
	exit 1
fi

echo "== go test -race =="
go test -race ./...

# The benchmark is its own module built against this tree: an internal API
# change that breaks it must fail here, not in a later benchmark run.
echo "== go test -short (cmd/rdmadl-bench) =="
(cd cmd/rdmadl-bench && go test -short ./...)

# The compute kernels promise bit-identical results at every pool size; run
# the packages that exercise that contract under the race detector at both
# one and four scheduler threads.
echo "== go test -race -cpu=1,4 (kernel parallelism) =="
go test -race -cpu=1,4 ./internal/parallel/ ./internal/tensor/ ./internal/exec/

# On amd64 the matmuls run the assembly GEMM tiles and 1-row loop, whose
# writes the race detector cannot see. The purego tag selects the Go
# kernels, so the same parity tests also run with every write instrumented;
# the arm64 vet keeps that fallback compiling (vet's asmdecl check already
# covers the amd64 assembly frames).
echo "== go test -race -cpu=1,4 -tags purego (Go kernel path) =="
go test -race -cpu=1,4 -tags purego ./internal/tensor/
echo "== go vet GOARCH=arm64 (non-assembly kernel build) =="
GOARCH=arm64 go vet ./internal/tensor/

# Serving batches run only the scalar 1-row matmul loop, and its speed moved
# by ~40 % with whether the linker happened to place it across a 64-byte
# line. tensor.axpy1 pins the loop head with PCALIGN $64; check that the
# linked product binary keeps it there. The loop head is the target of the
# first backward conditional jump (the inner loop closes before the outer).
if [ "$(go env GOARCH)" = amd64 ]; then
	echo "== 1-row matmul loop alignment (tensor.axpy1) =="
	layoutdir="$(mktemp -d)"
	go build -o "$layoutdir/rdmadl-train" ./cmd/rdmadl-train
	loophead=""
	while read -r at target; do
		if ((target < at)); then
			loophead="$target"
			break
		fi
	done < <(go tool objdump -s 'tensor\.axpy1(\.abi0)?$' "$layoutdir/rdmadl-train" |
		awk '$4 ~ /^J/ && $4 != "JMP" && $5 ~ /^0x/ {print $2, $5}')
	rm -rf "$layoutdir"
	if [ -z "$loophead" ]; then
		echo "layout: no tensor.axpy1 loop found in rdmadl-train"
		exit 1
	fi
	if ((loophead % 64 != 0)); then
		echo "layout: tensor.axpy1 loop head at $loophead is not 64-byte aligned"
		exit 1
	fi
	echo "tensor.axpy1 loop head at $loophead"
fi

# Named gates: the tests the acceptance bar names, by package. go test
# -race ./... above already ran every one of them, so they are not run
# again here; the check after this list only proves each still exists, so
# a renamed or deleted gate fails verify instead of silently dropping out
# of the bar. A name is an anchored regular expression over the package's
# go test -list output.
declare -A gates=()
gate() {
	local pkg="$1"
	shift
	gates[$pkg]+=" $*"
}

# Crash-recovery and close/poll regression gates, including the edge-rebuild
# region-leak check, a stalled lease ping refuted and replayed, and the
# async retry engine's gates (no goroutine per in-flight transfer, one fin
# under duplicate completions, a failed stripe read retried as a group,
# cancel during backoff, a lost coalesced batch ack retried without a
# goroutine).
gate ./internal/distributed/ TestRecoveryWorkerCrashBitIdentical TestRecoveryRefutedSuspicionReplaysBitIdentical TestHeartbeatDetectorExpiresAndResumes TestLoadCheckpointRestoresRegisteredStorage TestRebuildEdgesKeepsRegionCount TestCoalescedLostAckRetried
gate ./internal/rdma/ TestCloseMidTransferFailsFast TestCloseMidStripedTransferFailsFast TestClosePeerSeversThenRebuilds TestAsyncTransfersHoldNoGoroutine TestAsyncRetryDuplicateCompletionsFinOnce TestAsyncFetchRetriesFailedStripe TestAsyncCanceledDuringBackoffPostsNothing
gate ./internal/exec/ TestPurePollingBoundedSpin TestPollBackoffPreservesFairness

# Allocation-free steady state: a hot allocation site reaches the policy
# every iteration while cold ones are recycled, a warm Run's allocations do
# not grow with the partition, concurrent Runs on one executor take turns,
# and a warmed 2-worker PS step stays under its byte bound with unchanged
# hot sites, zero-copy sends and ps/ring loss bits.
gate ./internal/exec/ TestRecycleSkipsHotSite TestWarmRunAllocsIndependentOfNodeCount TestConcurrentRunsSerialized
gate ./internal/distributed/ TestSteadyStatePSStepAllocations

# gRPC.RDMA ring transport gates: the ring suite on the static-slot engine
# (fragmentation, per-slot reuse acks as credit, typed send timeouts under
# drops, partitions and credit starvation), geometry validation, regions
# freed on close, a lost last ack retried without a goroutine, and no
# goroutine held per idle connection.
gate ./internal/transport/ 'TestRing.*' TestLargeMessagesFragmented TestManyMessagesOrdered TestCloseUnblocksRecv TestSenderMayReuseBuffer TestSendRecvAllTransports

# Observability gates: the Prometheus encoder golden file, the live obs
# endpoint, and the metrics/trace/step-books consistency suite (including
# its recovery-rebuild variant).
gate ./internal/obs/ TestWritePromGolden TestPromScrapeParsesAndIsConsistent TestServerEndpoints
gate ./internal/distributed/ TestMetricsTraceConsistency TestObsConsistencySurvivesRecovery
gate ./internal/metrics/ TestHistogramConcurrentRecord
gate ./internal/trace/ TestRecorderOverflowIsVisible

# Collective-plane gates: the comm package in full, topology parity (ring
# and tree must produce the PS plane's exact bits across worker counts and
# bucket geometries), and the ring under chaos — seeded faults retried to
# identical bits, a mid-all-reduce crash recovered bit-identically.
gate ./internal/comm/ 'Test.*'
gate ./internal/distributed/ TestTopologyParityMLP TestTopologyParityWorkerSweep TestSingleGradientModelTrainsAllTopologies
gate ./internal/distributed/ TestRingChaosBitIdenticalUnderFaults TestRecoveryRingCrashBitIdentical

# Sharded-PS gates: shard/worker-sweep and hierarchical parity against the
# single-PS bits, plus the sharded plane under chaos and crash recovery.
gate ./internal/distributed/ TestShardedPSParityShardWorkerSweep TestShardedPSHierarchicalParity TestShardedPSParityBucketSizes
gate ./internal/distributed/ TestShardedPSChaosBitIdenticalUnderFaults TestRecoveryShardedPSCrashBitIdentical

# Pipelined-stripe gates: the copy-overlapped send path must stay
# bit-identical to the staged path, keep per-lane doorbell batching on the
# staged path, and heal injected drops by re-staging the same bytes.
gate ./internal/rdma/ TestSendRetryFromParity TestSendRetryDoorbellBatchesPerLane TestSendRetryFromRecoversFromDrops TestMemcpyBatchValidatesBeforePosting

# QP-scale & lossy-fabric gates: the 256-task netsim budget check (muxed
# wiring within explicit per-task QP state and setup-time budgets that
# all-pairs wiring blows), the 64-task real-bytes training run through the
# QP mux under the race detector, and the lossy-fabric recovery suite —
# seeded chunk drops healed bit-identically by per-tensor selective
# retransmit, a blackholed tensor failing typed and bounded, and a
# mid-loss step abort never leaking a retransmitted chunk into a later
# iteration.
gate ./internal/netsim/ TestScale256TaskQPBudgets
gate ./internal/distributed/ Test64TaskMuxTrainingUnderRace TestMuxTrainingParity
gate ./internal/distributed/ TestLossyTrainingBitIdentical TestLossyTensorBlackholeFailsTyped TestLossyStepAbortThenRecover
gate ./internal/rdma/ TestQPBusyRetriesDoNotBurnRetryBudget

# Serving-plane gates: the zero-copy weight-publication protocol proven
# under the race detector. Staleness bound — no replica serves weights more
# than one version behind the trainer, bit-identical to the trainer's
# snapshot, under continuous publication and concurrent queries. Torn-read
# — a trainer crash mid-publication leaves every replica on the last
# complete version (the tail flag is written after the payload and the
# version word, and a released bank's flag is cleared before its release
# ack, so a partial bank is never observable); a transient fault mid-publish
# is retried. Overload-shed — the frontend's bounded
# queue sheds typed ErrOverloaded instead of queueing unboundedly. Dispatch
# — a batch waits for a staged replica instead of failing, and a busy
# replica does not hold up a batch another replica can take. Plus the
# crash/readmission cycle through the lease detector, the QP-mux sever-race
# regression, the histogram torn-snapshot fixes, the netsim million-user
# model, and the trainer-flag validation matrix.
gate ./internal/serve/ TestStalenessBoundUnderLoad TestPublishBitIdentical TestTrainerCrashMidPublication TestPublishRetriesTransientFault TestReleasedBankFlagClearBeforeAck TestOverloadShed TestPublisherBankHeldTimeout TestReplicaRestartReadmission TestDispatchWaitsForStagedReplica TestParallelDispatchAcrossReplicas
gate ./internal/distributed/ TestServingFleetCrashRecovery TestServingFleetOverload
gate ./internal/rdma/ TestQPMuxSeverRace
gate ./internal/metrics/ TestQuantileTornSnapshot TestQuantileEdgeCases TestMergeFamiliesUnion
gate ./internal/netsim/ TestServeModelMillionUsers TestServeStalenessThroughputTradeoff
gate ./cmd/rdmadl-train/ TestValidateFlags

echo "== named gates exist =="
missing=0
set -f # the names are regular expressions, not file globs
for pkg in "${!gates[@]}"; do
	listed="$(go test -list . "$pkg")"
	for name in ${gates[$pkg]}; do
		if ! grep -qxE -- "$name" <<<"$listed"; then
			echo "missing gate: $pkg $name"
			missing=1
		fi
	done
done
set +f
if ((missing)); then
	exit 1
fi

# Fuzz smoke: each target gets a short budget. The engine accepts one
# -fuzz pattern per invocation, so loop explicitly.
FUZZTIME="${FUZZTIME:-5s}"
echo "== fuzz smoke (${FUZZTIME}/target) =="
go test -run=NONE -fuzz='^FuzzUnmarshalStaticSlotDesc$' -fuzztime="$FUZZTIME" ./internal/rdma/
go test -run=NONE -fuzz='^FuzzUnmarshalDynSlotDesc$' -fuzztime="$FUZZTIME" ./internal/rdma/
go test -run=NONE -fuzz='^FuzzDecodeDynMeta$' -fuzztime="$FUZZTIME" ./internal/rdma/
go test -run=NONE -fuzz='^FuzzUnmarshalStripeDesc$' -fuzztime="$FUZZTIME" ./internal/rdma/
go test -run=NONE -fuzz='^FuzzUnmarshalRetransmitDesc$' -fuzztime="$FUZZTIME" ./internal/rdma/
go test -run=NONE -fuzz='^FuzzUnmarshalNackDesc$' -fuzztime="$FUZZTIME" ./internal/rdma/
go test -run=NONE -fuzz='^FuzzTensorMessageUnmarshal$' -fuzztime="$FUZZTIME" ./internal/wire/
go test -run=NONE -fuzz='^FuzzDecodeBatch$' -fuzztime="$FUZZTIME" ./internal/wire/
go test -run=NONE -fuzz='^FuzzHistogramRecord$' -fuzztime="$FUZZTIME" ./internal/metrics/
go test -run=NONE -fuzz='^FuzzUnmarshalBucketDesc$' -fuzztime="$FUZZTIME" ./internal/comm/
go test -run=NONE -fuzz='^FuzzUnmarshalShardMap$' -fuzztime="$FUZZTIME" ./internal/comm/
go test -run=NONE -fuzz='^FuzzGemmTile$' -fuzztime="$FUZZTIME" ./internal/tensor/
go test -run=NONE -fuzz='^FuzzUnmarshalRingHello$' -fuzztime="$FUZZTIME" ./internal/transport/

echo "verify: OK"
