#!/bin/bash
# The repo's verification driver: tier-1 tests plus sanitizer passes.
#
#   tools/check.sh            # tier-1 + TSan workflow_test (the default gate)
#   tools/check.sh --all      # tier-1 + ASan + UBSan full suite + TSan
#   tools/check.sh --asan     # ASan build + full ctest suite
#   tools/check.sh --ubsan    # UBSan build + full ctest suite (halt-on-error)
#   tools/check.sh --tsan     # TSan build + workflow/parallel/codec/store-walk/reco-pin/snapshot suites
#   tools/check.sh --chaos    # TSan build + fault-injection/resume suite
#   tools/check.sh --tier1    # tier-1 only
#   tools/check.sh --no-tsan  # legacy spelling of --tier1
#
# Run from the repository root. Build trees: build/ (tier-1), build-asan/,
# build-ubsan/ (full suite), build-tsan/ (the suites that run pool-parallel
# code; the rest of the suite is single-threaded).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}

RUN_TIER1=0 RUN_ASAN=0 RUN_UBSAN=0 RUN_TSAN=0 RUN_CHAOS=0
case "${1:-}" in
  "")         RUN_TIER1=1 RUN_TSAN=1 ;;
  --all)      RUN_TIER1=1 RUN_ASAN=1 RUN_UBSAN=1 RUN_TSAN=1 RUN_CHAOS=1 ;;
  --asan)     RUN_ASAN=1 ;;
  --ubsan)    RUN_UBSAN=1 ;;
  --tsan)     RUN_TSAN=1 ;;
  --chaos)    RUN_CHAOS=1 ;;
  --tier1|--no-tsan) RUN_TIER1=1 ;;
  *) echo "check.sh: unknown flag '$1'" >&2; exit 2 ;;
esac

# One sanitizer pass: configure a dedicated tree, build, run the full suite.
sanitizer_pass() {
  local name="$1" value="$2" tree="build-$1"
  echo "==> ${name}: DASPOS_SANITIZE=${value} build + full ctest"
  cmake -B "$tree" -S . -DDASPOS_SANITIZE="$value" >/dev/null
  cmake --build "$tree" -j"$JOBS"
  ctest --test-dir "$tree" --output-on-failure -j"$JOBS"
}

# Runs a gtest binary under --gtest_filter. gtest 1.12 has no
# --gtest_fail_if_no_test_selected, so a filter that matches nothing (after
# a rename, say) would pass silently: count the selected tests first.
run_filtered() {
  local binary="$1" filter="$2" listed
  listed=$("$binary" --gtest_list_tests --gtest_filter="$filter")
  if ! grep -q '^  ' <<<"$listed"; then
    echo "check.sh: --gtest_filter='$filter' selects no test in $binary" >&2
    exit 1
  fi
  "$binary" --gtest_filter="$filter"
}

if [ "$RUN_TIER1" = 1 ]; then
  echo "==> tier-1: configure + build + ctest"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS"
  ctest --test-dir build --output-on-failure -j"$JOBS"
fi

# if-blocks, not `[ ... ] && cmd`: under `set -e` a short-circuit && as the
# script's last effective command would exit 1 when the guard is false.
if [ "$RUN_ASAN" = 1 ]; then
  sanitizer_pass asan address
fi
if [ "$RUN_UBSAN" = 1 ]; then
  sanitizer_pass ubsan undefined
fi

if [ "$RUN_TSAN" = 1 ]; then
  echo "==> TSan: DASPOS_SANITIZE=thread build of workflow_test + parallel_test + tiers_test + serialize_test + event_test + trace_test + sync_test + net_test + archive_test + bit_preservation_test + recast_test + reco_test + conditions_test"
  cmake -B build-tsan -S . -DDASPOS_SANITIZE=thread >/dev/null
  cmake --build build-tsan --target workflow_test parallel_test tiers_test \
    serialize_test event_test trace_test sync_test net_test archive_test \
    bit_preservation_test recast_test reco_test conditions_test -j"$JOBS"
  ./build-tsan/tests/workflow_test
  # Includes the per-pool task accounting (ThreadPoolTest.*, and
  # WorkflowReportTest.* for the report's pool block).
  ./build-tsan/tests/parallel_test
  # The tier codecs encode and decode in pool-parallel chunks and splice
  # encoded chunks into one container in chunk order.
  ./build-tsan/tests/tiers_test
  ./build-tsan/tests/serialize_test
  ./build-tsan/tests/event_test
  ./build-tsan/tests/trace_test
  # The annotated sync layer itself: CondVar wakeups and scoped-lock
  # semantics under the race detector.
  ./build-tsan/tests/sync_test
  # The dasposd reactor: 16 concurrent clients against the run-to-completion
  # loop — single-threaded by design, and TSan proves no state leaked across
  # the loop/client boundary.
  ./build-tsan/tests/net_test
  # Store enumeration: ForEachId snapshots under the store lock and calls
  # back unlocked, beside concurrent writers and across replicas — the
  # store contract's walk properties, on every backend and decorator.
  run_filtered ./build-tsan/tests/archive_test 'ObjectStoreContractTest/*.ForEachId*'
  run_filtered ./build-tsan/tests/bit_preservation_test '*ForEachId*'
  # The RECAST back end runs its chain on the engine's worker pool.
  run_filtered ./build-tsan/tests/recast_test 'BackEndTest.*'
  # Reconstruction on a 4-worker pool: the pileup pins run ReconstructAll
  # at 1 and 4 threads, so any scratch state shared across events would
  # race here.
  run_filtered ./build-tsan/tests/reco_test 'ReconstructionPinTest.*'
  # A snapshot's lookup counter is bumped from concurrent GetPayload calls.
  run_filtered ./build-tsan/tests/conditions_test \
    'SnapshotTest.ConcurrentLookupsAreAllCounted'
fi

if [ "$RUN_CHAOS" = 1 ]; then
  # The fault-injection, retry, timeout, keep-going, and checkpoint/resume
  # tests, run wide under TSan: injected faults and retries must not open
  # races in the dispatcher or the journal. The intra-step parallelism and
  # concurrent file-store suites join the pass: chunked hot loops and
  # concurrent store ops are exactly where new races would hide.
  echo "==> chaos: DASPOS_SANITIZE=thread build + fault-tolerance suite"
  cmake -B build-tsan -S . -DDASPOS_SANITIZE=thread >/dev/null
  cmake --build build-tsan --target workflow_test parallel_test archive_test \
    pack_store_test bit_preservation_test torture_test trace_test \
    validate_test sync_test net_test -j"$JOBS"
  run_filtered ./build-tsan/tests/workflow_test \
    'ChaosTest.*:JournalTest.*:WorkflowRetryTest.*:WorkflowKeepGoingTest.*'
  ./build-tsan/tests/parallel_test
  # The store contract on every backend, the base PutBatch fan-out on the
  # pool included, and the archive inventory's reads on a 4-worker pool.
  run_filtered ./build-tsan/tests/archive_test \
    'ObjectStoreContractTest/*:DigestCacheTest.*:PutBatchTest.*:FileObjectStoreTest.*:ArchiveInventory*'
  # The packfile backend under the race detector: concurrent PutBatch
  # preparation on pool workers, lock-free mmap reads of sealed segments,
  # and the quarantine write all share the store mutex.
  ./build-tsan/tests/pack_store_test
  # The bit-preservation layer under the race detector: quorum writes,
  # read-repair, pool-sharded scrub batches, and parallel copy-verify all
  # mutate replica stores from pool workers.
  ./build-tsan/tests/bit_preservation_test
  # Crash-consistency torture: truncated cursors/journals and migrations
  # aborted at every fault ordinal, rerun to convergence.
  ./build-tsan/tests/torture_test
  # The registry and tracer are lock-light shared state touched from every
  # pool worker; the trace suite hammers them from concurrent threads.
  ./build-tsan/tests/trace_test
  # The validation farm fans campaigns and analyses out over the pool while
  # injecting step faults — the same dispatcher/journal/registry surfaces
  # under a second concurrency shape.
  ./build-tsan/tests/validate_test
  # Sync-layer primitives under contention (the locks everything above
  # depends on).
  ./build-tsan/tests/sync_test
  # The network reactor under hostile input: malformed-frame fuzzing,
  # mid-frame disconnects, and backpressure stalls with 16 live clients.
  ./build-tsan/tests/net_test
fi

echo "check.sh: all green"
