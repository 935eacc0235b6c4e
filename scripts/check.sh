#!/usr/bin/env bash
# Full verification ladder: tier-1 -> property suites -> ASan -> UBSan -> TSan.
# The property stage includes the aggregation suites (spmm_equivalence_test:
# the one SpMM kernel against its gather/scale/scatter chain oracle;
# dense_reference_test: the GCN/GIN/GAT layers against a dense adjacency),
# the serving equivalence suite (serve_equivalence_test), and the plan replay
# harness (plan_equivalence_test); the TSan pass runs each as its own named
# stage so a data race in the aggregation kernel or the layers over it, the
# concurrent instance-parallel serving groups, or plan replay inside
# instance-parallel explanation is attributed directly. The plan and simd stages rerun their
# equivalence suites under ASan, including the plan replay over NaN-filled
# outputs (plan_equivalence_test), so full-overwrite contract violations
# surface as NaNs: any vector sweep that over-reads past a tensor's end or
# reads a stale output as data trips ASan or the bitwise check respectively.
# All five mask-learning explainers train through one plan-driving loop
# (explain::LearnMasks), so the plan and tsan-plan stages also run
# explain_test (plan on/off and divergence cases per method).
# (UBSan covers the intrinsic wrappers too — simd.cc is in the instrumented
# smoke set, so misaligned or out-of-range lane arithmetic fails the ubsan
# stage.)
#
# Usage: scripts/check.sh [--fast] [-j N]
#   --fast   skip the sanitizer stages (tier1 + prop only)
#   -j N     build parallelism (default 4)
#
# Each stage configures/builds its preset if needed, then runs the matching
# ctest selection. A summary table is printed at the end; the exit code is
# non-zero if any stage failed.

set -u

cd "$(dirname "$0")/.."

JOBS=4
FAST=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) FAST=1 ;;
    -j) shift; JOBS="$1" ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

STAGE_NAMES=()
STAGE_RESULTS=()
STAGE_SECONDS=()

# run_stage <name> <command...>
run_stage() {
  local name="$1"
  shift
  echo
  echo "=== ${name}: $* ==="
  local start=$SECONDS
  if "$@"; then
    STAGE_RESULTS+=("PASS")
  else
    STAGE_RESULTS+=("FAIL")
  fi
  STAGE_NAMES+=("${name}")
  STAGE_SECONDS+=($((SECONDS - start)))
}

# build_preset <preset>: configure once, then (re)build.
build_preset() {
  local preset="$1"
  local dir="build"
  [[ "${preset}" != "default" ]] && dir="build-${preset}"
  if [[ ! -f "${dir}/CMakeCache.txt" ]]; then
    cmake --preset "${preset}" || return 1
  fi
  cmake --build --preset "${preset}" -j "${JOBS}"
}

run_stage "build"      build_preset default
run_stage "tier1"      ctest --test-dir build -L tier1 --output-on-failure
run_stage "prop"       ctest --test-dir build -L prop --output-on-failure
# The tier-1 bench fixtures regenerated build/BENCH_*.json; fail if any
# bench's primary speedup field regressed >10% against the committed
# baselines in bench/fixtures/.
run_stage "bench-diff" python3 scripts/bench_diff.py
run_stage "san-smoke"  ctest --test-dir build -L san --output-on-failure

if [[ "${FAST}" -eq 0 ]]; then
  run_stage "asan-build"  build_preset asan
  run_stage "asan"        ctest --preset asan
  # Plan replay again under ASan: replay reruns every kernel in place, so the
  # NaN-prefill test turns a step that skips (or under-writes) an output into
  # a NaN in the bitwise comparison while ASan watches the buffers' bounds.
  run_stage "plan"        ctest --preset asan -R "plan_equivalence_test|plan_test|explain_test"
  # SIMD equivalence under ASan: the vector sweeps must never read past n
  # (the scalar tail owns the remainder), and the NaN-prefill replay test
  # reruns the SIMD kernels over NaN-filled outputs. parallel_test adds
  # MatMul's dA at the workload shapes (short inner lengths, half-zero
  # gradients) through the transposed-weight scratch.
  run_stage "simd"        ctest --preset asan -R "simd_equivalence_test|parallel_test|plan_equivalence_test"
  run_stage "ubsan-build" build_preset ubsan
  run_stage "ubsan"       ctest --preset ubsan
  run_stage "tsan-build"  build_preset tsan
  # Aggregation under TSan: the kernel-vs-chain suite and the only
  # layer-level suite over the kernel, swept across thread counts (the
  # kernel itself runs serially on each explanation's thread).
  run_stage "tsan-spmm"   ctest --preset tsan -R "spmm_equivalence_test|dense_reference_test"
  # Serving engine under TSan: the fault-injection suite, the equivalence
  # sweep (concurrent workers + coalescing vs batch ExplainAll), and the
  # trace-replay fixture all hammer the admission queue with concurrent
  # submitters, worker pop/coalesce loops, and mid-stream shutdown.
  run_stage "tsan-serve"  ctest --preset tsan -L serve
  # Serving equivalence again with the flight recorder forced on: multi-worker
  # coalesced groups each dispatch an instance-parallel ExplainBatch, so the
  # recorder's lock-free ring takes concurrent writes from several
  # ParallelFor regions sharing one frozen model while TSan watches.
  run_stage "tsan-flight" env REVELIO_FLIGHT_RECORDER=1 ctest --preset tsan -R serve_equivalence_test
  # Plan replay under TSan: instance-parallel ExplainBatch replays one plan
  # session per instance on thread-pool workers, and re-record after
  # invalidation races the global plan version bump; both must stay clean
  # across thread counts. explain_test drives every mask-learning explainer
  # through the same loop.
  run_stage "tsan-plan"   ctest --preset tsan -R "plan_equivalence_test|plan_test|explain_test"
  run_stage "tsan"        ctest --preset tsan -LE serve -E "spmm_equivalence_test|dense_reference_test|plan_equivalence_test|plan_test|explain_test"
fi

echo
echo "== summary =="
printf '%-12s %-6s %8s\n' "stage" "result" "seconds"
FAILED=0
for i in "${!STAGE_NAMES[@]}"; do
  printf '%-12s %-6s %8s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}" "${STAGE_SECONDS[$i]}"
  [[ "${STAGE_RESULTS[$i]}" == "FAIL" ]] && FAILED=1
done
if [[ "${FAILED}" -ne 0 ]]; then
  echo "RESULT: FAIL"
  exit 1
fi
echo "RESULT: PASS"
