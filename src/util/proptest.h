#ifndef REVELIO_UTIL_PROPTEST_H_
#define REVELIO_UTIL_PROPTEST_H_

// Minimal property-based testing framework.
//
// A property is checked against many inputs drawn from a Domain<T>: each case
// gets its own Rng seeded deterministically from (base seed, case index), so
// any failure is reproducible from the printed case seed alone. When a case
// fails, the framework greedily applies the domain's shrink candidates that
// still fail the property, and reports the shrunk counterexample together
// with the reproducing environment variables.
//
// The framework is test-framework agnostic: ForAll returns a CheckResult and
// the caller asserts on it (EXPECT_TRUE(r.ok) << r.report under GTest).
//
// Environment overrides (read by DefaultConfig):
//   REVELIO_PROP_SEED   base seed (decimal or 0x-hex); use the seed printed
//                       in a failure report to replay just that case
//   REVELIO_PROP_CASES  number of cases per property (set to 1 when replaying)

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace revelio::util {

struct PropConfig {
  int num_cases = 100;
  uint64_t seed = 0x5eed5eedULL;
  // Upper bound on property evaluations spent shrinking a counterexample.
  int max_shrink_steps = 400;
  // True when REVELIO_PROP_SEED was set: the base seed is itself a case seed,
  // so cases are derived as (seed, seed+1, ...) without mixing.
  bool replay = false;
};

// Default config with environment overrides applied.
PropConfig DefaultPropConfig(int num_cases = 100, uint64_t seed = 0x5eed5eedULL);

// Deterministic per-case seed derived from the base seed (SplitMix64 mix).
uint64_t PropCaseSeed(uint64_t base_seed, int case_index);

// Formats a seed the way failure reports print it (0x-hex).
std::string FormatSeed(uint64_t seed);

// Outcome of one ForAll run. `report` is empty when ok.
struct CheckResult {
  bool ok = true;
  std::string report;
  int cases_run = 0;
  int shrink_steps = 0;
};

// --- Tolerance classes (DESIGN.md §13) ---------------------------------------
// Equivalence proofs between kernel variants declare how close "equal" is:
//   kBitwise        identical bit patterns, element by element. The contract
//                   for kernels that preserve the serial fold order exactly
//                   (elementwise ops, axpy accumulations, matmul/spmm forward).
//   kUlpBounded     within `max_ulps` representable-float steps, OR within
//                   abs_epsilon absolutely (the floor absorbs catastrophic
//                   cancellation, where a reordered sum lands near zero and
//                   ulp distance is meaningless). For deterministic
//                   reductions whose fold order differs from the serial loop
//                   (lane-partial dot products).
enum class ToleranceClass { kBitwise, kUlpBounded };

struct Tolerance {
  ToleranceClass cls = ToleranceClass::kBitwise;
  int64_t max_ulps = 0;      // kUlpBounded
  double abs_epsilon = 0.0;  // kUlpBounded absolute floor

  static Tolerance Bitwise() { return {}; }
  static Tolerance Ulps(int64_t max_ulps, double abs_floor = 0.0) {
    Tolerance t;
    t.cls = ToleranceClass::kUlpBounded;
    t.max_ulps = max_ulps;
    t.abs_epsilon = abs_floor;
    return t;
  }
  // "bitwise" or "ulp-bounded(<=N)".
  std::string Name() const;
};

// Distance between a and b in representable-float steps (0 iff bitwise
// equal; INT64_MAX when exactly one is NaN, or both are NaN with different
// payloads). Adjacent finite floats — including -0.0f vs +0.0f — are 1 apart.
int64_t UlpDistance(float a, float b);

// Compares two float streams element by element under `tol`. Returns "" when
// every element passes, else a message naming the first offending index, the
// two values (bits included) and the measured distance. `label` prefixes the
// message (e.g. the op under test).
std::string CompareFloatStreams(const float* actual, const float* expected, int64_t n,
                                const Tolerance& tol, const std::string& label = "");

// A generator plus optional shrinker/printer for values of type T.
template <typename T>
struct Domain {
  // Draws one value. Must be fully deterministic in the Rng stream.
  std::function<T(Rng&)> generate;
  // Returns smaller candidates to try when `value` fails a property. May be
  // empty (no shrinking). Candidates are tried in order; the first one that
  // still fails becomes the new counterexample.
  std::function<std::vector<T>(const T&)> shrink;
  // Renders a counterexample for the failure report. May be empty.
  std::function<std::string(const T&)> describe;
};

// Checks `property` against `config.num_cases` inputs drawn from `domain`.
// The property returns an empty string on success and a failure message
// otherwise (exceptions are not used; CHECK-aborts are out of scope).
// Stops at the first failing case, shrinks it, and reports.
template <typename T>
CheckResult ForAll(const std::string& property_name, const Domain<T>& domain,
                   const std::function<std::string(const T&)>& property,
                   const PropConfig& config = DefaultPropConfig()) {
  CheckResult result;
  for (int c = 0; c < config.num_cases; ++c) {
    const uint64_t case_seed =
        config.replay ? config.seed + static_cast<uint64_t>(c) : PropCaseSeed(config.seed, c);
    Rng rng(case_seed);
    T input = domain.generate(rng);
    std::string failure = property(input);
    ++result.cases_run;
    if (failure.empty()) continue;

    // Greedy shrink: repeatedly take the first candidate that still fails.
    if (domain.shrink) {
      bool progressed = true;
      while (progressed && result.shrink_steps < config.max_shrink_steps) {
        progressed = false;
        for (T& candidate : domain.shrink(input)) {
          if (++result.shrink_steps > config.max_shrink_steps) break;
          std::string candidate_failure = property(candidate);
          if (!candidate_failure.empty()) {
            input = std::move(candidate);
            failure = std::move(candidate_failure);
            progressed = true;
            break;
          }
        }
      }
    }

    result.ok = false;
    std::string report;
    report += "[proptest] property '" + property_name + "' FAILED\n";
    report += "  case " + std::to_string(c) + " of " + std::to_string(config.num_cases) +
              ", case seed " + FormatSeed(case_seed) + "\n";
    report += "  reproduce with: REVELIO_PROP_SEED=" + FormatSeed(case_seed) +
              " REVELIO_PROP_CASES=1 <test binary>\n";
    if (result.shrink_steps > 0) {
      report += "  counterexample shrunk in " + std::to_string(result.shrink_steps) + " steps\n";
    }
    if (domain.describe) {
      report += "  counterexample: " + domain.describe(input) + "\n";
    }
    report += "  failure: " + failure;
    result.report = std::move(report);
    return result;
  }
  return result;
}

}  // namespace revelio::util

#endif  // REVELIO_UTIL_PROPTEST_H_
