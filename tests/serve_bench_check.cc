// Standalone validator for the serving-trace bench result, used as a ctest
// fixture after `bench_serve --quick`:
//   serve_bench_check <BENCH_serve.json>
// Exit 0 when the file carries the shared BENCH_*.json envelope, the trace
// point exists, the server's observed accepted/rejected/timed-out/served
// counts EXACTLY match the oracle-computed expectations for the seeded
// trace, every served explanation was bitwise-equal to batch ExplainAll,
// and the measured p99 latency stayed within the stated SLO bound. Exit 1
// on validation failure, 2 on usage/IO errors.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace {

using revelio::obs::JsonValue;

const JsonValue* RequireNumber(const JsonValue& object, const char* key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_number()) {
    std::fprintf(stderr, "serve_bench_check: missing numeric \"%s\"\n", key);
    return nullptr;
  }
  return value;
}

bool RequireExactMatch(const JsonValue& point, const char* expected_key,
                       const char* observed_key) {
  const JsonValue* expected = RequireNumber(point, expected_key);
  const JsonValue* observed = RequireNumber(point, observed_key);
  if (expected == nullptr || observed == nullptr) return false;
  if (expected->number_value != observed->number_value) {
    std::fprintf(stderr,
                 "serve_bench_check: %s=%.0f does not match oracle %s=%.0f\n",
                 observed_key, observed->number_value, expected_key,
                 expected->number_value);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: serve_bench_check <BENCH_serve.json>\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "serve_bench_check: cannot open %s\n", argv[1]);
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  JsonValue root;
  std::string error;
  if (!revelio::obs::ParseJson(buffer.str(), &root, &error)) {
    std::fprintf(stderr, "serve_bench_check: %s is malformed JSON: %s\n", argv[1],
                 error.c_str());
    return 1;
  }
  if (!root.is_object()) {
    std::fprintf(stderr, "serve_bench_check: top level is not an object\n");
    return 1;
  }

  // Shared envelope (bench/bench_common.h WriteBenchJson).
  const JsonValue* schema = root.Find("schema_version");
  if (schema == nullptr || !schema->is_number() || schema->number_value != 1) {
    std::fprintf(stderr, "serve_bench_check: missing schema_version 1\n");
    return 1;
  }
  const JsonValue* bench = root.Find("bench");
  if (bench == nullptr || !bench->is_string() || bench->string_value != "serve_trace") {
    std::fprintf(stderr, "serve_bench_check: bench name is not serve_trace\n");
    return 1;
  }
  const JsonValue* data = root.Find("data");
  if (data == nullptr || !data->is_object()) {
    std::fprintf(stderr, "serve_bench_check: missing data object\n");
    return 1;
  }
  const JsonValue* requests = RequireNumber(*data, "requests");
  if (requests == nullptr || requests->number_value <= 0.0) {
    std::fprintf(stderr, "serve_bench_check: empty trace\n");
    return 1;
  }
  const JsonValue* points = data->Find("points");
  if (points == nullptr || !points->is_array() || points->array_items.empty()) {
    std::fprintf(stderr, "serve_bench_check: missing non-empty data.points array\n");
    return 1;
  }
  const JsonValue& point = points->array_items[0];
  if (!point.is_object()) {
    std::fprintf(stderr, "serve_bench_check: point 0 is not an object\n");
    return 1;
  }

  // Admission counts must match the trace's independently computed oracle
  // EXACTLY — a drift of one request means the queue lost, duplicated, or
  // misclassified an admission decision.
  if (!RequireExactMatch(point, "expected_accepted", "observed_accepted") ||
      !RequireExactMatch(point, "expected_rejected", "observed_rejected") ||
      !RequireExactMatch(point, "expected_timed_out", "observed_timed_out") ||
      !RequireExactMatch(point, "expected_served", "observed_served")) {
    return 1;
  }
  const JsonValue* counts_match = point.Find("counts_match");
  if (counts_match == nullptr || counts_match->type != JsonValue::Type::kBool ||
      !counts_match->bool_value) {
    std::fprintf(stderr, "serve_bench_check: per-request outcomes diverged from oracle\n");
    return 1;
  }

  // Determinism: serving is a scheduling layer, never a numerics change.
  const JsonValue* bitwise = point.Find("bitwise_equal");
  if (bitwise == nullptr || bitwise->type != JsonValue::Type::kBool) {
    std::fprintf(stderr, "serve_bench_check: missing bool bitwise_equal\n");
    return 1;
  }
  if (!bitwise->bool_value) {
    std::fprintf(stderr,
                 "serve_bench_check: served explanations diverged from batch ExplainAll\n");
    return 1;
  }
  const JsonValue* served_checked = RequireNumber(point, "served_checked");
  if (served_checked == nullptr || served_checked->number_value <= 0.0) {
    std::fprintf(stderr, "serve_bench_check: no served explanations were compared\n");
    return 1;
  }

  // SLO envelope: p99 latency within the stated bound at the quick trace size.
  const JsonValue* p99 = RequireNumber(point, "p99_seconds");
  const JsonValue* p99_bound = RequireNumber(point, "p99_bound_seconds");
  const JsonValue* speedup = RequireNumber(point, "serve_speedup");
  if (p99 == nullptr || p99_bound == nullptr || speedup == nullptr) return 1;
  if (p99->number_value > p99_bound->number_value) {
    std::fprintf(stderr, "serve_bench_check: p99 latency %.4fs exceeds the %.4fs bound\n",
                 p99->number_value, p99_bound->number_value);
    return 1;
  }

  std::printf(
      "serve_bench_check: %s ok (%.0f requests, oracle-exact admission, bitwise-equal "
      "results, p99 %.4fs <= %.1fs, speedup %.2fx)\n",
      argv[1], requests->number_value, p99->number_value, p99_bound->number_value,
      speedup->number_value);
  return 0;
}
