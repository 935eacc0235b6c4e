// Standalone validator for the recorded-execution-plan sweep, used as a
// ctest fixture after `bench_table5_runtime --plan-sweep`:
//   plan_bench_check <BENCH_plan.json>
// Exit 0 when the file carries the shared BENCH_*.json envelope and, for
// every sweep point, the replayed explanations were bitwise-equal to the
// eager loop and the plan path replayed at all. The plan path must beat
// eager by >= 1.15x at the largest epoch count, where the record cost is
// fully amortized — the committed sweep measures well above that, so the
// gate has headroom against scheduler noise without ever accepting a
// regression to parity. Exit 1 on validation failure, 2 on usage/IO errors.

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
    std::fprintf(stderr, "plan_bench_check: missing numeric \"%s\"\n", key);
    return nullptr;
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: plan_bench_check <BENCH_plan.json>\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "plan_bench_check: cannot open %s\n", argv[1]);
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  JsonValue root;
  std::string error;
  if (!revelio::obs::ParseJson(buffer.str(), &root, &error)) {
    std::fprintf(stderr, "plan_bench_check: %s is malformed JSON: %s\n", argv[1],
                 error.c_str());
    return 1;
  }
  if (!root.is_object()) {
    std::fprintf(stderr, "plan_bench_check: top level is not an object\n");
    return 1;
  }

  // Shared envelope (bench/bench_common.h WriteBenchJson).
  const JsonValue* schema = root.Find("schema_version");
  if (schema == nullptr || !schema->is_number() || schema->number_value != 1) {
    std::fprintf(stderr, "plan_bench_check: missing schema_version 1\n");
    return 1;
  }
  const JsonValue* bench = root.Find("bench");
  if (bench == nullptr || !bench->is_string() || bench->string_value != "plan_sweep") {
    std::fprintf(stderr, "plan_bench_check: bench name is not plan_sweep\n");
    return 1;
  }
  const JsonValue* data = root.Find("data");
  if (data == nullptr || !data->is_object()) {
    std::fprintf(stderr, "plan_bench_check: missing data object\n");
    return 1;
  }
  const JsonValue* points = data->Find("points");
  if (points == nullptr || !points->is_array() || points->array_items.empty()) {
    std::fprintf(stderr, "plan_bench_check: missing non-empty data.points array\n");
    return 1;
  }

  double largest_epochs = -1.0;
  double largest_speedup = 0.0;
  for (size_t i = 0; i < points->array_items.size(); ++i) {
    const JsonValue& point = points->array_items[i];
    if (!point.is_object()) {
      std::fprintf(stderr, "plan_bench_check: point %zu is not an object\n", i);
      return 1;
    }
    const JsonValue* epochs = RequireNumber(point, "epochs");
    const JsonValue* eager_seconds = RequireNumber(point, "eager_seconds");
    const JsonValue* plan_seconds = RequireNumber(point, "plan_seconds");
    const JsonValue* speedup = RequireNumber(point, "plan_speedup");
    const JsonValue* replays = RequireNumber(point, "replays");
    if (epochs == nullptr || eager_seconds == nullptr || plan_seconds == nullptr ||
        speedup == nullptr || replays == nullptr) {
      return 1;
    }
    if (eager_seconds->number_value <= 0.0 || plan_seconds->number_value <= 0.0) {
      std::fprintf(stderr, "plan_bench_check: point %zu has non-positive seconds\n", i);
      return 1;
    }
    const JsonValue* bitwise = point.Find("bitwise_equal");
    if (bitwise == nullptr || bitwise->type != JsonValue::Type::kBool) {
      std::fprintf(stderr, "plan_bench_check: point %zu lacks bool bitwise_equal\n", i);
      return 1;
    }
    if (!bitwise->bool_value) {
      std::fprintf(stderr,
                   "plan_bench_check: point %zu (epochs=%.0f): replayed explanations "
                   "diverged from the eager loop\n",
                   i, epochs->number_value);
      return 1;
    }
    if (replays->number_value <= 0.0) {
      std::fprintf(stderr,
                   "plan_bench_check: point %zu (epochs=%.0f): plan path never "
                   "replayed (vacuous sweep)\n",
                   i, epochs->number_value);
      return 1;
    }
    if (epochs->number_value > largest_epochs) {
      largest_epochs = epochs->number_value;
      largest_speedup = speedup->number_value;
    }
  }

  if (largest_speedup < 1.15) {
    std::fprintf(stderr,
                 "plan_bench_check: plan replay lost its margin over eager at the "
                 "largest sweep size (epochs=%.0f, speedup=%.3fx < 1.15x)\n",
                 largest_epochs, largest_speedup);
    return 1;
  }
  std::printf(
      "plan_bench_check: %s ok (%zu points, largest epochs=%.0f speedup=%.2fx)\n",
      argv[1], points->array_items.size(), largest_epochs, largest_speedup);
  return 0;
}
