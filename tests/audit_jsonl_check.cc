// Standalone validator for per-explanation audit JSONL, used as a ctest
// fixture after `bench_table5_runtime --audit-out`:
//   audit_jsonl_check <audit.jsonl> [min_records]
// Exit 0 when every line is a schema-valid audit record:
//   - well-formed single-line JSON with the documented fields,
//   - loss_curve and mask_entropy the same length with every entry finite
//     (the JSON writer nulls non-finite doubles, so a null here means an
//     Inf/NaN leaked out of an audit hook),
//   - record_id unique and strictly increasing down the file.
// Exit 1 on validation failure, 2 on usage/IO errors.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

using revelio::obs::JsonValue;

bool Fail(size_t line_no, const char* message) {
  std::fprintf(stderr, "audit_jsonl_check: line %zu: %s\n", line_no, message);
  return false;
}

const JsonValue* FiniteNumber(const JsonValue& object, const char* key, size_t line_no) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_number() || !std::isfinite(value->number_value)) {
    std::fprintf(stderr, "audit_jsonl_check: line %zu: missing finite numeric \"%s\"\n",
                 line_no, key);
    return nullptr;
  }
  return value;
}

bool FiniteArray(const JsonValue& object, const char* key, size_t line_no, size_t* length) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_array()) {
    std::fprintf(stderr, "audit_jsonl_check: line %zu: missing array \"%s\"\n", line_no, key);
    return false;
  }
  for (size_t i = 0; i < value->array_items.size(); ++i) {
    const JsonValue& entry = value->array_items[i];
    if (!entry.is_number() || !std::isfinite(entry.number_value)) {
      std::fprintf(stderr,
                   "audit_jsonl_check: line %zu: %s[%zu] is not a finite number "
                   "(a null here means Inf/NaN leaked from an audit hook)\n",
                   line_no, key, i);
      return false;
    }
  }
  *length = value->array_items.size();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr, "usage: audit_jsonl_check <audit.jsonl> [min_records]\n");
    return 2;
  }
  const long min_records = argc == 3 ? std::strtol(argv[2], nullptr, 10) : 1;
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "audit_jsonl_check: cannot open %s\n", argv[1]);
    return 2;
  }

  size_t records = 0;
  size_t line_no = 0;
  bool have_prev_id = false;
  double prev_id = -1.0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;

    JsonValue record;
    std::string error;
    if (!revelio::obs::ParseJson(line, &record, &error)) {
      std::fprintf(stderr, "audit_jsonl_check: line %zu: malformed JSON: %s\n", line_no,
                   error.c_str());
      return 1;
    }
    if (!record.is_object()) return Fail(line_no, "record is not an object"), 1;

    const JsonValue* record_id = FiniteNumber(record, "record_id", line_no);
    const JsonValue* wall = FiniteNumber(record, "wall_seconds", line_no);
    if (record_id == nullptr || wall == nullptr) return 1;
    const JsonValue* method = record.Find("method");
    if (method == nullptr || !method->is_string() || method->string_value.empty()) {
      return Fail(line_no, "missing non-empty string \"method\""), 1;
    }
    const JsonValue* objective = record.Find("objective");
    if (objective == nullptr || !objective->is_string()) {
      return Fail(line_no, "missing string \"objective\""), 1;
    }
    const JsonValue* task = record.Find("task");
    if (task == nullptr || !task->is_object()) {
      return Fail(line_no, "missing object \"task\""), 1;
    }
    if (FiniteNumber(*task, "num_nodes", line_no) == nullptr ||
        FiniteNumber(*task, "num_edges", line_no) == nullptr) {
      return 1;
    }
    const JsonValue* pool = record.Find("pool");
    if (pool == nullptr || !pool->is_object() ||
        FiniteNumber(*pool, "hits", line_no) == nullptr ||
        FiniteNumber(*pool, "misses", line_no) == nullptr) {
      return Fail(line_no, "missing pool {hits, misses}"), 1;
    }

    // Convergence curves: one loss and one entropy sample per epoch, finite.
    size_t loss_len = 0;
    size_t entropy_len = 0;
    if (!FiniteArray(record, "loss_curve", line_no, &loss_len)) return 1;
    if (!FiniteArray(record, "mask_entropy", line_no, &entropy_len)) return 1;
    size_t scores_len = 0;
    if (!FiniteArray(record, "top_scores", line_no, &scores_len)) return 1;
    if (loss_len != entropy_len) {
      return Fail(line_no, "loss_curve and mask_entropy lengths differ"), 1;
    }

    if (have_prev_id && record_id->number_value <= prev_id) {
      return Fail(line_no, "record_id not strictly increasing"), 1;
    }
    prev_id = record_id->number_value;
    have_prev_id = true;
    ++records;
  }

  if (records < static_cast<size_t>(min_records)) {
    std::fprintf(stderr, "audit_jsonl_check: %zu records < required %ld\n", records,
                 min_records);
    return 1;
  }
  std::printf("audit_jsonl_check: %s ok (%zu records)\n", argv[1], records);
  return 0;
}
