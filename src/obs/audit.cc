#include "obs/audit.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace revelio::obs {

namespace {

// Sink state lives behind one mutex: audit submission happens once per
// explanation (not per epoch), so contention is irrelevant next to the
// optimizer work it summarizes. `g_audit_enabled` is the lock-free fast path
// checked by AuditScope's constructor.
std::atomic<bool> g_audit_enabled{false};

struct SinkState {
  std::mutex mu;
  std::FILE* file = nullptr;
  bool in_memory = false;
  std::vector<AuditRecord> retained;
  std::atomic<uint64_t> next_record_id{0};
  std::atomic<uint64_t> submitted{0};
};

SinkState& State() {
  static SinkState* state = new SinkState();
  return *state;
}

// One-shot env pickup: REVELIO_AUDIT_OUT=path streams JSONL there without any
// code changes at the call site (mirrors REVELIO_FLIGHT_DUMP).
void InitFromEnvOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* path = std::getenv("REVELIO_AUDIT_OUT");
    if (path != nullptr && path[0] != '\0') AuditSink::Global().OpenFile(path);
  });
}

// The innermost active scope on this thread. Raw pointer: scopes are
// stack-allocated and strictly nested, so the previous value is restored on
// destruction.
thread_local AuditScope* t_scope = nullptr;

void AppendDoubleArray(JsonWriter* writer, const char* key, const std::vector<double>& values) {
  writer->Key(key);
  writer->BeginArray();
  for (double v : values) writer->Double(v);
  writer->EndArray();
}

}  // namespace

std::string AuditRecordToJson(const AuditRecord& record) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("record_id");
  writer.Uint(record.record_id);
  writer.Key("method");
  writer.String(record.method);
  writer.Key("objective");
  writer.String(record.objective);
  writer.Key("task");
  writer.BeginObject();
  writer.Key("num_nodes");
  writer.Int(record.num_nodes);
  writer.Key("num_edges");
  writer.Int(record.num_edges);
  writer.Key("target_node");
  writer.Int(record.target_node);
  writer.Key("target_class");
  writer.Int(record.target_class);
  writer.EndObject();
  AppendDoubleArray(&writer, "loss_curve", record.loss_curve);
  AppendDoubleArray(&writer, "mask_entropy", record.mask_entropy);
  AppendDoubleArray(&writer, "top_scores", record.top_scores);
  writer.Key("pool");
  writer.BeginObject();
  writer.Key("hits");
  writer.Uint(record.pool_hits);
  writer.Key("misses");
  writer.Uint(record.pool_misses);
  writer.EndObject();
  writer.Key("wall_seconds");
  writer.Double(record.wall_seconds);
  writer.Key("phases");
  writer.BeginObject();
  for (const auto& [name, seconds] : record.phase_seconds) {
    writer.Key(name);
    writer.Double(seconds);
  }
  writer.EndObject();
  writer.Key("config");
  writer.BeginObject();
  for (const auto& [key, value] : record.config) {
    writer.Key(key);
    writer.String(value);
  }
  writer.EndObject();
  writer.EndObject();
  return writer.TakeString();
}

// --- AuditSink ---------------------------------------------------------------

AuditSink& AuditSink::Global() {
  static AuditSink* sink = new AuditSink();
  return *sink;
}

bool AuditSink::enabled() const {
  InitFromEnvOnce();
  return g_audit_enabled.load(std::memory_order_relaxed);
}

bool AuditSink::OpenFile(const std::string& path) {
  SinkState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.file != nullptr) std::fclose(state.file);
  state.file = std::fopen(path.c_str(), "w");
  state.in_memory = false;
  state.retained.clear();
  const bool ok = state.file != nullptr;
  g_audit_enabled.store(ok, std::memory_order_relaxed);
  return ok;
}

void AuditSink::CollectInMemory() {
  SinkState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.file != nullptr) {
    std::fclose(state.file);
    state.file = nullptr;
  }
  state.in_memory = true;
  state.retained.clear();
  g_audit_enabled.store(true, std::memory_order_relaxed);
}

std::vector<AuditRecord> AuditSink::TakeRecords() {
  SinkState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  std::vector<AuditRecord> out = std::move(state.retained);
  state.retained.clear();
  return out;
}

void AuditSink::Close() {
  SinkState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.file != nullptr) {
    std::fclose(state.file);
    state.file = nullptr;
  }
  state.in_memory = false;
  state.retained.clear();
  g_audit_enabled.store(false, std::memory_order_relaxed);
}

void AuditSink::Submit(AuditRecord record) {
  SinkState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  // Stamped under the lock so ids ascend in file order even when
  // explanations running side by side submit concurrently.
  record.record_id = state.next_record_id.fetch_add(1, std::memory_order_relaxed);
  state.submitted.fetch_add(1, std::memory_order_relaxed);
  if (state.file != nullptr) {
    const std::string line = AuditRecordToJson(record);
    std::fwrite(line.data(), 1, line.size(), state.file);
    std::fputc('\n', state.file);
    std::fflush(state.file);
    return;
  }
  if (state.in_memory) state.retained.push_back(std::move(record));
}

uint64_t AuditSink::records_submitted() const {
  return State().submitted.load(std::memory_order_relaxed);
}

// --- AuditScope --------------------------------------------------------------

AuditScope::AuditScope() {
  if (!AuditSink::Global().enabled()) return;
  if (t_scope != nullptr) return;  // nested Explain keeps feeding the outer scope
  active_ = true;
  owns_slot_ = true;
  t_scope = this;
}

AuditScope::~AuditScope() {
  if (owns_slot_) t_scope = nullptr;
}

AuditRecord* AuditScope::Current() {
  return t_scope != nullptr ? t_scope->record() : nullptr;
}

void AuditScope::AddPhase(const char* name, double seconds) {
  if (AuditRecord* record = Current()) record->phase_seconds.emplace_back(name, seconds);
}

void AuditScope::Submit() {
  if (!active_) return;
  AuditSink::Global().Submit(std::move(record_));
  active_ = false;
}

}  // namespace revelio::obs
