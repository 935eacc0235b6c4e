#ifndef REVELIO_OBS_AUDIT_H_
#define REVELIO_OBS_AUDIT_H_

// Per-explanation audit records: every Explainer::Explain call (including
// each task of an ExplainBatch) can emit one AuditRecord capturing
// how the explanation was produced — the loss/convergence curve, mask entropy
// per epoch, the top-k score distribution, pool hit/miss deltas, per-phase
// wall time, and the config that drove the run. Records are exported as JSON
// Lines (one object per line) so long runs stream instead of buffering.
//
// Collection is pull-free: the non-virtual Explainer::Explain wrapper opens
// an AuditScope; explainer internals call AuditScope::Current() and get
// nullptr when auditing is off (one thread-local load — no allocation, no
// formatting). Everything the hooks do is *read-only* with respect to the
// numerics: audit on vs off is bitwise-identical by construction, pinned by
// tests/prop/audit_equivalence_test.cc.
//
// Enabling: AuditSink::Global().OpenFile(path) (bench --audit-out),
// AuditSink::Global().CollectInMemory() (tests), or the REVELIO_AUDIT_OUT
// environment variable picked up on first use.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace revelio::obs {

struct AuditRecord {
  // Identity. `record_id` is assigned by the sink at submit time and is
  // unique per process.
  uint64_t record_id = 0;
  std::string method;
  std::string objective;

  // Task shape.
  int num_nodes = 0;
  int num_edges = 0;
  int target_node = -1;
  int target_class = 0;

  // Convergence: one entry per optimizer epoch (empty for non-learning
  // methods). Entropy is the mean binary entropy of the method's mask
  // distribution that epoch — a falling curve means masks are binarizing.
  std::vector<double> loss_curve;
  std::vector<double> mask_entropy;

  // Final score distribution: the top-k scores, sorted descending (flow
  // scores when the method produces them, base-edge scores otherwise).
  std::vector<double> top_scores;

  // Pool delta over the call (the calling thread's pool).
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;

  // Wall time. Phases are method-reported (enumerate/prefilter/optimize/...).
  double wall_seconds = 0.0;
  std::vector<std::pair<std::string, double>> phase_seconds;

  // The config that produced this explanation (method options plus the
  // process-level switches that affect the execution path).
  std::vector<std::pair<std::string, std::string>> config;
};

// Serializes one record as a single-line JSON object (no trailing newline).
std::string AuditRecordToJson(const AuditRecord& record);

class AuditSink {
 public:
  static AuditSink& Global();

  bool enabled() const;

  // Streams records to `path` as JSONL. Creates/truncates the file; returns
  // false (sink disabled) when the file cannot be opened.
  bool OpenFile(const std::string& path);
  // Collects records in memory instead (tests). TakeRecords drains them.
  void CollectInMemory();
  std::vector<AuditRecord> TakeRecords();
  // Flushes and disables the sink.
  void Close();

  // Stamps record_id, then writes or retains the record. Thread-safe.
  void Submit(AuditRecord record);

  uint64_t records_submitted() const;

 private:
  AuditSink() = default;
};

// RAII collection scope for one Explain call, holding that call's single
// record. When the sink is disabled, constructing a scope is a no-op and
// Current() stays nullptr, so per-epoch hooks cost one thread-local load.
// Scopes do not nest: an explainer that recursively explains (SubgraphX
// fidelity probes) keeps writing into the outermost scope's record. Scopes
// are per thread, so explanations running side by side each fill their own.
class AuditScope {
 public:
  AuditScope();
  ~AuditScope();
  AuditScope(const AuditScope&) = delete;
  AuditScope& operator=(const AuditScope&) = delete;

  bool active() const { return active_; }
  // This scope's record, or nullptr when inactive.
  AuditRecord* record() { return active_ ? &record_ : nullptr; }

  // The record of the active scope on this thread, or nullptr when auditing
  // is off. Explainer hooks use this so they need no plumbing.
  static AuditRecord* Current();

  // Appends a phase timing to the current record (no-op when auditing is
  // off).
  static void AddPhase(const char* name, double seconds);

  // Submits the record to the sink now (called by the Explain wrapper after
  // it finishes stamping totals).
  void Submit();

 private:
  bool active_ = false;
  bool owns_slot_ = false;
  AuditRecord record_;
};

}  // namespace revelio::obs

#endif  // REVELIO_OBS_AUDIT_H_
