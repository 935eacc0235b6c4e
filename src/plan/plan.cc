#include "plan/plan.h"

#include <algorithm>
#include <atomic>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/flags.h"

namespace revelio::plan {

namespace {

std::atomic<bool>& ExecPlanFlag() {
  static std::atomic<bool> flag(util::EnvFlag("REVELIO_EXEC_PLAN", true));
  return flag;
}

std::atomic<uint64_t>& GlobalVersionCounter() {
  static std::atomic<uint64_t> version(1);
  return version;
}

}  // namespace

bool ExecPlanEnabled() { return ExecPlanFlag().load(std::memory_order_relaxed); }

void SetExecPlanEnabled(bool enabled) {
  ExecPlanFlag().store(enabled, std::memory_order_relaxed);
}

uint64_t GlobalPlanVersion() {
  return GlobalVersionCounter().load(std::memory_order_relaxed);
}

void BumpGlobalPlanVersion() {
  GlobalVersionCounter().fetch_add(1, std::memory_order_relaxed);
}

PlanSession::~PlanSession() { Invalidate(); }

PlanSession::RecordScope::RecordScope(PlanSession* session) {
  if (session == nullptr) return;
  previous_ = tensor::rec::ActiveTape();
  session->tape_.ops.clear();
  tensor::rec::SetActiveTape(&session->tape_);
  installed_ = true;
}

PlanSession::RecordScope::~RecordScope() {
  if (installed_) tensor::rec::SetActiveTape(previous_);
}

void PlanSession::Seal(const tensor::Tensor& root) {
  CHECK(root.defined());
  CHECK(tensor::rec::ActiveTape() != &tape_) << "Seal inside this session's RecordScope";
  obs::ScopedSpan span("plan.seal", obs::FlightPolicy::kSkip);
  root_ = root;
  global_version_ = GlobalPlanVersion();
  backward_order_.clear();
  grad_nodes_.clear();
  if (root.node()->requires_grad) {
    tensor::internal::CollectBackwardOrder(root.node().get(), &backward_order_);
    for (auto* node : backward_order_) {
      if (node->backward_fn) grad_nodes_.push_back(node);
    }
  }
  static obs::Counter* records = obs::MetricsRegistry::Global().GetCounter("plan.records");
  static obs::Counter* steps = obs::MetricsRegistry::Global().GetCounter("plan.steps");
  records->Increment();
  steps->Add(tape_.ops.size());
}

bool PlanSession::Replay() {
  if (!sealed()) return false;
  if (global_version_ != GlobalPlanVersion()) {
    static obs::Counter* invalidations =
        obs::MetricsRegistry::Global().GetCounter("plan.invalidations");
    invalidations->Increment();
    Invalidate();
    return false;
  }
  obs::ScopedSpan span("plan.replay", obs::FlightPolicy::kSkip);

  // Forward: tape order, a topological order of the recorded ops.
  for (const auto& op : tape_.ops) op.replay();

  // Backward: fresh grads for every tape node (leaf grads belong to the
  // optimizer), seed the root, then the cached order — exactly what an
  // eager Backward() on a freshly built tape computes.
  if (!backward_order_.empty()) {
    for (auto* node : grad_nodes_) {
      std::fill(node->grad.begin(), node->grad.end(), 0.0f);
    }
    tensor::internal::TensorNode* root = root_.node().get();
    root->EnsureGrad();
    root->grad[0] += 1.0f;
    for (auto it = backward_order_.rbegin(); it != backward_order_.rend(); ++it) {
      if ((*it)->backward_fn) (*it)->backward_fn();
    }
  }

  static obs::Counter* replays = obs::MetricsRegistry::Global().GetCounter("plan.replays");
  replays->Increment();
  return true;
}

void PlanSession::Invalidate() {
  if (root_.defined()) root_.ReleaseTape();
  root_ = tensor::Tensor();
  tape_.ops.clear();
  backward_order_.clear();
  grad_nodes_.clear();
}

}  // namespace revelio::plan
