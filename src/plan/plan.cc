#include "plan/plan.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/op_helpers.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/parallel.h"

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

// Runs one plan step: a fused run sweeps every member chunk over each flat
// range in tape order (same bits as running the member ops back to back,
// since chunked kernels are pointwise); a plain step re-runs its recorded
// closure.
void ExecuteStep(const tensor::rec::OpTape& tape, const PlanStep& step) {
  if (step.fused) {
    const auto& ops = tape.ops;
    const auto& indices = step.op_indices;
    util::ParallelFor(0, step.numel, tensor::kElementwiseGrain,
                      [&ops, &indices](int64_t begin, int64_t end) {
                        for (int idx : indices) ops[idx].chunk(begin, end);
                      });
  } else {
    tape.ops[step.op_indices[0]].replay();
  }
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

std::unique_ptr<Plan> BuildPlan(const tensor::rec::OpTape* tape) {
  CHECK(tape != nullptr);
  auto plan = std::make_unique<Plan>();
  const auto& ops = tape->ops;
  const int n = static_cast<int>(ops.size());
  plan->num_ops_ = n;

  // Fusion: maximal runs of consecutive tape ops that expose a chunk kernel
  // with the same flat extent. Tape order resolves in-group dependencies
  // per chunk, so the fused sweep is bitwise-equal to the op-by-op replay.
  int i = 0;
  while (i < n) {
    PlanStep step;
    step.op_indices.push_back(i);
    if (ops[i].chunk) {
      int j = i + 1;
      while (j < n && ops[j].chunk && ops[j].numel == ops[i].numel) {
        step.op_indices.push_back(j);
        ++j;
      }
    }
    if (step.op_indices.size() > 1) {
      step.fused = true;
      step.numel = ops[i].numel;
      plan->fused_ops_ += static_cast<int>(step.op_indices.size());
    }
    i += static_cast<int>(step.op_indices.size());
    plan->steps_.push_back(std::move(step));
  }

  // Dependence levels: a step's level is one past the deepest step producing
  // any of its inputs. Steps sharing a level are independent.
  std::unordered_map<const tensor::internal::TensorNode*, int> producer_step;
  for (int s = 0; s < static_cast<int>(plan->steps_.size()); ++s) {
    for (int op : plan->steps_[s].op_indices) producer_step[ops[op].out.get()] = s;
  }
  int max_level = -1;
  for (int s = 0; s < static_cast<int>(plan->steps_.size()); ++s) {
    PlanStep& step = plan->steps_[s];
    int level = 0;
    for (int op : step.op_indices) {
      for (const auto& input : ops[op].inputs) {
        auto it = producer_step.find(input.get());
        if (it != producer_step.end() && it->second != s) {
          level = std::max(level, plan->steps_[it->second].level + 1);
        }
      }
    }
    step.level = level;
    max_level = std::max(max_level, level);
  }
  plan->levels_.assign(static_cast<size_t>(max_level + 1), {});
  for (int s = 0; s < static_cast<int>(plan->steps_.size()); ++s) {
    plan->levels_[plan->steps_[s].level].push_back(s);
  }
  return plan;
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

void PlanSession::Seal(const tensor::Tensor& root, PlanKey key) {
  CHECK(root.defined());
  CHECK(tensor::rec::ActiveTape() != &tape_) << "Seal inside this session's RecordScope";
  obs::ScopedSpan span("plan.seal", obs::FlightPolicy::kSkip);
  root_ = root;
  key_ = std::move(key);
  global_version_ = GlobalPlanVersion();
  plan_ = BuildPlan(&tape_);
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
  static obs::Counter* fused = obs::MetricsRegistry::Global().GetCounter("plan.fused_ops");
  records->Increment();
  steps->Add(plan_->steps().size());
  fused->Add(static_cast<uint64_t>(plan_->fused_ops()));
}

bool PlanSession::Replay(const PlanKey& key) {
  if (plan_ == nullptr) return false;
  if (global_version_ != GlobalPlanVersion() || key != key_) {
    static obs::Counter* invalidations =
        obs::MetricsRegistry::Global().GetCounter("plan.invalidations");
    invalidations->Increment();
    Invalidate();
    return false;
  }
  obs::ScopedSpan span("plan.replay", obs::FlightPolicy::kSkip);

  // Forward: levels in order; independent steps within a level go wide on
  // the thread pool (each step writes only its own output, and nested
  // ParallelFor inside a step runs serially — see util/parallel.h).
  for (const auto& level : plan_->levels()) {
    if (level.size() > 1 && util::NumThreads() > 1) {
      const auto& steps = plan_->steps();
      const auto& tape = tape_;
      util::ParallelFor(0, static_cast<int64_t>(level.size()), 1,
                        [&level, &steps, &tape](int64_t begin, int64_t end) {
                          for (int64_t s = begin; s < end; ++s) {
                            ExecuteStep(tape, steps[level[s]]);
                          }
                        });
    } else {
      for (int s : level) ExecuteStep(tape_, plan_->steps()[s]);
    }
  }

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
  plan_.reset();
  backward_order_.clear();
  grad_nodes_.clear();
}

}  // namespace revelio::plan
