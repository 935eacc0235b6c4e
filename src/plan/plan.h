#ifndef REVELIO_PLAN_PLAN_H_
#define REVELIO_PLAN_PLAN_H_

// Recorded execution plans (DESIGN.md §12).
//
// The explanation inner loops are shape-stable across optimizer epochs, so
// after recording one epoch's op tape (tensor/record.h) the remaining
// epochs replay through a compiled Plan instead of re-dispatching the eager
// ops: consecutive same-extent elementwise ops are fused into one parallel
// sweep, independent steps within a dependence level run on the thread
// pool, and nothing is allocated: the tape pins every node, so each kernel
// reruns on the buffer the previous epoch left behind. The backward pass
// replays through the node order cached at seal time — the exact order
// Tensor::Backward would compute — so a replayed epoch is bitwise-identical
// to an eager one at any thread count.
//
// The one training loop that records and replays plans is
// explain::LearnMasks (explain/mask_learning.h); a session lives for one
// LearnMasks call, i.e. for one explanation, so the graph, shapes and flow
// set it recorded cannot change under it.
//
// Toggle: REVELIO_EXEC_PLAN=0 (env) or SetExecPlanEnabled(false) makes the
// training loops run fully eager — the legacy path, bitwise-identical
// results.
//
// Re-record trigger: a BumpGlobalPlanVersion() call (fault injection, global
// invalidation) makes Replay() return false after discarding the stale
// plan; the caller then records a fresh epoch.

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/record.h"
#include "tensor/tensor.h"

namespace revelio::plan {

// Process-wide switch (relaxed atomic; the default reads the environment once).
bool ExecPlanEnabled();
void SetExecPlanEnabled(bool enabled);

// Monotone global invalidation epoch. Bumping it invalidates every sealed
// plan in the process at its next Replay() — the hook fault injection and
// cross-cutting invalidation (e.g. registry reloads) use.
uint64_t GlobalPlanVersion();
void BumpGlobalPlanVersion();

// One executable unit: a single tape op, or a fused run of consecutive
// same-extent elementwise ops executed as one parallel sweep.
struct PlanStep {
  std::vector<int> op_indices;  // tape indices, in tape order
  bool fused = false;
  int64_t numel = 0;  // flat extent shared by a fused run
  int level = 0;      // dependence level (0 = no recorded producers)
};

class Plan {
 public:
  const std::vector<PlanStep>& steps() const { return steps_; }
  // Steps grouped by dependence level; steps within a level have no
  // dependencies on each other and may run concurrently.
  const std::vector<std::vector<int>>& levels() const { return levels_; }
  int num_ops() const { return num_ops_; }
  // Ops that were folded into multi-op fused steps.
  int fused_ops() const { return fused_ops_; }

 private:
  friend std::unique_ptr<Plan> BuildPlan(const tensor::rec::OpTape* tape);

  std::vector<PlanStep> steps_;
  std::vector<std::vector<int>> levels_;
  int num_ops_ = 0;
  int fused_ops_ = 0;
};

// Compiles a recorded tape: fuses maximal runs of consecutive same-extent
// elementwise ops and assigns dependence levels. The tape must outlive the
// plan (steps index into it).
std::unique_ptr<Plan> BuildPlan(const tensor::rec::OpTape* tape);

// Owns one training loop's recorded tape, compiled plan, and cached backward
// order. Usage per epoch:
//
//   if (!use_plan || !session.Replay()) {
//     { PlanSession::RecordScope record(use_plan ? &session : nullptr);
//       loss = BuildForward(); }
//     loss.Backward();
//     if (use_plan) session.Seal(loss);
//   }
//
// Not thread-safe; one session per loop, used from one thread at a time.
class PlanSession {
 public:
  PlanSession() = default;
  ~PlanSession();
  PlanSession(const PlanSession&) = delete;
  PlanSession& operator=(const PlanSession&) = delete;

  // Installs the session's tape as the thread's active tape for the scope's
  // lifetime (clearing any previous recording). A null session is a no-op,
  // so callers can gate recording on the runtime flag without duplicating
  // the forward-build code.
  class RecordScope {
   public:
    explicit RecordScope(PlanSession* session);
    ~RecordScope();
    RecordScope(const RecordScope&) = delete;
    RecordScope& operator=(const RecordScope&) = delete;

   private:
    tensor::rec::OpTape* previous_ = nullptr;
    bool installed_ = false;
  };

  // Compiles the recorded tape against `root` (the scalar loss) and caches
  // the backward order.
  void Seal(const tensor::Tensor& root);

  // Re-executes the sealed plan (forward by level, then the cached backward
  // order) and returns true. Returns false — after discarding the stale
  // plan — when no plan is sealed or the global plan version moved since
  // the seal; the caller must re-record.
  bool Replay();

  // Drops the plan, tape, and cached orders, severing the retained autograd
  // tape so intermediates are freed.
  void Invalidate();

  bool sealed() const { return plan_ != nullptr; }
  const Plan* plan() const { return plan_.get(); }
  const tensor::rec::OpTape& tape() const { return tape_; }

 private:
  tensor::rec::OpTape tape_;
  std::unique_ptr<Plan> plan_;
  tensor::Tensor root_;
  uint64_t global_version_ = 0;
  // Backward order cached at seal (post-order; run in reverse), and the
  // subset with backward_fns whose grads are zeroed before each replay.
  std::vector<tensor::internal::TensorNode*> backward_order_;
  std::vector<tensor::internal::TensorNode*> grad_nodes_;
};

}  // namespace revelio::plan

#endif  // REVELIO_PLAN_PLAN_H_
