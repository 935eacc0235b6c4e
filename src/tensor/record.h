#ifndef REVELIO_TENSOR_RECORD_H_
#define REVELIO_TENSOR_RECORD_H_

// Op-tape recording hooks for the plan subsystem (src/plan).
//
// While a thread-local tape is installed (rec::SetActiveTape), every op
// implementation appends one RecordedOp describing how to recompute its
// output values in place from its input nodes' current values. The closure
// captures raw pointers into the node buffers — valid for the lifetime of
// the tape, which pins every node via shared_ptr — plus by-value copies of
// any caller-owned index vectors (copied only when recording, so the eager
// path pays nothing beyond one thread-local null check per op).
//
// The recorded closures re-run the exact float expressions of the eager
// kernels (they are the same lambdas), so replay is bitwise-equal to eager
// execution — the contract proven by tests/prop/plan_equivalence_test.cc.

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace revelio::tensor::rec {

struct RecordedOp {
  const char* name = "";  // registry name (tensor/op_registry.cc)
  std::shared_ptr<internal::TensorNode> out;
  std::vector<std::shared_ptr<internal::TensorNode>> inputs;
  // Recomputes out->values from the inputs' current values. Never touches
  // grads or obs counters; always safe to re-run.
  std::function<void()> replay;
};

// A recorded epoch: ops in construction order (a topological order of the
// data dependencies by definition of program order).
struct OpTape {
  std::vector<RecordedOp> ops;
};

namespace detail {
// Exposed for the inline readers below; use ActiveTape()/SetActiveTape().
extern thread_local OpTape* g_active_tape;
}  // namespace detail

// The calling thread's active tape (nullptr when not recording). Inline so
// the per-op Recording() guard compiles to one thread-local load + compare.
inline OpTape* ActiveTape() { return detail::g_active_tape; }
inline void SetActiveTape(OpTape* tape) { detail::g_active_tape = tape; }
inline bool Recording() { return ActiveTape() != nullptr; }

// Appends one op to the active tape. Callers must guard with Recording()
// so the eager path never pays for closure materialization.
void Record(const char* name, std::shared_ptr<internal::TensorNode> out,
            std::vector<std::shared_ptr<internal::TensorNode>> inputs,
            std::function<void()> replay);

}  // namespace revelio::tensor::rec

#endif  // REVELIO_TENSOR_RECORD_H_
