#ifndef REVELIO_TENSOR_TENSOR_H_
#define REVELIO_TENSOR_TENSOR_H_

// Dense float tensor with reverse-mode automatic differentiation.
//
// This is the substrate that stands in for libtorch: all GNN layers, losses
// and the Revelio mask-learning machinery are differentiated through it.
// Tensors are 2-D (rows x cols); column vectors are N x 1. A Tensor is a
// cheap value-semantic handle onto a shared node in the autograd graph.
//
// Typical usage:
//   Tensor w = Tensor::Randn(in, out, &rng).WithRequiresGrad();
//   Tensor y = MatMul(x, w);
//   Tensor loss = Mean(y);
//   loss.Backward();
//   // w.GradAt(i, j) now holds dloss/dw[i,j].

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace revelio::tensor {

class Tensor;

namespace internal {

// One node of the autograd graph. Owned via shared_ptr by Tensor handles and
// by child nodes (through `parents`), so a forward graph stays alive until
// the last handle to its output is dropped. Storage is a plain
// zero-initialized std::vector (DESIGN.md §9).
struct TensorNode {
  int rows = 0;
  int cols = 0;
  std::vector<float> values;
  std::vector<float> grad;  // allocated on demand, same size as values
  bool requires_grad = false;

  // Upstream nodes this node was computed from (empty for leaves).
  std::vector<std::shared_ptr<TensorNode>> parents;

  // Propagates this node's grad into its parents' grads. Only set when
  // requires_grad is true and the node is not a leaf.
  std::function<void()> backward_fn;

  int64_t numel() const { return static_cast<int64_t>(rows) * cols; }
  // Zero-initialized grad buffer (no-op if already present).
  void EnsureGrad();
};

// A node of the given shape with zero-initialized values: the one allocator
// behind every factory and op result.
//
// Kernels must fully overwrite their output or zero it themselves; they may
// not rely on the fresh zeros. Plan replay (src/plan) reruns each recorded
// kernel on the buffer the previous epoch left behind.
std::shared_ptr<TensorNode> NewNode(int rows, int cols);

// Appends to `order` the post-order DFS over requires_grad parents rooted at
// `root` (parents before children when read backwards — the order Backward()
// runs backward_fns in). Shared by Tensor::Backward and the plan subsystem,
// which caches the order at seal time so replayed backward passes are
// bitwise-identical to eager ones.
void CollectBackwardOrder(TensorNode* root, std::vector<TensorNode*>* order);

}  // namespace internal

// Value-semantic handle to a tensor node.
class Tensor {
 public:
  // Default-constructed tensors are empty (rows == cols == 0) and must be
  // assigned before use.
  Tensor() = default;

  // --- Factories -----------------------------------------------------------

  static Tensor Zeros(int rows, int cols);
  static Tensor Ones(int rows, int cols);
  static Tensor Full(int rows, int cols, float value);
  static Tensor FromData(int rows, int cols, std::vector<float> values);
  // Column vector (n x 1) from raw values.
  static Tensor FromVector(const std::vector<float>& values);
  // I.i.d. standard normal entries.
  static Tensor Randn(int rows, int cols, util::Rng* rng);
  // I.i.d. uniform entries in [lo, hi).
  static Tensor Uniform(int rows, int cols, float lo, float hi, util::Rng* rng);

  // Marks this (leaf) tensor as a trainable parameter and returns it.
  Tensor WithRequiresGrad();

  // Clears requires_grad on this leaf tensor and drops any accumulated
  // gradient. Frozen parameters are skipped by Backward(), which keeps
  // concurrent backward passes through a shared model race-free.
  void DisableGrad();

  // --- Shape and element access --------------------------------------------

  bool defined() const { return node_ != nullptr; }
  int rows() const { return node_ ? node_->rows : 0; }
  int cols() const { return node_ ? node_->cols : 0; }
  int64_t numel() const { return node_ ? node_->numel() : 0; }
  bool is_scalar() const { return rows() == 1 && cols() == 1; }

  float At(int r, int c) const;
  // Mutates a value in place. Only valid on leaf tensors (no backward_fn);
  // used when building inputs and by optimizers.
  void SetAt(int r, int c, float value);

  // Scalar extraction; requires a 1x1 tensor.
  float Value() const;

  const std::vector<float>& values() const;
  std::vector<float>* mutable_values();

  // --- Autograd -------------------------------------------------------------

  bool requires_grad() const { return node_ && node_->requires_grad; }

  // Runs backpropagation from this scalar tensor: seeds d(self)/d(self) = 1
  // and accumulates gradients into every upstream tensor with requires_grad.
  void Backward() const;

  // Gradient accumulated by the last Backward() calls (0 if none reached it).
  float GradAt(int r, int c) const;
  // Gradient values as a flat vector (empty if no gradient was accumulated).
  std::vector<float> GradData() const;
  // Same, by reference (no copy): valid until the node dies or the grad is
  // released. Optimizers read this every step.
  const std::vector<float>& GradValues() const;
  // Clears the accumulated gradient (optimizers call this between steps).
  void ZeroGrad();

  // Severs the autograd tape behind this tensor: clears backward_fn and the
  // parent links (and frees the grad buffer) of every reachable non-leaf
  // node, so intermediates kept alive only by the tape free their storage
  // immediately. This tensor's values survive; leaf parameters
  // (and their grads) are untouched. Call at the end of each training epoch,
  // after the optimizer step.
  void ReleaseTape() const;

  // A leaf copy of the values, detached from the autograd graph.
  Tensor Detach() const;

  // Human-readable rendering, e.g. for test failure messages.
  std::string DebugString(int max_entries = 32) const;

  // --- Internal (used by op implementations) --------------------------------

  const std::shared_ptr<internal::TensorNode>& node() const { return node_; }
  static Tensor FromNode(std::shared_ptr<internal::TensorNode> node);

 private:
  std::shared_ptr<internal::TensorNode> node_;
};

}  // namespace revelio::tensor

#endif  // REVELIO_TENSOR_TENSOR_H_
