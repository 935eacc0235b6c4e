#ifndef REVELIO_TENSOR_OP_HELPERS_H_
#define REVELIO_TENSOR_OP_HELPERS_H_

// Shared plumbing for op implementations. Internal to src/tensor.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace revelio::tensor {

// Result nodes: internal::NewNode (tensor.h) states the full-overwrite-or-
// self-zero contract every kernel keeps.
using internal::NewNode;

// Result node with the same shape as `like`.
std::shared_ptr<internal::TensorNode> NewNodeLike(const Tensor& like);

// If any input requires grad, records `inputs` as parents of `out` and
// installs `backward` (invoked with the raw result node; parents are
// reachable as out->parents in the same order as `inputs`). Otherwise the
// result stays detached from the graph.
void AttachBackward(const std::shared_ptr<internal::TensorNode>& out,
                    std::initializer_list<Tensor> inputs,
                    std::function<void(internal::TensorNode*)> backward);

// target->grad[i] += scale * grad[i] for all i (no-op if target does not
// require grad). Shapes must match.
void AccumulateInto(internal::TensorNode* target, const std::vector<float>& grad, float scale);

// CHECK-fails unless a and b have identical shapes.
void CheckSameShape(const Tensor& a, const Tensor& b, const char* op_name);

}  // namespace revelio::tensor

#endif  // REVELIO_TENSOR_OP_HELPERS_H_
