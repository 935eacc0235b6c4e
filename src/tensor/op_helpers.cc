#include "tensor/op_helpers.h"

#include "tensor/simd.h"

namespace revelio::tensor {

using internal::TensorNode;

std::shared_ptr<TensorNode> NewNodeLike(const Tensor& like) {
  CHECK(like.defined());
  return NewNode(like.rows(), like.cols());
}

void AttachBackward(const std::shared_ptr<TensorNode>& out, std::initializer_list<Tensor> inputs,
                    std::function<void(TensorNode*)> backward) {
  bool any_grad = false;
  for (const Tensor& t : inputs) {
    CHECK(t.defined());
    if (t.requires_grad()) any_grad = true;
  }
  if (!any_grad) return;
  out->requires_grad = true;
  out->parents.reserve(inputs.size());
  for (const Tensor& t : inputs) out->parents.push_back(t.node());
  TensorNode* raw = out.get();
  out->backward_fn = [raw, backward = std::move(backward)]() {
    raw->EnsureGrad();
    backward(raw);
  };
}

void AccumulateInto(TensorNode* target, const std::vector<float>& grad, float scale) {
  if (!target->requires_grad) return;
  target->EnsureGrad();
  CHECK_EQ(target->grad.size(), grad.size());
  simd::MulAccF32(grad.data(), scale, target->grad.data(), static_cast<int64_t>(grad.size()));
}

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op_name) {
  CHECK(a.defined() && b.defined()) << op_name << " on undefined tensor";
  CHECK(a.rows() == b.rows() && a.cols() == b.cols())
      << op_name << " shape mismatch: " << a.rows() << "x" << a.cols() << " vs " << b.rows()
      << "x" << b.cols();
}

}  // namespace revelio::tensor
