#include "tensor/tensor.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace revelio::tensor {

using internal::TensorNode;

namespace internal {

namespace {

// glibc serves requests above a dynamic threshold (128 KiB at start) with
// mmap, and returns free heap top above 128 KiB to the OS. GNN pretraining
// allocates and frees the same activations every epoch, so both defaults
// turn each epoch into mmap/munmap and trim/page-fault churn. Fixed
// thresholds keep those buffers on the heap for reuse.
bool SetAllocatorThresholds() {
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
#endif
  return true;
}

// Runs during static initialization, before the first tensor allocation.
[[maybe_unused]] const bool kAllocatorThresholdsSet = SetAllocatorThresholds();

}  // namespace

std::shared_ptr<TensorNode> NewNode(int rows, int cols) {
  CHECK_GE(rows, 0);
  CHECK_GE(cols, 0);
  auto node = std::make_shared<TensorNode>();
  node->rows = rows;
  node->cols = cols;
  node->values.resize(static_cast<size_t>(rows) * cols);
  return node;
}

void TensorNode::EnsureGrad() {
  if (grad.empty()) grad.resize(values.size());
}

void CollectBackwardOrder(TensorNode* root, std::vector<TensorNode*>* order) {
  // Iterative post-order DFS producing a topological order (children after
  // all of their parents when traversed in reverse). The containers are
  // thread_local: Backward runs hundreds of times per explained instance and
  // reusing their storage keeps the steady-state epoch allocation-free.
  thread_local std::unordered_set<TensorNode*> visited;
  thread_local std::vector<std::pair<TensorNode*, size_t>> stack;
  visited.clear();
  stack.clear();
  stack.emplace_back(root, 0);
  visited.insert(root);
  while (!stack.empty()) {
    auto& [current, next_parent] = stack.back();
    if (next_parent < current->parents.size()) {
      TensorNode* parent = current->parents[next_parent].get();
      ++next_parent;
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.emplace_back(parent, 0);
      }
    } else {
      order->push_back(current);
      stack.pop_back();
    }
  }
}

}  // namespace internal

Tensor Tensor::FromNode(std::shared_ptr<TensorNode> node) {
  Tensor t;
  t.node_ = std::move(node);
  return t;
}

Tensor Tensor::Zeros(int rows, int cols) { return FromNode(internal::NewNode(rows, cols)); }

Tensor Tensor::Ones(int rows, int cols) { return Full(rows, cols, 1.0f); }

Tensor Tensor::Full(int rows, int cols, float value) {
  auto node = internal::NewNode(rows, cols);
  for (auto& v : node->values) v = value;
  return FromNode(std::move(node));
}

Tensor Tensor::FromData(int rows, int cols, std::vector<float> values) {
  CHECK_EQ(static_cast<int64_t>(values.size()), static_cast<int64_t>(rows) * cols);
  auto node = std::make_shared<TensorNode>();
  node->rows = rows;
  node->cols = cols;
  node->values = std::move(values);
  return FromNode(std::move(node));
}

Tensor Tensor::FromVector(const std::vector<float>& values) {
  return FromData(static_cast<int>(values.size()), 1, values);
}

Tensor Tensor::Randn(int rows, int cols, util::Rng* rng) {
  auto node = internal::NewNode(rows, cols);
  for (auto& v : node->values) v = static_cast<float>(rng->Normal());
  return FromNode(std::move(node));
}

Tensor Tensor::Uniform(int rows, int cols, float lo, float hi, util::Rng* rng) {
  auto node = internal::NewNode(rows, cols);
  for (auto& v : node->values) v = static_cast<float>(rng->Uniform(lo, hi));
  return FromNode(std::move(node));
}

Tensor Tensor::WithRequiresGrad() {
  CHECK(node_ != nullptr);
  CHECK(!node_->backward_fn) << "requires_grad can only be set on leaf tensors";
  node_->requires_grad = true;
  return *this;
}

void Tensor::DisableGrad() {
  CHECK(node_ != nullptr);
  CHECK(!node_->backward_fn) << "DisableGrad is only valid on leaf tensors";
  node_->requires_grad = false;
  std::vector<float>().swap(node_->grad);
}

float Tensor::At(int r, int c) const {
  CHECK(node_ != nullptr);
  DCHECK(r >= 0 && r < node_->rows && c >= 0 && c < node_->cols)
      << "index (" << r << "," << c << ") out of range " << node_->rows << "x" << node_->cols;
  return node_->values[static_cast<size_t>(r) * node_->cols + c];
}

void Tensor::SetAt(int r, int c, float value) {
  CHECK(node_ != nullptr);
  CHECK(!node_->backward_fn) << "SetAt is only valid on leaf tensors";
  CHECK(r >= 0 && r < node_->rows && c >= 0 && c < node_->cols);
  node_->values[static_cast<size_t>(r) * node_->cols + c] = value;
}

float Tensor::Value() const {
  CHECK(is_scalar()) << "Value() requires a 1x1 tensor, got " << rows() << "x" << cols();
  return node_->values[0];
}

const std::vector<float>& Tensor::values() const {
  CHECK(node_ != nullptr);
  return node_->values;
}

std::vector<float>* Tensor::mutable_values() {
  CHECK(node_ != nullptr);
  CHECK(!node_->backward_fn) << "mutable_values is only valid on leaf tensors";
  return &node_->values;
}

void Tensor::Backward() const {
  CHECK(node_ != nullptr);
  CHECK(is_scalar()) << "Backward() must start from a scalar loss";
  CHECK(node_->requires_grad) << "Backward() on a tensor that does not require grad";

  thread_local std::vector<TensorNode*> order;
  order.clear();
  internal::CollectBackwardOrder(node_.get(), &order);

  node_->EnsureGrad();
  node_->grad[0] += 1.0f;
  // `order` is post-order: parents before children, so walk it backwards.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backward_fn) (*it)->backward_fn();
  }
}

float Tensor::GradAt(int r, int c) const {
  CHECK(node_ != nullptr);
  CHECK(r >= 0 && r < node_->rows && c >= 0 && c < node_->cols);
  if (node_->grad.empty()) return 0.0f;
  return node_->grad[static_cast<size_t>(r) * node_->cols + c];
}

std::vector<float> Tensor::GradData() const {
  CHECK(node_ != nullptr);
  return node_->grad;
}

const std::vector<float>& Tensor::GradValues() const {
  CHECK(node_ != nullptr);
  return node_->grad;
}

void Tensor::ReleaseTape() const {
  if (node_ == nullptr || !node_->backward_fn) return;
  // Two phases: collect every reachable node (holding shared_ptrs so the
  // graph cannot die mid-walk), then cut all edges at once. Cutting first
  // also flattens destruction: once no parent links remain, each node dies
  // independently instead of through a deep recursive shared_ptr chain.
  thread_local std::vector<std::shared_ptr<TensorNode>> reachable;
  thread_local std::unordered_set<TensorNode*> visited;
  thread_local std::vector<TensorNode*> stack;
  reachable.clear();
  visited.clear();
  stack.clear();
  stack.push_back(node_.get());
  visited.insert(node_.get());
  while (!stack.empty()) {
    TensorNode* current = stack.back();
    stack.pop_back();
    for (const auto& parent : current->parents) {
      if (visited.insert(parent.get()).second) {
        reachable.push_back(parent);
        stack.push_back(parent.get());
      }
    }
  }
  auto sever = [](TensorNode* node) {
    if (!node->backward_fn) return;  // leaf parameter: keep values and grad
    node->backward_fn = nullptr;
    node->parents.clear();
    std::vector<float>().swap(node->grad);
  };
  sever(node_.get());
  for (const auto& node : reachable) sever(node.get());
  reachable.clear();  // drop the temporary refs: orphaned intermediates die here
}

void Tensor::ZeroGrad() {
  CHECK(node_ != nullptr);
  std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
}

Tensor Tensor::Detach() const {
  CHECK(node_ != nullptr);
  auto node = internal::NewNode(rows(), cols());
  std::copy(node_->values.begin(), node_->values.end(), node->values.begin());
  return FromNode(std::move(node));
}

std::string Tensor::DebugString(int max_entries) const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream out;
  out << "Tensor(" << rows() << "x" << cols() << ", [";
  const int64_t n = numel();
  for (int64_t i = 0; i < n && i < max_entries; ++i) {
    if (i > 0) out << ", ";
    out << node_->values[i];
  }
  if (n > max_entries) out << ", ...";
  out << "])";
  return out.str();
}

}  // namespace revelio::tensor
