#include "tensor/record.h"

#include <utility>

namespace revelio::tensor::rec {

namespace detail {
thread_local OpTape* g_active_tape = nullptr;
}  // namespace detail

using detail::g_active_tape;

void Record(const char* name, std::shared_ptr<internal::TensorNode> out,
            std::vector<std::shared_ptr<internal::TensorNode>> inputs,
            std::function<void()> replay) {
  OpTape* tape = g_active_tape;
  if (tape == nullptr) return;
  RecordedOp op;
  op.name = name;
  op.out = std::move(out);
  op.inputs = std::move(inputs);
  op.replay = std::move(replay);
  tape->ops.push_back(std::move(op));
}

}  // namespace revelio::tensor::rec
