#include "tensor/op_registry.h"

#include <algorithm>

namespace revelio::tensor {

const std::vector<std::string>& RegisteredOpNames() {
  static const std::vector<std::string>* const kNames = new std::vector<std::string>{
      // Elementwise binary.
      "Add", "Sub", "Mul", "AddRowBroadcast",
      // Scalar.
      "AddScalar", "MulScalar", "Neg", "ScaleByScalarTensor",
      // Activations.
      "Relu", "LeakyRelu", "Tanh", "Sigmoid", "Exp", "Log", "Softplus",
      // Linear algebra.
      "MatMul",
      // Reductions.
      "Sum", "Mean",
      // Row-wise softmax.
      "RowSoftmax", "RowLogSoftmax",
      // Indexing / message passing.
      "GatherRows", "ScatterAddRows", "RowScale", "ConcatCols", "SegmentSoftmax",
      "SegmentMaxRows", "Select", "NllLoss",
      // Sparse aggregation.
      "SpmmCsrWeighted",
  };
  return *kNames;
}

bool IsRegisteredOp(const std::string& name) {
  const std::vector<std::string>& names = RegisteredOpNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace revelio::tensor
