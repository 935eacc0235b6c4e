#include "prop/prop_util.h"

#include <cmath>
#include <cstdio>

namespace revelio::proptest {
namespace {

using tensor::Tensor;

constexpr uint64_t kWeightSeedSalt = 0x77e1677e1677e167ULL;

struct Shape {
  int rows;
  int cols;
  bool fd;  // include in the finite-difference suite
};

std::string ShapeTag(int rows, int cols) {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

// Input styles; shapes stay FD-safe for the op they are used with.
enum class Fill { kUniform, kAwayFromZero, kDistinct, kPositive, kNarrow, kLogProb };

Tensor FillLeaf(util::Rng& rng, int rows, int cols, Fill fill) {
  switch (fill) {
    case Fill::kUniform:
      return RandLeaf(rng, rows, cols);
    case Fill::kAwayFromZero:
      return RandAwayFromZero(rng, rows, cols);
    case Fill::kDistinct:
      return RandDistinct(rng, rows, cols);
    case Fill::kPositive:
      return RandLeaf(rng, rows, cols, 0.5f, 3.0f);
    case Fill::kNarrow:
      return RandLeaf(rng, rows, cols, -1.5f, 1.5f);
    case Fill::kLogProb:
      return RandLeaf(rng, rows, cols, -3.0f, -0.1f);
  }
  return Tensor();
}

}  // namespace

std::vector<OpCase> MakeOpCases(uint64_t seed, bool include_large) {
  std::vector<OpCase> cases;
  util::Rng idx_rng(seed);  // draws every fixed index argument, in order

  auto add = [&cases](std::string op, std::string variant, bool fd,
                      std::function<std::vector<Tensor>(util::Rng&)> make_inputs,
                      std::function<Tensor(const std::vector<Tensor>&)> forward) {
    OpCase c;
    c.op = std::move(op);
    c.variant = std::move(variant);
    c.fd_checkable = fd;
    c.make_inputs = std::move(make_inputs);
    c.forward = std::move(forward);
    cases.push_back(std::move(c));
  };

  // Elementwise unary ops: same shape sweep for all of them.
  auto unary = [&](const std::string& op, Fill fill,
                   std::function<Tensor(const Tensor&)> fn) {
    std::vector<Shape> shapes = {{5, 4, true}, {1, 1, true}, {0, 3, true}};
    if (include_large) shapes.push_back({600, 60, false});
    for (const Shape& s : shapes) {
      // Large instances skip FD, so plain uniform values are fine everywhere.
      const Fill f = s.fd ? fill : Fill::kUniform;
      add(op, ShapeTag(s.rows, s.cols), s.fd,
          [s, f](util::Rng& rng) { return std::vector<Tensor>{FillLeaf(rng, s.rows, s.cols, f)}; },
          [fn](const std::vector<Tensor>& in) { return fn(in[0]); });
    }
  };
  unary("Relu", Fill::kAwayFromZero, [](const Tensor& a) { return tensor::Relu(a); });
  unary("LeakyRelu", Fill::kAwayFromZero,
        [](const Tensor& a) { return tensor::LeakyRelu(a, 0.2f); });
  unary("Tanh", Fill::kUniform, [](const Tensor& a) { return tensor::Tanh(a); });
  unary("Sigmoid", Fill::kUniform, [](const Tensor& a) { return tensor::Sigmoid(a); });
  unary("Exp", Fill::kNarrow, [](const Tensor& a) { return tensor::Exp(a); });
  unary("Log", Fill::kPositive, [](const Tensor& a) { return tensor::Log(a); });
  unary("Softplus", Fill::kUniform, [](const Tensor& a) { return tensor::Softplus(a); });
  unary("Neg", Fill::kUniform, [](const Tensor& a) { return tensor::Neg(a); });
  unary("AddScalar", Fill::kUniform, [](const Tensor& a) { return tensor::AddScalar(a, 0.7f); });
  unary("MulScalar", Fill::kUniform, [](const Tensor& a) { return tensor::MulScalar(a, -1.3f); });
  unary("Sum", Fill::kUniform, [](const Tensor& a) { return tensor::Sum(a); });
  unary("RowSoftmax", Fill::kUniform, [](const Tensor& a) { return tensor::RowSoftmax(a); });
  unary("RowLogSoftmax", Fill::kUniform,
        [](const Tensor& a) { return tensor::RowLogSoftmax(a); });

  // Mean CHECK-fails on empty tensors; no 0-row variant.
  {
    std::vector<Shape> shapes = {{5, 4, true}, {1, 1, true}};
    if (include_large) shapes.push_back({600, 60, false});
    for (const Shape& s : shapes) {
      add("Mean", ShapeTag(s.rows, s.cols), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.rows, s.cols, Fill::kUniform)};
          },
          [](const std::vector<Tensor>& in) { return tensor::Mean(in[0]); });
    }
  }

  // Elementwise binary ops.
  auto binary = [&](const std::string& op,
                    std::function<Tensor(const Tensor&, const Tensor&)> fn) {
    std::vector<Shape> shapes = {{5, 4, true}, {1, 1, true}, {0, 3, true}};
    if (include_large) shapes.push_back({600, 60, false});
    for (const Shape& s : shapes) {
      add(op, ShapeTag(s.rows, s.cols), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.rows, s.cols, Fill::kUniform),
                                       FillLeaf(rng, s.rows, s.cols, Fill::kUniform)};
          },
          [fn](const std::vector<Tensor>& in) { return fn(in[0], in[1]); });
    }
  };
  binary("Add", [](const Tensor& a, const Tensor& b) { return tensor::Add(a, b); });
  binary("Sub", [](const Tensor& a, const Tensor& b) { return tensor::Sub(a, b); });
  binary("Mul", [](const Tensor& a, const Tensor& b) { return tensor::Mul(a, b); });

  // AddRowBroadcast: (N x C) + (1 x C).
  {
    std::vector<Shape> shapes = {{5, 4, true}, {1, 1, true}, {0, 4, true}};
    if (include_large) shapes.push_back({2000, 40, false});
    for (const Shape& s : shapes) {
      add("AddRowBroadcast", ShapeTag(s.rows, s.cols), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.rows, s.cols, Fill::kUniform),
                                       FillLeaf(rng, 1, s.cols, Fill::kUniform)};
          },
          [](const std::vector<Tensor>& in) { return tensor::AddRowBroadcast(in[0], in[1]); });
    }
  }

  // ScaleByScalarTensor: (N x C) scaled by a differentiable 1x1.
  {
    std::vector<Shape> shapes = {{5, 4, true}, {1, 1, true}, {0, 3, true}};
    if (include_large) shapes.push_back({600, 60, false});
    for (const Shape& s : shapes) {
      add("ScaleByScalarTensor", ShapeTag(s.rows, s.cols), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.rows, s.cols, Fill::kUniform),
                                       FillLeaf(rng, 1, 1, Fill::kUniform)};
          },
          [](const std::vector<Tensor>& in) {
            return tensor::ScaleByScalarTensor(in[0], in[1]);
          });
    }
  }

  // MatMul: (N x K) x (K x M).
  {
    struct MatShape {
      int n, k, m;
      bool fd;
    };
    std::vector<MatShape> shapes = {{5, 3, 4, true}, {1, 1, 1, true}, {0, 3, 4, true}};
    if (include_large) shapes.push_back({256, 64, 48, false});
    for (const MatShape& s : shapes) {
      add("MatMul",
          ShapeTag(s.n, s.k) + "*" + ShapeTag(s.k, s.m), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.n, s.k, Fill::kUniform),
                                       FillLeaf(rng, s.k, s.m, Fill::kUniform)};
          },
          [](const std::vector<Tensor>& in) { return tensor::MatMul(in[0], in[1]); });
    }
  }

  // GatherRows.
  {
    struct GatherShape {
      int src_rows, cols, count;
      bool fd;
    };
    std::vector<GatherShape> shapes = {{6, 3, 8, true}, {1, 1, 1, true}, {4, 3, 0, true}};
    if (include_large) shapes.push_back({512, 64, 4000, false});
    for (const GatherShape& s : shapes) {
      std::vector<int> indices(s.count);
      for (auto& i : indices) i = idx_rng.UniformInt(s.src_rows);
      add("GatherRows", ShapeTag(s.src_rows, s.cols) + "/" + std::to_string(s.count), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.src_rows, s.cols, Fill::kUniform)};
          },
          [indices](const std::vector<Tensor>& in) {
            return tensor::GatherRows(in[0], indices);
          });
    }
  }

  // ScatterAddRows (with index collisions).
  {
    struct ScatterShape {
      int src_rows, cols, num_rows;
      bool fd;
    };
    std::vector<ScatterShape> shapes = {{6, 3, 4, true}, {1, 1, 2, true}, {0, 3, 3, true}};
    if (include_large) shapes.push_back({4000, 64, 512, false});
    for (const ScatterShape& s : shapes) {
      std::vector<int> indices(s.src_rows);
      for (auto& i : indices) i = idx_rng.UniformInt(s.num_rows);
      add("ScatterAddRows", ShapeTag(s.src_rows, s.cols) + "->" + std::to_string(s.num_rows),
          s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.src_rows, s.cols, Fill::kUniform)};
          },
          [indices, s](const std::vector<Tensor>& in) {
            return tensor::ScatterAddRows(in[0], indices, s.num_rows);
          });
    }
  }

  // SpmmCsrWeighted: random CSR patterns (with collisions and zero-degree
  // rows); both the per-edge weight vector and the feature matrix are
  // differentiable.
  {
    struct SpmmShape {
      int num_rows, num_cols, num_edges, feat;
      bool fd;
    };
    std::vector<SpmmShape> shapes = {{4, 5, 9, 3, true}, {1, 1, 1, 1, true}, {3, 2, 0, 3, true}};
    if (include_large) shapes.push_back({512, 512, 4000, 64, false});
    for (const SpmmShape& s : shapes) {
      std::vector<int> rows(s.num_edges);
      std::vector<int> cols(s.num_edges);
      for (int k = 0; k < s.num_edges; ++k) {
        rows[k] = idx_rng.UniformInt(s.num_rows);
        cols[k] = idx_rng.UniformInt(s.num_cols);
      }
      tensor::CsrPatternRef pattern = tensor::BuildCsrPattern(s.num_rows, s.num_cols, rows, cols);
      add("SpmmCsrWeighted", ShapeTag(s.num_rows, s.num_cols) + "/" + std::to_string(s.num_edges),
          s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.num_edges, 1, Fill::kUniform),
                                       FillLeaf(rng, s.num_cols, s.feat, Fill::kUniform)};
          },
          [pattern](const std::vector<Tensor>& in) {
            return tensor::SpmmCsrWeighted(pattern, in[0], in[1]);
          });
    }
  }

  // RowScale: both operands differentiable.
  {
    std::vector<Shape> shapes = {{5, 3, true}, {1, 1, true}, {0, 3, true}};
    if (include_large) shapes.push_back({2000, 40, false});
    for (const Shape& s : shapes) {
      add("RowScale", ShapeTag(s.rows, s.cols), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.rows, s.cols, Fill::kUniform),
                                       FillLeaf(rng, s.rows, 1, Fill::kUniform)};
          },
          [](const std::vector<Tensor>& in) { return tensor::RowScale(in[0], in[1]); });
    }
  }

  // ConcatCols.
  {
    struct ConcatShape {
      int rows, a_cols, b_cols;
      bool fd;
    };
    std::vector<ConcatShape> shapes = {{4, 2, 3, true}, {1, 1, 1, true}, {0, 2, 3, true}};
    if (include_large) shapes.push_back({2000, 30, 34, false});
    for (const ConcatShape& s : shapes) {
      add("ConcatCols", ShapeTag(s.rows, s.a_cols) + "|" + ShapeTag(s.rows, s.b_cols), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.rows, s.a_cols, Fill::kUniform),
                                       FillLeaf(rng, s.rows, s.b_cols, Fill::kUniform)};
          },
          [](const std::vector<Tensor>& in) { return tensor::ConcatCols(in[0], in[1]); });
    }
  }

  // Segment ops. Segment ids deliberately include (possibly) empty segments.
  {
    struct SegShape {
      int count, cols, num_segments;
      bool fd;
    };
    // SegmentSoftmax requires (M x 1) values.
    std::vector<SegShape> softmax_shapes = {{8, 1, 3, true}, {1, 1, 1, true}, {0, 1, 2, true}};
    if (include_large) softmax_shapes.push_back({20000, 1, 128, false});
    for (const SegShape& s : softmax_shapes) {
      std::vector<int> ids = RandSegments(idx_rng, s.count, s.num_segments);
      add("SegmentSoftmax", std::to_string(s.count) + "/" + std::to_string(s.num_segments),
          s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.count, 1, Fill::kUniform)};
          },
          [ids, s](const std::vector<Tensor>& in) {
            return tensor::SegmentSoftmax(in[0], ids, s.num_segments);
          });
    }

    // SegmentMaxRows gradient flows to the argmax row, so FD needs pairwise
    // distinct, well-separated values (RandDistinct).
    std::vector<SegShape> max_shapes = {{7, 3, 3, true}, {1, 1, 1, true}, {0, 3, 2, true}};
    if (include_large) max_shapes.push_back({4000, 32, 64, false});
    for (const SegShape& s : max_shapes) {
      std::vector<int> ids = RandSegments(idx_rng, s.count, s.num_segments);
      add("SegmentMaxRows", std::to_string(s.count) + "/" + std::to_string(s.num_segments),
          s.fd,
          [s](util::Rng& rng) {
            const Fill fill = s.fd ? Fill::kDistinct : Fill::kUniform;
            return std::vector<Tensor>{FillLeaf(rng, s.count, s.cols, fill)};
          },
          [ids, s](const std::vector<Tensor>& in) {
            return tensor::SegmentMaxRows(in[0], ids, s.num_segments);
          });
    }
  }

  // Select.
  {
    add("Select", "5x4@(2,3)", true,
        [](util::Rng& rng) { return std::vector<Tensor>{RandLeaf(rng, 5, 4)}; },
        [](const std::vector<Tensor>& in) { return tensor::Select(in[0], 2, 3); });
    add("Select", "1x1@(0,0)", true,
        [](util::Rng& rng) { return std::vector<Tensor>{RandLeaf(rng, 1, 1)}; },
        [](const std::vector<Tensor>& in) { return tensor::Select(in[0], 0, 0); });
  }

  // NllLoss (CHECK-fails on zero rows; no empty variant).
  {
    struct NllShape {
      int rows, classes;
      bool fd;
    };
    std::vector<NllShape> shapes = {{5, 4, true}, {1, 1, true}};
    if (include_large) shapes.push_back({3000, 16, false});
    for (const NllShape& s : shapes) {
      std::vector<int> targets(s.rows);
      for (auto& t : targets) t = idx_rng.UniformInt(s.classes);
      add("NllLoss", ShapeTag(s.rows, s.classes), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.rows, s.classes, Fill::kLogProb)};
          },
          [targets](const std::vector<Tensor>& in) {
            return tensor::NllLoss(in[0], targets);
          });
    }
  }

  return cases;
}

namespace {

// Fixed random weighting of the op output: reduces any output shape to a
// well-conditioned scalar loss that is linear in the output (so the FD error
// comes from the op alone, not the reduction).
Tensor LossWeights(const Tensor& output, uint64_t value_seed) {
  util::Rng rng(value_seed ^ kWeightSeedSalt);
  return Tensor::Uniform(output.rows(), output.cols(), 0.5f, 1.5f, &rng);
}

double WeightedLoss(const Tensor& output, const Tensor& weights) {
  const std::vector<float>& y = output.values();
  const std::vector<float>& w = weights.values();
  double acc = 0.0;
  for (size_t i = 0; i < y.size(); ++i) acc += static_cast<double>(y[i]) * w[i];
  return acc;
}

}  // namespace

std::vector<float> RunOpCaseBitstream(const OpCase& c, uint64_t value_seed) {
  util::Rng rng(value_seed);
  std::vector<Tensor> inputs = c.make_inputs(rng);
  Tensor output = c.forward(inputs);
  Tensor loss = OpCaseLoss(output, value_seed);
  if (loss.requires_grad()) loss.Backward();
  return OpCaseBitstream(output, loss, inputs);
}

Tensor OpCaseLoss(const Tensor& output, uint64_t value_seed) {
  return tensor::Sum(tensor::Mul(output, LossWeights(output, value_seed)));
}

std::vector<float> OpCaseBitstream(const Tensor& output, const Tensor& loss,
                                   const std::vector<Tensor>& inputs) {
  std::vector<float> stream = output.values();
  stream.push_back(loss.Value());
  for (const Tensor& t : inputs) {
    const std::vector<float> grad = t.GradData();
    stream.insert(stream.end(), grad.begin(), grad.end());
  }
  return stream;
}

double OpCaseMaxGradError(const OpCase& c, uint64_t value_seed, std::string* detail) {
  util::Rng rng(value_seed);
  std::vector<Tensor> inputs = c.make_inputs(rng);
  Tensor probe = c.forward(inputs);
  Tensor weights = LossWeights(probe, value_seed);

  // Analytic gradients.
  for (Tensor& t : inputs) t.ZeroGrad();
  Tensor loss = tensor::Sum(tensor::Mul(c.forward(inputs), weights));
  if (loss.requires_grad()) loss.Backward();

  const float h = 1e-2f;
  double max_rel_err = 0.0;
  for (size_t input_index = 0; input_index < inputs.size(); ++input_index) {
    Tensor& t = inputs[input_index];
    if (!t.requires_grad()) continue;
    for (int r = 0; r < t.rows(); ++r) {
      for (int col = 0; col < t.cols(); ++col) {
        const float original = t.At(r, col);
        t.SetAt(r, col, original + h);
        const double plus = WeightedLoss(c.forward(inputs), weights);
        t.SetAt(r, col, original - h);
        const double minus = WeightedLoss(c.forward(inputs), weights);
        t.SetAt(r, col, original);
        const double numeric = (plus - minus) / (2.0 * h);
        const double analytic = t.GradAt(r, col);
        const double rel_err = std::fabs(analytic - numeric) /
                               std::max({1.0, std::fabs(analytic), std::fabs(numeric)});
        if (rel_err > max_rel_err) {
          max_rel_err = rel_err;
          if (detail != nullptr) {
            char buffer[160];
            std::snprintf(buffer, sizeof(buffer),
                          "input %zu entry (%d,%d): analytic %.6g vs numeric %.6g",
                          input_index, r, col, analytic, numeric);
            *detail = buffer;
          }
        }
      }
    }
  }
  return max_rel_err;
}

}  // namespace revelio::proptest
