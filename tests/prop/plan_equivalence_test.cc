// Recorded execution plans (src/plan/): replaying a recorded epoch must be
// BITWISE-equal to re-running it eagerly — across thread counts, one-at-a-
// time Explain vs instance-parallel ExplainBatch, and both objectives, and
// with every recorded output NaN-filled before the replay. The differential
// harness trains full mini-GNN explanations both ways and compares every
// score; the validity suite checks the structural properties every recorded
// tape must satisfy (topological op order, stable buffers,
// a global version bump forcing a re-record) over randomly generated tensor
// programs via util::proptest.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/revelio.h"
#include "explain/explainer.h"
#include "explain/gnnexplainer.h"
#include "flow/flow_scores.h"
#include "gnn/model.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "prop/prop_util.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/proptest.h"
#include "util/rng.h"

namespace revelio::proptest {
namespace {

using tensor::Tensor;

constexpr uint64_t kSeed = 20260809;
constexpr int kFeatureDim = 4;

// Self-owning task storage (ExplanationTask holds pointers).
struct TaskData {
  graph::Graph graph;
  Tensor features;
  int target_node = -1;
  int target_class = 0;

  explain::ExplanationTask MakeTask(const gnn::GnnModel* model) const {
    explain::ExplanationTask task;
    task.model = model;
    task.graph = &graph;
    task.features = features;
    task.target_node = target_node;
    task.target_class = target_class;
    return task;
  }
};

// Ring + random chords: connected, every node has in-edges, so flow
// enumeration to any target is non-empty at any depth.
TaskData MakeNodeTaskData(uint64_t seed) {
  util::Rng rng(seed);
  TaskData data;
  const int n = 6 + rng.UniformInt(5);
  data.graph = graph::Graph(n);
  for (int v = 0; v < n; ++v) data.graph.AddUndirectedEdge(v, (v + 1) % n);
  for (int i = 0; i < 4; ++i) {
    const int u = rng.UniformInt(n);
    const int v = rng.UniformInt(n);
    if (u != v && !data.graph.HasEdge(u, v)) data.graph.AddEdge(u, v);
  }
  data.features = Tensor::Uniform(n, kFeatureDim, -1.0f, 1.0f, &rng);
  data.target_node = rng.UniformInt(n);
  data.target_class = rng.UniformInt(2);
  return data;
}

gnn::GnnConfig ModelConfig() {
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.task = gnn::TaskType::kNodeClassification;
  config.input_dim = kFeatureDim;
  config.hidden_dim = 6;
  config.num_classes = 2;
  config.num_layers = 2;
  config.seed = kSeed + 1;
  return config;
}

core::RevelioOptions RevelioTestOptions() {
  core::RevelioOptions options;
  options.epochs = 6;
  options.seed = kSeed + 2;
  return options;
}

explain::GnnExplainerOptions GnnExplainerTestOptions() {
  explain::GnnExplainerOptions options;
  options.epochs = 6;
  options.seed = kSeed + 3;
  return options;
}

void ExpectFlowExplanationsBitwiseEqual(
    const core::RevelioExplainer::FlowExplanation& expected,
    const core::RevelioExplainer::FlowExplanation& actual, const std::string& context) {
  EXPECT_EQ(expected.flow_scores, actual.flow_scores) << context << ": flow scores differ";
  EXPECT_EQ(expected.edge_scores, actual.edge_scores) << context << ": edge scores differ";
  EXPECT_EQ(expected.layer_edge_masks, actual.layer_edge_masks)
      << context << ": layer edge masks differ";
  EXPECT_EQ(expected.layer_weights, actual.layer_weights)
      << context << ": layer weights differ";
  EXPECT_EQ(flow::TopKFlows(expected.flow_scores, 10), flow::TopKFlows(actual.flow_scores, 10))
      << context << ": top-k flow rankings differ";
}

uint64_t ReplayCount() {
  return obs::MetricsRegistry::Global().GetCounter("plan.replays")->Total();
}

// Where each tape op's output keeps its values and grad, in tape order.
using BufferAddresses = std::pair<const float*, const float*>;
std::vector<BufferAddresses> TapeBufferAddresses(const tensor::rec::OpTape& tape) {
  std::vector<BufferAddresses> addresses;
  for (const auto& op : tape.ops) {
    addresses.emplace_back(op.out->values.data(), op.out->grad.data());
  }
  return addresses;
}

class PlanEquivalenceTest : public ::testing::Test {
 protected:
  // Metrics are off by default; the vacuity guards below read plan.* counters.
  void SetUp() override { obs::SetEnabled(true); }

  void TearDown() override {
    obs::SetEnabled(false);
    util::SetNumThreads(1);
    plan::SetExecPlanEnabled(true);
  }
};

// ---------------------------------------------------------------------------
// Differential harness: plan replay vs eager, explainer level
// ---------------------------------------------------------------------------

// The headline contract: for seeded random mini-GNN tasks, the plan-replay
// loop equals the eager loop bitwise across threads {1, 2, 7, 16} and
// one-at-a-time Explain vs ExplainBatch (plans recorded and replayed on the
// ParallelFor workers).
TEST_F(PlanEquivalenceTest, RevelioReplayEqualsEagerAcrossThreadsAndBatch) {
  util::SetNumThreads(1);
  gnn::GnnModel model(ModelConfig());
  model.Freeze();
  std::vector<TaskData> data;
  std::vector<explain::ExplanationTask> tasks;
  for (int i = 0; i < 5; ++i) data.push_back(MakeNodeTaskData(kSeed + 10 + i));
  for (const TaskData& d : data) tasks.push_back(d.MakeTask(&model));
  std::vector<const explain::ExplanationTask*> group;
  for (const auto& task : tasks) group.push_back(&task);

  // Eager reference: plans disabled, 1 thread.
  plan::SetExecPlanEnabled(false);
  core::RevelioExplainer explainer(RevelioTestOptions());
  std::vector<core::RevelioExplainer::FlowExplanation> reference;
  for (const auto& task : tasks) {
    reference.push_back(explainer.ExplainFlows(task, explain::Objective::kFactual));
    ASSERT_FALSE(reference.back().flow_scores.empty());
  }

  plan::SetExecPlanEnabled(true);
  const uint64_t replays_before = ReplayCount();
  for (const int threads : {1, 2, 7, 16}) {
    util::SetNumThreads(threads);
    const std::string context = "threads=" + std::to_string(threads);
    // One task at a time, plan-replayed.
    for (size_t i = 0; i < tasks.size(); ++i) {
      ExpectFlowExplanationsBitwiseEqual(
          reference[i], explainer.ExplainFlows(tasks[i], explain::Objective::kFactual),
          context + " single instance=" + std::to_string(i));
    }
    // Instance-parallel batch, plan-replayed on the worker threads.
    const std::vector<explain::Explanation> batched =
        explainer.ExplainBatch(group, explain::Objective::kFactual);
    ASSERT_EQ(batched.size(), group.size());
    for (size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(reference[i].flow_scores, batched[i].flow_scores)
          << context << " batch instance=" << i;
      EXPECT_EQ(reference[i].edge_scores, batched[i].edge_scores)
          << context << " batch instance=" << i;
    }
  }
  // Guard against vacuity: the grid above must actually have replayed plans.
  EXPECT_GT(ReplayCount(), replays_before) << "plan path never replayed";
}

TEST_F(PlanEquivalenceTest, GnnExplainerReplayEqualsEagerAcrossThreadsAndBatch) {
  util::SetNumThreads(1);
  gnn::GnnModel model(ModelConfig());
  model.Freeze();
  std::vector<TaskData> data;
  std::vector<explain::ExplanationTask> tasks;
  for (int i = 0; i < 5; ++i) data.push_back(MakeNodeTaskData(kSeed + 40 + i));
  for (const TaskData& d : data) tasks.push_back(d.MakeTask(&model));
  std::vector<const explain::ExplanationTask*> group;
  for (const auto& task : tasks) group.push_back(&task);

  plan::SetExecPlanEnabled(false);
  explain::GnnExplainerMethod explainer(GnnExplainerTestOptions());
  std::vector<explain::Explanation> reference;
  for (const auto& task : tasks) {
    reference.push_back(explainer.Explain(task, explain::Objective::kFactual));
  }

  plan::SetExecPlanEnabled(true);
  const uint64_t replays_before = ReplayCount();
  for (const int threads : {1, 2, 7, 16}) {
    util::SetNumThreads(threads);
    for (size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_EQ(reference[i].edge_scores,
                explainer.Explain(tasks[i], explain::Objective::kFactual).edge_scores)
          << "threads=" << threads << " single instance=" << i;
    }
    const std::vector<explain::Explanation> batched =
        explainer.ExplainBatch(group, explain::Objective::kFactual);
    ASSERT_EQ(batched.size(), group.size());
    for (size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(reference[i].edge_scores, batched[i].edge_scores)
          << "threads=" << threads << " batch instance=" << i;
    }
  }
  EXPECT_GT(ReplayCount(), replays_before) << "plan path never replayed";
}

// Replay equals the eager loop under the counterfactual objective too.
TEST_F(PlanEquivalenceTest, ReplayEqualsEagerCounterfactual) {
  util::SetNumThreads(1);
  gnn::GnnModel model(ModelConfig());
  model.Freeze();
  const TaskData data = MakeNodeTaskData(kSeed + 70);
  const explain::ExplanationTask task = data.MakeTask(&model);
  core::RevelioExplainer explainer(RevelioTestOptions());

  plan::SetExecPlanEnabled(false);
  const core::RevelioExplainer::FlowExplanation reference =
      explainer.ExplainFlows(task, explain::Objective::kCounterfactual);

  plan::SetExecPlanEnabled(true);
  const uint64_t replays_before = ReplayCount();
  ExpectFlowExplanationsBitwiseEqual(
      reference, explainer.ExplainFlows(task, explain::Objective::kCounterfactual), "replayed");
  EXPECT_GT(ReplayCount(), replays_before) << "plan path never replayed";
}

// Property with shrinking over random graph families: GNNExplainer with
// plans on equals plans off bitwise on every graph, edgeless ones included.
TEST_F(PlanEquivalenceTest, ReplayEqualsEagerOnRandomGraphs) {
  util::SetNumThreads(1);
  const util::Domain<GraphSpec> domain = GraphDomain(3, 8, /*allow_empty=*/false);
  const util::CheckResult result = util::ForAll<GraphSpec>(
      "plan_replay_equals_eager", domain,
      [](const GraphSpec& spec) -> std::string {
        const graph::Graph graph = MakeGraph(spec);
        util::Rng rng(kSeed + 100);
        TaskData data;
        data.graph = graph;
        data.features = Tensor::Uniform(graph.num_nodes(), kFeatureDim, -1.0f, 1.0f, &rng);
        data.target_node = rng.UniformInt(graph.num_nodes());
        data.target_class = rng.UniformInt(2);
        gnn::GnnModel model(ModelConfig());
        model.Freeze();
        const explain::ExplanationTask task = data.MakeTask(&model);
        explain::GnnExplainerMethod explainer(GnnExplainerTestOptions());

        plan::SetExecPlanEnabled(false);
        const explain::Explanation eager = explainer.Explain(task, explain::Objective::kFactual);
        plan::SetExecPlanEnabled(true);
        const explain::Explanation replayed =
            explainer.Explain(task, explain::Objective::kFactual);
        if (replayed.edge_scores != eager.edge_scores) {
          return "plan replay diverged from eager";
        }
        return "";
      },
      util::DefaultPropConfig(25, kSeed + 101));
  EXPECT_TRUE(result.ok) << result.report;
}

// ---------------------------------------------------------------------------
// Plan validity properties (PlanSession introspection)
// ---------------------------------------------------------------------------

// A small random tensor program: `branches` independent chains of `depth`
// elementwise steps over a (rows x cols) parameter, mixed through a MatMul,
// reduced to a scalar. Gives tapes with runs of same-extent elementwise ops
// and independent subgraphs.
struct ProgramSpec {
  int rows = 2;
  int cols = 2;
  int depth = 1;
  int branches = 1;
  uint64_t seed = 0;
};

std::string DescribeProgram(const ProgramSpec& spec) {
  std::ostringstream out;
  out << "program rows=" << spec.rows << " cols=" << spec.cols << " depth=" << spec.depth
      << " branches=" << spec.branches << " seed=" << spec.seed;
  return out.str();
}

util::Domain<ProgramSpec> ProgramDomain() {
  util::Domain<ProgramSpec> domain;
  domain.generate = [](util::Rng& rng) {
    ProgramSpec spec;
    spec.rows = 1 + rng.UniformInt(6);
    spec.cols = 1 + rng.UniformInt(4);
    spec.depth = 1 + rng.UniformInt(4);
    spec.branches = 1 + rng.UniformInt(3);
    spec.seed = rng.NextUint64();
    return spec;
  };
  domain.shrink = [](const ProgramSpec& spec) {
    std::vector<ProgramSpec> out;
    auto with = [&spec](auto mutate) {
      ProgramSpec smaller = spec;
      mutate(smaller);
      return smaller;
    };
    if (spec.depth > 1) out.push_back(with([](ProgramSpec& s) { --s.depth; }));
    if (spec.branches > 1) out.push_back(with([](ProgramSpec& s) { --s.branches; }));
    if (spec.rows > 1) out.push_back(with([](ProgramSpec& s) { --s.rows; }));
    if (spec.cols > 1) out.push_back(with([](ProgramSpec& s) { --s.cols; }));
    return out;
  };
  domain.describe = DescribeProgram;
  return domain;
}

// Records spec's program into `session`, returning the scalar loss. `param`
// must be a (rows x cols) leaf with requires_grad.
Tensor RecordProgram(const ProgramSpec& spec, const Tensor& param,
                     plan::PlanSession* session) {
  util::Rng rng(spec.seed);
  const Tensor mixer =
      Tensor::Uniform(spec.cols, spec.rows, -1.0f, 1.0f, &rng);  // constant
  plan::PlanSession::RecordScope record(session);
  Tensor total;
  for (int b = 0; b < spec.branches; ++b) {
    Tensor h = tensor::AddScalar(param, 0.1f * static_cast<float>(b + 1));
    for (int d = 0; d < spec.depth; ++d) {
      h = tensor::Tanh(tensor::MulScalar(h, 0.7f));
    }
    Tensor mixed = tensor::Sum(tensor::MatMul(h, mixer));
    total = total.defined() ? tensor::Add(total, mixed) : mixed;
  }
  return total;
}

// Structural validity: every recorded tape is in topological order.
TEST_F(PlanEquivalenceTest, RecordedTapeIsInTopologicalOrder) {
  util::SetNumThreads(1);
  const util::CheckResult result = util::ForAll<ProgramSpec>(
      "plan_validity", ProgramDomain(),
      [](const ProgramSpec& spec) -> std::string {
        plan::PlanSession session;
        util::Rng param_rng(spec.seed ^ 0x9e3779b9);
        Tensor param =
            Tensor::Uniform(spec.rows, spec.cols, -1.0f, 1.0f, &param_rng).WithRequiresGrad();
        Tensor loss = RecordProgram(spec, param, &session);
        loss.Backward();
        session.Seal(loss);

        if (!session.sealed()) return "no tape sealed";
        const auto& ops = session.tape().ops;

        // Topological order: replay runs the ops in tape order, so every
        // recorded input's producer must come strictly earlier in the tape.
        for (size_t op = 0; op < ops.size(); ++op) {
          for (const auto& input : ops[op].inputs) {
            for (size_t other = op; other < ops.size(); ++other) {
              if (ops[other].out.get() == input.get()) return "producer not before its consumer";
            }
          }
        }
        return "";
      },
      util::DefaultPropConfig(30, kSeed + 200));
  EXPECT_TRUE(result.ok) << result.report;
}

// Replay correctness at the session level: after mutating the leaf the way an
// optimizer would, Replay() recomputes values and gradients bitwise-equal to
// a from-scratch eager build, at several thread counts.
TEST_F(PlanEquivalenceTest, SessionReplayMatchesEagerRebuildBitwise) {
  const util::CheckResult result = util::ForAll<ProgramSpec>(
      "plan_session_replay_bitwise", ProgramDomain(),
      [](const ProgramSpec& spec) -> std::string {
        for (const int threads : {1, 2, 7}) {
          util::SetNumThreads(threads);
          // Two identical leaves: one trained through the plan session, one
          // through fresh eager graphs.
          util::Rng planned_rng(spec.seed ^ 0x51ed);
          util::Rng eager_rng(spec.seed ^ 0x51ed);
          Tensor planned_param =
              Tensor::Uniform(spec.rows, spec.cols, -1.0f, 1.0f, &planned_rng).WithRequiresGrad();
          Tensor eager_param =
              Tensor::Uniform(spec.rows, spec.cols, -1.0f, 1.0f, &eager_rng).WithRequiresGrad();
          plan::PlanSession session;
          Tensor planned_loss;
          for (int epoch = 0; epoch < 4; ++epoch) {
            const bool replayed = session.Replay();
            if (epoch == 0 && replayed) return "replayed before any seal";
            if (epoch > 0 && !replayed) return "sealed plan failed to replay";
            if (!replayed) {
              planned_loss = RecordProgram(spec, planned_param, &session);
              planned_loss.Backward();
              session.Seal(planned_loss);
            }
            Tensor eager_loss = RecordProgram(spec, eager_param, nullptr);
            eager_loss.Backward();
            if (planned_loss.At(0, 0) != eager_loss.At(0, 0)) {
              return "loss diverged at epoch " + std::to_string(epoch) + " threads " +
                     std::to_string(threads);
            }
            for (int r = 0; r < spec.rows; ++r) {
              for (int c = 0; c < spec.cols; ++c) {
                if (planned_param.GradAt(r, c) != eager_param.GradAt(r, c)) {
                  return "gradient diverged at epoch " + std::to_string(epoch);
                }
              }
            }
            // SGD-style update on both copies (identical float math), plus a
            // grad reset for the eager copy (Replay zeroes its own grads).
            for (int r = 0; r < spec.rows; ++r) {
              for (int c = 0; c < spec.cols; ++c) {
                const float step = 0.05f * planned_param.GradAt(r, c);
                (*planned_param.mutable_values())[r * spec.cols + c] -= step;
                (*eager_param.mutable_values())[r * spec.cols + c] -= step;
              }
            }
            planned_param.ZeroGrad();
            eager_param.ZeroGrad();
            eager_loss.ReleaseTape();
          }
        }
        util::SetNumThreads(1);
        return "";
      },
      util::DefaultPropConfig(15, kSeed + 300));
  EXPECT_TRUE(result.ok) << result.report;
}

// Plan replay reruns every kernel on the buffers the previous epoch left
// behind, so each kernel must fully overwrite its output or zero it itself.
// Filling every recorded op output (values and grad) with NaN before the
// replay makes any kernel that reads its output before writing it poison
// the stream: replay must still equal the eager run bitwise, for every op
// case of the shared registry (large shapes included) at several thread
// counts.
TEST_F(PlanEquivalenceTest, FullOverwriteContractHoldsUnderNanPrefill) {
  const std::vector<OpCase> cases = MakeOpCases(kSeed + 600, /*include_large=*/true);
  ASSERT_FALSE(cases.empty());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (size_t i = 0; i < cases.size(); ++i) {
    const OpCase& c = cases[i];
    const uint64_t value_seed = kSeed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
    for (const int threads : {1, 2, 7, 16}) {
      util::SetNumThreads(threads);
      const std::vector<float> eager = RunOpCaseBitstream(c, value_seed);

      util::Rng rng(value_seed);
      std::vector<Tensor> inputs = c.make_inputs(rng);
      plan::PlanSession session;
      Tensor output;
      Tensor loss;
      {
        plan::PlanSession::RecordScope record(&session);
        output = c.forward(inputs);
        loss = OpCaseLoss(output, value_seed);
      }
      if (loss.requires_grad()) loss.Backward();
      session.Seal(loss);
      for (const auto& op : session.tape().ops) {
        std::fill(op.out->values.begin(), op.out->values.end(), nan);
        std::fill(op.out->grad.begin(), op.out->grad.end(), nan);
      }
      for (Tensor& t : inputs) t.ZeroGrad();
      ASSERT_TRUE(session.Replay());
      const std::vector<float> replayed = OpCaseBitstream(output, loss, inputs);
      EXPECT_TRUE(replayed.size() == eager.size() &&
                  (eager.empty() || std::memcmp(replayed.data(), eager.data(),
                                                eager.size() * sizeof(float)) == 0))
          << c.op << " (" << c.variant << ") replay over NaN-filled outputs diverges from eager"
          << " at threads=" << threads;
    }
  }
}

// A sealed plan replays in place, in the buffers recorded at seal, until a
// global version bump forces a re-record.
TEST_F(PlanEquivalenceTest, ReplayKeepsBuffersUntilVersionBumpForcesReRecord) {
  util::SetNumThreads(1);
  ProgramSpec spec;
  spec.rows = 4;
  spec.cols = 3;
  spec.depth = 3;
  spec.branches = 2;
  spec.seed = kSeed + 400;

  plan::PlanSession session;
  util::Rng param_rng(spec.seed);
  Tensor param =
      Tensor::Uniform(spec.rows, spec.cols, -1.0f, 1.0f, &param_rng).WithRequiresGrad();
  Tensor loss = RecordProgram(spec, param, &session);
  loss.Backward();
  session.Seal(loss);
  ASSERT_TRUE(session.sealed());

  // Replays, and every op output keeps its buffers.
  const std::vector<BufferAddresses> recorded = TapeBufferAddresses(session.tape());
  for (int replay = 0; replay < 5; ++replay) {
    EXPECT_TRUE(session.Replay());
    EXPECT_EQ(TapeBufferAddresses(session.tape()), recorded)
        << "replay " << replay << " moved an op output's values or grad";
  }

  // A global version bump makes the next replay refuse and drop the plan.
  plan::BumpGlobalPlanVersion();
  EXPECT_FALSE(session.Replay());
  EXPECT_FALSE(session.sealed());
}

// Each Explain owns a fresh plan session, so a graph mutated between two
// explanations is recorded anew: the second run must follow the new
// topology, not a stale plan.
TEST_F(PlanEquivalenceTest, GraphMutationBetweenRunsReRecords) {
  util::SetNumThreads(1);
  gnn::GnnModel model(ModelConfig());
  model.Freeze();
  TaskData data = MakeNodeTaskData(kSeed + 500);
  explain::GnnExplainerMethod explainer(GnnExplainerTestOptions());

  plan::SetExecPlanEnabled(true);
  const explain::ExplanationTask before = data.MakeTask(&model);
  const explain::Explanation first = explainer.Explain(before, explain::Objective::kFactual);

  // Mutate: add one edge. The new run must match a fully eager run on the
  // mutated graph.
  int u = 0, v = 2;
  while (data.graph.HasEdge(u, v)) v = (v + 1) % data.graph.num_nodes();
  data.graph.AddEdge(u, v);

  const explain::ExplanationTask after = data.MakeTask(&model);
  const explain::Explanation mutated = explainer.Explain(after, explain::Objective::kFactual);
  plan::SetExecPlanEnabled(false);
  const explain::Explanation eager = explainer.Explain(after, explain::Objective::kFactual);
  EXPECT_EQ(mutated.edge_scores, eager.edge_scores)
      << "post-mutation plan run diverged from eager on the new topology";
  EXPECT_NE(first.edge_scores.size(), 0u);
}

}  // namespace
}  // namespace revelio::proptest
