// Recorded execution plans (src/plan/): replaying a recorded epoch must be
// BITWISE-equal to re-running it eagerly — across thread counts, pool on/off,
// one-at-a-time Explain vs instance-parallel ExplainBatch, and fusion
// on/off. The
// differential harness trains full mini-GNN explanations both ways and
// compares every score; the validity suite checks the structural properties
// every compiled plan must satisfy (topological step order, non-overlapping
// live arena ranges, key/shape changes forcing a re-record) over randomly
// generated tensor programs via util::proptest.

#include <algorithm>
#include <cstdint>
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
#include "tensor/pool.h"
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

class PlanEquivalenceTest : public ::testing::Test {
 protected:
  // Metrics are off by default; the vacuity guards below read plan.* counters.
  void SetUp() override { obs::SetEnabled(true); }

  void TearDown() override {
    obs::SetEnabled(false);
    util::SetNumThreads(1);
    tensor::SetPoolEnabled(true);
    plan::SetExecPlanEnabled(true);
  }
};

// ---------------------------------------------------------------------------
// Differential harness: plan replay vs eager, explainer level
// ---------------------------------------------------------------------------

// The headline contract: for seeded random mini-GNN tasks, the plan-replay
// loop equals the eager loop bitwise across threads {1, 2, 7, 16}, pool
// on/off, and one-at-a-time Explain vs ExplainBatch (plans recorded and
// replayed on the ParallelFor workers).
TEST_F(PlanEquivalenceTest, RevelioReplayEqualsEagerAcrossThreadsPoolAndBatch) {
  util::SetNumThreads(1);
  tensor::SetPoolEnabled(true);
  gnn::GnnModel model(ModelConfig());
  model.Freeze();
  std::vector<TaskData> data;
  std::vector<explain::ExplanationTask> tasks;
  for (int i = 0; i < 5; ++i) data.push_back(MakeNodeTaskData(kSeed + 10 + i));
  for (const TaskData& d : data) tasks.push_back(d.MakeTask(&model));
  std::vector<const explain::ExplanationTask*> group;
  for (const auto& task : tasks) group.push_back(&task);

  // Eager reference: plans disabled, 1 thread, pool on.
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
    for (const bool pool_on : {true, false}) {
      util::SetNumThreads(threads);
      tensor::SetPoolEnabled(pool_on);
      const std::string context =
          "threads=" + std::to_string(threads) + " pool=" + (pool_on ? "on" : "off");
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
  }
  // Guard against vacuity: the grid above must actually have replayed plans.
  EXPECT_GT(ReplayCount(), replays_before) << "plan path never replayed";
}

TEST_F(PlanEquivalenceTest, GnnExplainerReplayEqualsEagerAcrossThreadsPoolAndBatch) {
  util::SetNumThreads(1);
  tensor::SetPoolEnabled(true);
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
    for (const bool pool_on : {true, false}) {
      util::SetNumThreads(threads);
      tensor::SetPoolEnabled(pool_on);
      for (size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_EQ(reference[i].edge_scores,
                  explainer.Explain(tasks[i], explain::Objective::kFactual).edge_scores)
            << "threads=" << threads << " pool=" << (pool_on ? "on" : "off")
            << " single instance=" << i;
      }
      const std::vector<explain::Explanation> batched =
          explainer.ExplainBatch(group, explain::Objective::kFactual);
      ASSERT_EQ(batched.size(), group.size());
      for (size_t i = 0; i < batched.size(); ++i) {
        EXPECT_EQ(reference[i].edge_scores, batched[i].edge_scores)
            << "threads=" << threads << " pool=" << (pool_on ? "on" : "off")
            << " batch instance=" << i;
      }
    }
  }
  EXPECT_GT(ReplayCount(), replays_before) << "plan path never replayed";
}

// Fusion is bitwise-neutral: the fused replay equals the eager loop
// (counterfactual objective for variety).
TEST_F(PlanEquivalenceTest, FusedReplayEqualsEagerCounterfactual) {
  util::SetNumThreads(1);
  tensor::SetPoolEnabled(true);
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
      reference, explainer.ExplainFlows(task, explain::Objective::kCounterfactual), "fused");
  EXPECT_GT(ReplayCount(), replays_before) << "plan path never replayed";
}

// Property with shrinking over random graph families: GNNExplainer with
// plans on equals plans off bitwise on every graph that has a mask to learn.
TEST_F(PlanEquivalenceTest, ReplayEqualsEagerOnRandomGraphs) {
  util::SetNumThreads(1);
  const util::Domain<GraphSpec> domain = GraphDomain(3, 8, /*allow_empty=*/false);
  const util::CheckResult result = util::ForAll<GraphSpec>(
      "plan_replay_equals_eager", domain,
      [](const GraphSpec& spec) -> std::string {
        const graph::Graph graph = MakeGraph(spec);
        if (graph.num_edges() == 0) return "";  // no mask to learn
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
// reduced to a scalar. Gives plans with real fusion runs, multiple levels,
// and independent same-level subgraphs.
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

// Structural validity: every compiled plan's steps partition the tape in
// order, levels are topologically consistent, and the static arena never
// byte-overlaps two live-overlapping tensors.
TEST_F(PlanEquivalenceTest, CompiledPlansAreTopologicalWithValidArena) {
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
        session.Seal(loss, plan::PlanKey{{spec.seed}});

        const plan::Plan* plan = session.plan();
        if (plan == nullptr) return "no plan sealed";
        const auto& ops = session.tape().ops;

        // Steps partition [0, num_ops) in tape order.
        int next_op = 0;
        for (const auto& step : plan->steps()) {
          if (step.op_indices.empty()) return "empty step";
          for (int op : step.op_indices) {
            if (op != next_op) return "steps do not partition the tape in order";
            ++next_op;
          }
          if (step.fused && step.op_indices.size() < 2) return "fused step with one op";
        }
        if (next_op != static_cast<int>(ops.size())) return "steps missed tape ops";

        // Topological levels: every recorded input's producer sits at a
        // strictly lower level.
        std::vector<int> producer_level(ops.size(), -1);
        for (const auto& step : plan->steps()) {
          for (int op : step.op_indices) producer_level[op] = step.level;
        }
        for (const auto& step : plan->steps()) {
          for (int op : step.op_indices) {
            for (const auto& input : ops[op].inputs) {
              for (size_t other = 0; other < ops.size(); ++other) {
                const bool in_step = producer_level[other] == step.level &&
                                     std::find(step.op_indices.begin(), step.op_indices.end(),
                                               static_cast<int>(other)) != step.op_indices.end();
                if (ops[other].out.get() == input.get() && !in_step &&
                    producer_level[other] >= step.level) {
                  return "producer not at a lower level";
                }
              }
            }
          }
        }

        // Arena: liveness-sound, in-bounds, no live byte overlap.
        if (!plan::ValidateMemoryPlan(plan->memory())) return "arena validation failed";
        if (plan->memory().slots.size() != ops.size()) return "arena slot count mismatch";
        return "";
      },
      util::DefaultPropConfig(30, kSeed + 200));
  EXPECT_TRUE(result.ok) << result.report;
}

// Replay correctness at the session level: after mutating the leaf the way an
// optimizer would, Replay() recomputes values and gradients bitwise-equal to
// a from-scratch eager build, at several thread counts, with zero pool
// acquisitions during the replay.
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
            const bool replayed = session.Replay(plan::PlanKey{{spec.seed}});
            if (epoch == 0 && replayed) return "replayed before any seal";
            if (epoch > 0 && !replayed) return "sealed plan failed to replay";
            if (!replayed) {
              planned_loss = RecordProgram(spec, planned_param, &session);
              planned_loss.Backward();
              session.Seal(planned_loss, plan::PlanKey{{spec.seed}});
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

// Key and global-version changes force a re-record; a matching key replays
// with zero pool acquisitions.
TEST_F(PlanEquivalenceTest, ShapeChangeAndVersionBumpForceReRecord) {
  util::SetNumThreads(1);
  tensor::SetPoolEnabled(true);
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
  session.Seal(loss, plan::PlanKey{{spec.seed, 4, 3}});
  ASSERT_TRUE(session.sealed());

  // Matching key: replays, and touches the pool zero times.
  tensor::TensorPool* pool = tensor::TensorPool::ThreadLocal();
  ASSERT_NE(pool, nullptr);
  const uint64_t acquires_before = pool->stats().hits + pool->stats().misses;
  EXPECT_TRUE(session.Replay(plan::PlanKey{{spec.seed, 4, 3}}));
  EXPECT_EQ(pool->stats().hits + pool->stats().misses, acquires_before)
      << "replay acquired tensors from the pool";

  // Shape change (different key): replay refuses and drops the plan.
  EXPECT_FALSE(session.Replay(plan::PlanKey{{spec.seed, 5, 3}}));
  EXPECT_FALSE(session.sealed());

  // Re-record, then a global version bump also forces a re-record.
  loss = RecordProgram(spec, param, &session);
  loss.Backward();
  session.Seal(loss, plan::PlanKey{{spec.seed, 4, 3}});
  EXPECT_TRUE(session.Replay(plan::PlanKey{{spec.seed, 4, 3}}));
  plan::BumpGlobalPlanVersion();
  EXPECT_FALSE(session.Replay(plan::PlanKey{{spec.seed, 4, 3}}));
  EXPECT_FALSE(session.sealed());
}

// A graph mutation between explanations changes the structure version and
// therefore the plan key — the second run must re-record against the new
// topology, not replay the stale plan. Mirrors the PR 4 dirty-heap case at
// the plan layer.
TEST_F(PlanEquivalenceTest, GraphMutationBetweenRunsReRecords) {
  util::SetNumThreads(1);
  gnn::GnnModel model(ModelConfig());
  model.Freeze();
  TaskData data = MakeNodeTaskData(kSeed + 500);
  explain::GnnExplainerMethod explainer(GnnExplainerTestOptions());

  plan::SetExecPlanEnabled(true);
  const explain::ExplanationTask before = data.MakeTask(&model);
  const explain::Explanation first = explainer.Explain(before, explain::Objective::kFactual);

  // Mutate: add one edge. Plans keyed on the old structure version must not
  // survive; the new run must match a fully eager run on the mutated graph.
  const uint64_t version_before = data.graph.structure_version();
  int u = 0, v = 2;
  while (data.graph.HasEdge(u, v)) v = (v + 1) % data.graph.num_nodes();
  data.graph.AddEdge(u, v);
  EXPECT_NE(data.graph.structure_version(), version_before);

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
