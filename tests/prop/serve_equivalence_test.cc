// Serving-path equivalence: pushing a workload through the explanation
// server — any worker count, any coalescing setting, any arrival
// interleaving across models — is a pure scheduling change. Every response
// must be BITWISE-equal (edge scores, flow scores, top-k flow rankings) to
// batch eval::ExplainAll over the same tasks: the same contract the plan
// suite pins for its layer.

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "eval/runner.h"
#include "explain/explainer.h"
#include "flow/flow_scores.h"
#include "gnn/model.h"
#include "graph/graph.h"
#include "plan/plan.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace revelio::proptest {
namespace {

using tensor::Tensor;

constexpr uint64_t kSeed = 20260808;
constexpr int kFeatureDim = 4;
constexpr int kNumTasks = 8;

// Self-owning task storage (ExplanationTask holds pointers). The server gets
// its own copy of the graph/features through ExplainRequest, which is part
// of the point: equality must hold across distinct owners.
struct TaskData {
  std::string model_name;
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

  serve::ExplainRequest MakeRequest(explain::Objective objective) const {
    serve::ExplainRequest request;
    request.model = model_name;
    request.method = "Revelio";
    request.objective = objective;
    request.graph = graph;
    request.features = features;
    request.target_node = target_node;
    request.target_class = target_class;
    return request;
  }
};

// Ring + random chords: connected, every node has in-edges, so flow
// enumeration to any target is non-empty at any depth.
TaskData MakeTaskData(uint64_t seed, const std::string& model_name) {
  util::Rng rng(seed);
  TaskData data;
  data.model_name = model_name;
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

std::unique_ptr<gnn::GnnModel> MakeModel(uint64_t seed) {
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.task = gnn::TaskType::kNodeClassification;
  config.input_dim = kFeatureDim;
  config.hidden_dim = 6;
  config.num_classes = 2;
  config.num_layers = 2;
  config.seed = seed;
  return std::make_unique<gnn::GnnModel>(config);
}

eval::RunnerConfig ExplainerConfig() {
  eval::RunnerConfig config;
  config.seed = kSeed + 2;
  config.explainer_epochs = 6;
  return config;
}

void ExpectBitwiseEqual(const explain::Explanation& expected,
                        const explain::Explanation& actual, const std::string& context) {
  EXPECT_EQ(expected.edge_scores, actual.edge_scores) << context << ": edge scores differ";
  EXPECT_EQ(expected.has_flow_scores, actual.has_flow_scores) << context;
  EXPECT_EQ(expected.flow_scores, actual.flow_scores) << context << ": flow scores differ";
  if (expected.has_flow_scores) {
    EXPECT_EQ(flow::TopKFlows(expected.flow_scores, 10),
              flow::TopKFlows(actual.flow_scores, 10))
        << context << ": top-k flow rankings differ";
  }
}

class ServeEquivalenceTest : public ::testing::Test {
 protected:
  ServeEquivalenceTest() {
    EXPECT_TRUE(registry_.Register("m1", MakeModel(kSeed + 10)).ok());
    EXPECT_TRUE(registry_.Register("m2", MakeModel(kSeed + 11)).ok());
    // Interleave the two resident models so coalescing sees genuine key
    // boundaries mid-stream, not one homogeneous run.
    for (int i = 0; i < kNumTasks; ++i) {
      tasks_.push_back(MakeTaskData(kSeed + 100 + i, i % 3 == 2 ? "m2" : "m1"));
    }
  }

  std::vector<explain::Explanation> Reference(explain::Objective objective) {
    std::unique_ptr<explain::Explainer> explainer =
        eval::MakeExplainer("Revelio", ExplainerConfig());
    std::vector<explain::ExplanationTask> batch;
    batch.reserve(tasks_.size());
    for (const TaskData& data : tasks_) {
      batch.push_back(data.MakeTask(registry_.Lookup(data.model_name)));
    }
    return eval::ExplainAll(explainer.get(), batch, objective);
  }

  // Serves every task through a fresh server with the given scheduling
  // configuration and compares each response to the reference, index by
  // index.
  void RunConfiguration(int workers, bool coalesce, explain::Objective objective,
                        const std::vector<explain::Explanation>& reference,
                        const std::string& context) {
    serve::ServeOptions options;
    options.queue_capacity = tasks_.size();
    options.num_workers = workers > 0 ? workers : 1;
    options.coalesce = coalesce;
    serve::ExplanationServer server(&registry_, options);
    server.RegisterExplainer("Revelio", eval::MakeExplainer("Revelio", ExplainerConfig()));
    if (workers > 0) server.Start();

    std::vector<std::future<serve::ExplainResponse>> futures;
    for (const TaskData& data : tasks_) {
      auto submitted = server.Submit(data.MakeRequest(objective));
      ASSERT_TRUE(submitted.ok()) << context << ": " << submitted.status().ToString();
      futures.push_back(std::move(submitted).value());
    }
    server.Shutdown(serve::ExplanationServer::DrainMode::kDrain);

    for (size_t i = 0; i < futures.size(); ++i) {
      serve::ExplainResponse response = futures[i].get();
      ASSERT_TRUE(response.status.ok())
          << context << " task " << i << ": " << response.status.ToString();
      ExpectBitwiseEqual(reference[i], response.explanation,
                         context + " task " + std::to_string(i));
    }
    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, tasks_.size()) << context;
    EXPECT_EQ(stats.timed_out + stats.cancelled + stats.rejected_full +
                  stats.rejected_invalid + stats.rejected_shutdown,
              0u)
        << context;
  }

  serve::ModelRegistry registry_;
  std::vector<TaskData> tasks_;
};

TEST_F(ServeEquivalenceTest, ServedResultsMatchBatchExplainAllBitwise) {
  const std::vector<explain::Explanation> reference =
      Reference(explain::Objective::kFactual);
  for (const explain::Explanation& expected : reference) {
    ASSERT_TRUE(expected.status.ok());
    ASSERT_FALSE(expected.edge_scores.empty());
  }
  // Synchronous drain (no workers), with and without coalescing.
  RunConfiguration(0, true, explain::Objective::kFactual, reference, "sync+coalesce");
  RunConfiguration(0, false, explain::Objective::kFactual, reference, "sync");
  // Real worker threads racing over the admission queue; coalesced groups
  // from both workers dispatch instance-parallel ExplainBatch concurrently.
  RunConfiguration(2, true, explain::Objective::kFactual, reference, "workers=2+coalesce");
  RunConfiguration(2, false, explain::Objective::kFactual, reference, "workers=2");
}

TEST_F(ServeEquivalenceTest, CounterfactualObjectiveMatchesToo) {
  const std::vector<explain::Explanation> reference =
      Reference(explain::Objective::kCounterfactual);
  RunConfiguration(2, true, explain::Objective::kCounterfactual, reference,
                   "cf workers=2+coalesce");
}

// serve × plan (ISSUE PR 9, satellite 3): the recorded-execution-plan path
// is invisible to clients. With REVELIO_EXEC_PLAN on and off, every served
// response is bitwise-equal to the same eager batch reference, across the
// sync drain, racing workers, and coalescing.
TEST_F(ServeEquivalenceTest, ExecPlanOnAndOffServeBitwiseEqualResponses) {
  plan::SetExecPlanEnabled(false);
  const std::vector<explain::Explanation> reference =
      Reference(explain::Objective::kFactual);
  for (const bool plan_on : {true, false}) {
    plan::SetExecPlanEnabled(plan_on);
    const std::string context = std::string("exec_plan=") + (plan_on ? "on" : "off");
    RunConfiguration(0, true, explain::Objective::kFactual, reference,
                     context + " sync+coalesce");
    RunConfiguration(2, false, explain::Objective::kFactual, reference,
                     context + " workers=2");
  }
  plan::SetExecPlanEnabled(true);
}

}  // namespace
}  // namespace revelio::proptest
