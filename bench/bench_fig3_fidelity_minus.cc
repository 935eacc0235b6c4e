// Reproduces paper Fig. 3: Fidelity- (factual explanation) as a function of
// sparsity, for every explanation method x dataset x GNN. Lower is better;
// the paper's headline shape: flow-based methods (FlowX, Revelio) lead, with
// Revelio the most consistent across datasets.

#include <cstdio>

#include "bench_common.h"
#include "eval/runner.h"

namespace {

using namespace revelio;          // NOLINT
using namespace revelio::bench;   // NOLINT

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  BenchScope scope = ParseScope(
      flags, {"ba_shapes", "tree_cycles", "mutag_like", "ba_2motifs"}, 4, 60);
  const std::vector<double> sparsities = {0.5, 0.6, 0.7, 0.8, 0.9};

  std::printf("== Fig. 3: Fidelity- vs sparsity (factual explanations; lower is better) ==\n");
  PrintScope("fig3", scope);

  util::TablePrinter table({"Dataset", "Model", "Method", "s=0.5", "s=0.6", "s=0.7", "s=0.8",
                            "s=0.9", "#inst", "#failed"});
  for (const std::string& dataset : scope.datasets) {
    for (gnn::GnnArch arch : scope.archs) {
      if (!eval::ArchSupportsDataset(arch, dataset)) continue;
      eval::PreparedModel prepared = eval::PrepareModel(dataset, arch, scope.config);
      LOG_INFO << dataset << "/" << gnn::GnnArchName(arch) << " model test acc "
               << prepared.metrics.test_accuracy;
      const auto instances =
          eval::SelectInstances(prepared, scope.config, eval::InstanceFilter::kAny);
      for (const std::string& method : scope.methods) {
        if (!MethodSupportsArch(method, arch)) {
          table.AddRow({dataset, gnn::GnnArchName(arch), method, "N/A", "N/A", "N/A", "N/A",
                        "N/A", "0", "0"});
          continue;
        }
        auto explainer = eval::MakeExplainer(method, scope.config);
        const util::Status trained = eval::TrainAmortized(
            explainer.get(), prepared, instances, explain::Objective::kFactual, scope.config);
        CHECK(trained.ok()) << trained.ToString();
        // RunFidelity explains the instances concurrently under --threads;
        // results are identical for any thread count (eval::ExplainAll).
        const auto curve = eval::RunFidelity(explainer.get(), prepared, instances,
                                             explain::Objective::kFactual, sparsities);
        std::vector<std::string> row{dataset, gnn::GnnArchName(arch), method};
        for (double v : curve.values) row.push_back(util::TablePrinter::FormatDouble(v, 3));
        row.push_back(std::to_string(curve.instances_evaluated));
        row.push_back(std::to_string(curve.instances_failed));
        table.AddRow(std::move(row));
        LOG_INFO << dataset << "/" << gnn::GnnArchName(arch) << " " << method << " done";
      }
    }
  }
  table.Print();
  return 0;
}
