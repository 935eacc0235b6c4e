// Reproduces paper Table IV: explanation ROC-AUC against motif ground truth
// on the synthetic datasets (BA-Shapes, Tree-Cycles, BA-2motifs) with GCNs
// and GINs, for both factual and counterfactual variants. Instances are
// motif-associated and correctly predicted, per §V-B.

#include <cstdio>

#include "bench_common.h"
#include "eval/runner.h"

namespace {

using namespace revelio;          // NOLINT
using namespace revelio::bench;   // NOLINT

// Paper Table IV groups: methods reusing one score set ("General") vs
// methods trained per objective.
bool TrainsPerObjective(const std::string& method) {
  return method == "GNNExplainer" || method == "PGExplainer" || method == "GraphMask" ||
         method == "FlowX" || method == "Revelio";
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  BenchScope scope =
      ParseScope(flags, {"ba_shapes", "tree_cycles", "ba_2motifs"}, 5, 80);
  if (!flags.Has("datasets") && scope.full) {
    scope.datasets = {"ba_shapes", "tree_cycles", "ba_2motifs"};  // Table IV scope
  }
  if (!flags.Has("archs")) scope.archs = {gnn::GnnArch::kGcn, gnn::GnnArch::kGin};

  std::printf("== Table IV: explanation AUC on synthetic datasets (higher is better) ==\n");
  PrintScope("table4", scope);

  util::TablePrinter table({"Group", "Method", "Model", "Dataset", "AUC", "#inst"});
  for (gnn::GnnArch arch : scope.archs) {
    for (const std::string& dataset : scope.datasets) {
      if (!eval::ArchSupportsDataset(arch, dataset)) continue;
      eval::PreparedModel prepared = eval::PrepareModel(dataset, arch, scope.config);
      const auto instances =
          eval::SelectInstances(prepared, scope.config, eval::InstanceFilter::kMotifCorrect);
      LOG_INFO << dataset << "/" << gnn::GnnArchName(arch) << " acc "
               << prepared.metrics.test_accuracy << ", " << instances.size()
               << " motif instances";
      // RunAuc explains the instances concurrently under --threads; AUC values
      // are identical for any thread count (eval::ExplainAll).
      for (const std::string& method : scope.methods) {
        if (!MethodSupportsArch(method, arch)) continue;
        if (!TrainsPerObjective(method)) {
          auto explainer = eval::MakeExplainer(method, scope.config);
          const double auc = eval::RunAuc(explainer.get(), prepared, instances,
                                          explain::Objective::kFactual);
          table.AddRow({"General", method, gnn::GnnArchName(arch), dataset,
                        util::TablePrinter::FormatDouble(auc, 3),
                        std::to_string(instances.size())});
        } else {
          for (auto objective :
               {explain::Objective::kFactual, explain::Objective::kCounterfactual}) {
            auto explainer = eval::MakeExplainer(method, scope.config);
            const util::Status trained = eval::TrainAmortized(
                explainer.get(), prepared, instances, objective, scope.config);
            CHECK(trained.ok()) << trained.ToString();
            const double auc = eval::RunAuc(explainer.get(), prepared, instances, objective);
            table.AddRow({explain::ObjectiveName(objective), method, gnn::GnnArchName(arch),
                          dataset, util::TablePrinter::FormatDouble(auc, 3),
                          std::to_string(instances.size())});
          }
        }
        LOG_INFO << dataset << "/" << gnn::GnnArchName(arch) << " " << method << " done";
      }
    }
  }
  table.Print();
  return 0;
}
