// Extension bench (paper §VI future work, implemented here): top-k flow
// prefiltering before mask learning. Measures the speed/quality trade-off —
// explanation time and motif AUC as the kept-flow budget k shrinks.

#include <cstdio>

#include "bench_common.h"
#include "core/revelio.h"
#include "eval/runner.h"
#include "util/timer.h"

namespace {

using namespace revelio;         // NOLINT
using namespace revelio::bench;  // NOLINT

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  BenchScope scope = ParseScope(flags, {"ba_shapes"}, 5, 100);

  std::printf("== Extension (paper SVI): top-k flow prefiltering ==\n");
  PrintScope("prefilter", scope);

  eval::PreparedModel prepared =
      eval::PrepareModel(scope.datasets[0], gnn::GnnArch::kGcn, scope.config);
  const auto instances =
      eval::SelectInstances(prepared, scope.config, eval::InstanceFilter::kMotifCorrect);
  double mean_flows = 0.0;
  for (const auto& instance : instances) mean_flows += instance.num_flows;
  mean_flows /= std::max<size_t>(instances.size(), 1);
  LOG_INFO << instances.size() << " instances, mean |F| = " << mean_flows;

  util::TablePrinter table({"kept flows k", "AUC", "mean seconds/instance"});
  const std::vector<int> budgets = {0 /* all */, 512, 128, 32, 8};
  for (int k : budgets) {
    core::RevelioOptions options;
    options.epochs = scope.config.explainer_epochs;
    options.prefilter_top_k = k;
    core::RevelioExplainer revelio(options);
    util::Timer timer;
    const double auc =
        eval::RunAuc(&revelio, prepared, instances, explain::Objective::kFactual).mean_auc;
    const double seconds =
        instances.empty() ? 0.0 : timer.ElapsedSeconds() / instances.size();
    table.AddRow({k == 0 ? "all" : std::to_string(k),
                  util::TablePrinter::FormatDouble(auc, 3),
                  util::TablePrinter::FormatDouble(seconds, 3)});
    LOG_INFO << "k = " << k << " done";
  }
  table.Print();
  std::printf("\nExpected shape: AUC degrades gracefully as k shrinks while the time\n"
              "per instance drops — the memory/runtime saving the paper's §VI "
              "anticipates.\n");
  return 0;
}
