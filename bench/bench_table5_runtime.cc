// Reproduces paper Table V: average running time (seconds) per explanation
// method per dataset. PGExplainer is reported as "training (inference)".
// The headline shape: traditional gradient methods are fastest; SubgraphX is
// slowest by orders of magnitude; among flow-based methods Revelio is the
// fastest and scales with T*T_Phi instead of |F|*T_Phi (Table II).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>

#include "bench_common.h"
#include "eval/runner.h"
#include "explain/pgexplainer.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "util/timer.h"

namespace {

using namespace revelio;          // NOLINT
using namespace revelio::bench;   // NOLINT

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  BenchScope scope = ParseScope(
      flags, {"ba_shapes", "tree_cycles", "mutag_like", "ba_2motifs"}, 3, 60);
  // Table V uses GCN targets; override with --archs to measure others.
  if (!flags.Has("archs")) scope.archs = {gnn::GnnArch::kGcn};

  std::printf("== Table V: average explanation time in seconds (lower is better) ==\n");
  PrintScope("table5", scope);

  std::vector<std::string> header{"Method"};
  for (const auto& dataset : scope.datasets) header.push_back(dataset);
  util::TablePrinter table(header);

  const gnn::GnnArch arch = scope.archs[0];
  // Prepare models/instances once per dataset.
  std::vector<eval::PreparedModel> prepared;
  std::vector<std::vector<eval::EvalInstance>> instances;
  for (const auto& dataset : scope.datasets) {
    prepared.push_back(eval::PrepareModel(dataset, arch, scope.config));
    instances.push_back(
        eval::SelectInstances(prepared.back(), scope.config, eval::InstanceFilter::kAny));
    LOG_INFO << dataset << " ready (" << instances.back().size() << " instances)";
  }

  for (const std::string& method : scope.methods) {
    std::vector<std::string> row{method};
    for (size_t d = 0; d < scope.datasets.size(); ++d) {
      if (!MethodSupportsArch(method, arch) ||
          !eval::ArchSupportsDataset(arch, scope.datasets[d])) {
        row.push_back("N/A");
        continue;
      }
      auto explainer = eval::MakeExplainer(method, scope.config);
      // Amortized methods: report "training (inference)" like the paper.
      double train_seconds = 0.0;
      if (eval::NeedsAmortizedTraining(*explainer)) {
        obs::ScopedSpan train_span("table5.train_amortized");
        const util::Status trained =
            eval::TrainAmortized(explainer.get(), prepared[d], instances[d],
                                 explain::Objective::kFactual, scope.config);
        CHECK(trained.ok()) << trained.ToString();
        train_seconds = train_span.ElapsedSeconds();
      }
      std::vector<explain::ExplanationTask> tasks;
      tasks.reserve(instances[d].size());
      for (const auto& instance : instances[d]) {
        tasks.push_back(instance.MakeTask(prepared[d].model.get()));
      }
      double explain_seconds = 0.0;
      {
        // The span doubles as the wall clock; it also lands in --trace-out.
        obs::ScopedSpan explain_span("table5.explain_all");
        // Instances run concurrently under --threads > 1; the reported number
        // is wall-clock per instance, i.e. throughput including the speedup.
        (void)eval::ExplainAll(explainer.get(), tasks, explain::Objective::kFactual);
        explain_seconds = explain_span.ElapsedSeconds();
      }
      const int count = static_cast<int>(tasks.size());
      const double per_instance = count > 0 ? explain_seconds / count : 0.0;
      if (eval::NeedsAmortizedTraining(*explainer)) {
        row.push_back(util::TablePrinter::FormatDouble(train_seconds, 2) + " (" +
                      util::TablePrinter::FormatDouble(per_instance, 3) + ")");
      } else {
        row.push_back(util::TablePrinter::FormatDouble(per_instance, 3));
      }
      LOG_INFO << method << " on " << scope.datasets[d] << ": " << per_instance << "s/inst";
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\nNote: per-instance seconds; the paper reports totals over 50 instances\n"
              "with 500 epochs. Shapes to compare: GradCAM/DeepLIFT fastest, SubgraphX\n"
              "slowest, Revelio fastest among flow-based methods on flow-heavy datasets.\n");

  // --plan-sweep FILE: measure the recorded-execution-plan replay path
  // (REVELIO_EXEC_PLAN, DESIGN.md section 12) against the fully eager loop at
  // increasing epoch counts. Epoch 0 records the tape either way; every
  // further epoch replays it (recorded kernels in tape order, no
  // allocation), so the speedup grows as the record cost
  // amortizes — the largest epoch count is the gated point. Every point must
  // stay bitwise-equal. Run with --threads 1 for the paper comparison.
  const std::string plan_sweep_out = flags.GetString("plan-sweep", "");
  if (!plan_sweep_out.empty()) {
    struct PlanRow {
      std::string dataset;
      int instances = 0;
      int epochs = 0;
      double eager_seconds = 0.0;
      double plan_seconds = 0.0;
      double plan_speedup = 0.0;
      bool bitwise_equal = true;
      uint64_t replays = 0;
    };
    std::vector<PlanRow> rows;
    const bool plan_was_enabled = plan::ExecPlanEnabled();
    const bool metrics_were_enabled = obs::Enabled();
    obs::SetEnabled(true);  // the sweep reads the plan.* counters
    obs::Counter* replays_counter = obs::MetricsRegistry::Global().GetCounter("plan.replays");
    constexpr int kPlanReps = 5;
    std::printf("\n== Revelio plan replay vs eager (writes %s) ==\n", plan_sweep_out.c_str());
    for (size_t d = 0; d < scope.datasets.size(); ++d) {
      std::vector<int> epoch_points{scope.config.explainer_epochs / 10,
                                    scope.config.explainer_epochs / 2,
                                    scope.config.explainer_epochs};
      for (int& e : epoch_points) e = std::max(e, 2);
      epoch_points.erase(std::unique(epoch_points.begin(), epoch_points.end()),
                         epoch_points.end());
      for (const int epochs : epoch_points) {
        eval::RunnerConfig config = scope.config;
        config.explainer_epochs = epochs;
        auto explainer = eval::MakeExplainer("Revelio", config);
        std::vector<explain::ExplanationTask> tasks;
        tasks.reserve(instances[d].size());
        for (const auto& instance : instances[d]) {
          tasks.push_back(instance.MakeTask(prepared[d].model.get()));
        }
        if (tasks.empty()) continue;
        auto run = [&] {
          util::Timer timer;
          std::vector<explain::Explanation> explanations =
              eval::ExplainAll(explainer.get(), tasks, explain::Objective::kFactual);
          return std::pair<std::vector<explain::Explanation>, double>(std::move(explanations),
                                                                      timer.ElapsedSeconds());
        };
        PlanRow row;
        row.dataset = scope.datasets[d];
        row.instances = static_cast<int>(tasks.size());
        row.epochs = epochs;
        // Warm both modes (model/graph caches), then take
        // the best of interleaved reps so scheduler drift hits both equally.
        plan::SetExecPlanEnabled(false);
        (void)run();
        plan::SetExecPlanEnabled(true);
        (void)run();
        std::vector<explain::Explanation> eager_explanations;
        std::vector<explain::Explanation> plan_explanations;
        double eager_best = 0.0;
        double plan_best = 0.0;
        for (int rep = 0; rep < kPlanReps; ++rep) {
          plan::SetExecPlanEnabled(false);
          auto [eager, eager_seconds] = run();
          plan::SetExecPlanEnabled(true);
          const uint64_t replays_before = replays_counter->Total();
          auto [planned, plan_seconds] = run();
          row.replays = replays_counter->Total() - replays_before;
          if (rep == 0 || eager_seconds < eager_best) eager_best = eager_seconds;
          if (rep == 0 || plan_seconds < plan_best) plan_best = plan_seconds;
          if (rep == 0) {
            eager_explanations = std::move(eager);
            plan_explanations = std::move(planned);
          }
        }
        row.eager_seconds = eager_best;
        row.plan_seconds = plan_best;
        row.plan_speedup = plan_best > 0.0 ? eager_best / plan_best : 0.0;
        row.bitwise_equal = eager_explanations.size() == plan_explanations.size();
        for (size_t i = 0; i < eager_explanations.size() && row.bitwise_equal; ++i) {
          if (eager_explanations[i].edge_scores != plan_explanations[i].edge_scores ||
              eager_explanations[i].flow_scores != plan_explanations[i].flow_scores) {
            row.bitwise_equal = false;
          }
        }
        std::printf("%-12s epochs=%-3d  eager %8.4fs  plan %8.4fs  speedup=%5.2fx  "
                    "replays=%llu  bitwise_equal=%s\n",
                    row.dataset.c_str(), row.epochs, row.eager_seconds, row.plan_seconds,
                    row.plan_speedup, static_cast<unsigned long long>(row.replays),
                    row.bitwise_equal ? "yes" : "NO");
        rows.push_back(std::move(row));
      }
    }
    plan::SetExecPlanEnabled(plan_was_enabled);
    obs::SetEnabled(metrics_were_enabled);
    bench::WriteBenchJson(plan_sweep_out, "plan_sweep", [&](obs::JsonWriter* w) {
      w->BeginObject();
      w->Key("points");
      w->BeginArray();
      for (const PlanRow& r : rows) {
        w->BeginObject();
        w->Key("dataset");
        w->String(r.dataset);
        w->Key("instances");
        w->Int(r.instances);
        w->Key("epochs");
        w->Int(r.epochs);
        w->Key("eager_seconds");
        w->Double(r.eager_seconds);
        w->Key("plan_seconds");
        w->Double(r.plan_seconds);
        w->Key("plan_speedup");
        w->Double(r.plan_speedup);
        w->Key("bitwise_equal");
        w->Bool(r.bitwise_equal);
        w->Key("replays");
        w->Uint(r.replays);
        w->EndObject();
      }
      w->EndArray();
      w->EndObject();
    });
  }

  // --obs-out FILE: measure the flight recorder's overhead on the Revelio
  // column. Runs the same task list with the recorder disabled and enabled,
  // interleaved min-of-N so drift hits both modes equally, and verifies the
  // explanations stay bitwise-equal — the observability layer must never
  // touch the numerics. obs_bench_check gates overhead_ratio in CI.
  const std::string obs_out = flags.GetString("obs-out", "");
  if (!obs_out.empty()) {
    struct ObsRow {
      std::string dataset;
      int instances = 0;
      double off_seconds = 0.0;  // REVELIO_FLIGHT_RECORDER=0 path, best of N
      double on_seconds = 0.0;   // recorder enabled, best of N
      double overhead_ratio = 0.0;
      bool bitwise_equal = false;
      uint64_t flight_events = 0;
    };
    std::vector<ObsRow> rows;
    const bool flight_was_enabled = obs::FlightEnabled();
    constexpr int kReps = 3;
    std::printf("\n== Revelio flight recorder on vs off (writes %s) ==\n", obs_out.c_str());
    for (size_t d = 0; d < scope.datasets.size(); ++d) {
      auto explainer = eval::MakeExplainer("Revelio", scope.config);
      std::vector<explain::ExplanationTask> tasks;
      tasks.reserve(instances[d].size());
      for (const auto& instance : instances[d]) {
        tasks.push_back(instance.MakeTask(prepared[d].model.get()));
      }
      if (tasks.empty()) continue;
      auto run = [&] {
        util::Timer timer;
        std::vector<explain::Explanation> explanations =
            eval::ExplainAll(explainer.get(), tasks, explain::Objective::kFactual);
        return std::pair<std::vector<explain::Explanation>, double>(std::move(explanations),
                                                                    timer.ElapsedSeconds());
      };
      ObsRow row;
      row.dataset = scope.datasets[d];
      row.instances = static_cast<int>(tasks.size());
      // Warm both modes: caches for off, name interning + ring shards
      // for on, so neither mode pays first-touch costs inside the timing.
      obs::SetFlightEnabled(false);
      (void)run();
      obs::SetFlightEnabled(true);
      (void)run();
      std::vector<explain::Explanation> off_explanations;
      std::vector<explain::Explanation> on_explanations;
      double off_best = 0.0;
      double on_best = 0.0;
      for (int rep = 0; rep < kReps; ++rep) {
        obs::SetFlightEnabled(false);
        auto [off, off_seconds] = run();
        obs::SetFlightEnabled(true);
        auto [on, on_seconds] = run();
        if (rep == 0 || off_seconds < off_best) off_best = off_seconds;
        if (rep == 0 || on_seconds < on_best) on_best = on_seconds;
        if (rep == 0) {
          off_explanations = std::move(off);
          on_explanations = std::move(on);
        }
      }
      row.off_seconds = off_best;
      row.on_seconds = on_best;
      row.overhead_ratio = off_best > 0.0 ? on_best / off_best : 0.0;
      row.flight_events = obs::FlightRecorder::Global().total_recorded();
      row.bitwise_equal = off_explanations.size() == on_explanations.size();
      for (size_t i = 0; i < off_explanations.size() && row.bitwise_equal; ++i) {
        if (off_explanations[i].edge_scores != on_explanations[i].edge_scores ||
            off_explanations[i].flow_scores != on_explanations[i].flow_scores) {
          row.bitwise_equal = false;
        }
      }
      std::printf("%-12s instances=%-3d  off %8.4fs  on %8.4fs  overhead=%5.3fx  "
                  "events=%llu  bitwise_equal=%s\n",
                  row.dataset.c_str(), row.instances, row.off_seconds, row.on_seconds,
                  row.overhead_ratio, static_cast<unsigned long long>(row.flight_events),
                  row.bitwise_equal ? "yes" : "NO");
      rows.push_back(std::move(row));
    }
    obs::SetFlightEnabled(flight_was_enabled);
    bench::WriteBenchJson(obs_out, "table5_obs", [&](obs::JsonWriter* w) {
      w->BeginObject();
      w->Key("flight_capacity");
      w->Uint(obs::FlightRecorder::Global().capacity());
      w->Key("points");
      w->BeginArray();
      for (const ObsRow& r : rows) {
        w->BeginObject();
        w->Key("dataset");
        w->String(r.dataset);
        w->Key("instances");
        w->Int(r.instances);
        w->Key("off_seconds");
        w->Double(r.off_seconds);
        w->Key("on_seconds");
        w->Double(r.on_seconds);
        w->Key("overhead_ratio");
        w->Double(r.overhead_ratio);
        w->Key("bitwise_equal");
        w->Bool(r.bitwise_equal);
        w->Key("flight_events");
        w->Uint(r.flight_events);
        w->EndObject();
      }
      w->EndArray();
      w->EndObject();
    });
  }
  return 0;
}
