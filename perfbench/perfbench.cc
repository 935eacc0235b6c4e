// perfbench: the repository benchmark's measuring program.
//
// Runs one Revelio workload (see perfbench/spec.json for why each exists)
// with every layer at the program's defaults and writes its results to
// <out>/result.json. perfbench/run.py builds this program, drives it, and
// prints the benchmark's result line.
//
//   perfbench --workload tree_cycles_node --seed 1 --seconds 10 --mode e2e --out DIR
//
// --mode e2e    measures the end-to-end metrics with telemetry off.
// --mode trace  turns telemetry on, calls each layer's public functions on the
//               workload's instances inside spans recorded here, and writes
//               <out>/trace.json (Chrome trace of those spans) and
//               <out>/counters.json (snapshot of the program's obs metrics
//               plus this program's shape-derived "bench.*" gauges). run.py
//               derives every per-layer metric from those two files.
//
// Every run checks the program's outputs: each explanation has Ok status and
// finite edge scores sized to its graph, and every score vector is bitwise
// equal to the mega-batched eval::ExplainAll reference computed at set-up.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/revelio.h"
#include "datasets/dataset.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "flow/message_flow.h"
#include "gnn/layer_edges.h"
#include "graph/subgraph.h"
#include "nn/optimizer.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace revelio;
using explain::Explanation;
using explain::ExplanationTask;
using explain::Objective;
using tensor::Tensor;

struct WorkloadSpec {
  const char* name;
  const char* dataset;
  gnn::GnnArch arch;
  bool serve;  // requests go through serve::ExplanationServer
};

constexpr WorkloadSpec kWorkloads[] = {
    {"tree_cycles_node", "tree_cycles", gnn::GnnArch::kGcn, false},
    {"ba_shapes_node", "ba_shapes", gnn::GnnArch::kGcn, false},
    {"mutag_serve", "mutag_like", gnn::GnnArch::kGat, true},
};

constexpr int kInstances = 64;
constexpr int kMinInstanceEdges = 12;
constexpr int kExplainerEpochs = 100;
constexpr int kHiddenDim = 32;  // eval::PrepareModel's hidden width
constexpr int kGatHeads = 8;

// mutag_serve load: open-loop Poisson stretches at a fixed absolute rate
// below the 1-worker capacity, each followed by a closed saturation round of
// blocking Submit calls; requests mix objectives 3:1 factual:counterfactual.
constexpr double kServeRatePerSecond = 3.0;
constexpr double kCounterfactualShare = 0.25;
constexpr int kSaturationRounds = 6;
constexpr int kSaturationRoundSize = 24;
// Generator lateness above this makes the open-loop run invalid: the
// schedule, not the server, would then be what the latencies measure.
constexpr double kMaxGeneratorLagMs = 100.0;

// The workload's dataset, pretrained model, 64 instances and serving traffic
// (arrival times, instance order, objective mix) come from this fixed seed, so
// every --seed does the same work: a random instance draw changes ba_shapes'
// total flow work ~2x, and a fresh Poisson draw of ~60 arrivals moves the
// serving p95 by more than any layer change would. --seed drives the Revelio
// mask initialization and the one-at-a-time latency order.
constexpr uint64_t kInputSeed = 1;

const char* kModelName = "target";

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Linear interpolation between closest ranks (numpy's default).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// --- Output checks ------------------------------------------------------------

struct Checks {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> messages;  // first few failures, for the log

  void Fail(const std::string& message) {
    ++failed;
    if (messages.size() < 8) messages.push_back(message);
  }
  void Merge(const Checks& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const auto& m : other.messages) {
      if (messages.size() < 8) messages.push_back(m);
    }
  }
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// One attempted explanation: Ok, finite, sized to the graph, and bitwise
// equal to the reference. Returns true when it passes.
bool CheckExplanation(const Explanation& got, const Explanation& reference,
                      const graph::Graph& graph, const std::string& where, Checks* checks) {
  ++checks->attempted;
  if (!got.status.ok()) {
    checks->Fail(where + ": status " + got.status.ToString());
    return false;
  }
  if (static_cast<int>(got.edge_scores.size()) != graph.num_edges()) {
    checks->Fail(where + ": edge_scores size " + std::to_string(got.edge_scores.size()) +
                 " != " + std::to_string(graph.num_edges()));
    return false;
  }
  for (double s : got.edge_scores) {
    if (!std::isfinite(s)) {
      checks->Fail(where + ": non-finite edge score");
      return false;
    }
  }
  if (!SameBits(got.edge_scores, reference.edge_scores)) {
    checks->Fail(where + ": edge scores differ from the ExplainAll reference");
    return false;
  }
  return true;
}

// --- Set-up -------------------------------------------------------------------

struct Setup {
  serve::ModelRegistry registry;  // owns the pretrained model
  const gnn::GnnModel* model = nullptr;
  std::vector<eval::EvalInstance> instances;
  std::vector<ExplanationTask> tasks;
  std::unique_ptr<explain::Explainer> explainer;
  // eval::ExplainAll results per objective (index 0 factual, 1 counterfactual;
  // the counterfactual pass only runs on serving workloads).
  std::vector<Explanation> reference[2];
  double auc = 0.0;  // mean edge ROC-AUC of the factual reference
  int auc_instances = 0;
};

eval::RunnerConfig MakeConfig(int explainer_epochs) {
  eval::RunnerConfig config;
  config.seed = kInputSeed;
  config.num_instances = kInstances;
  config.min_instance_edges = kMinInstanceEdges;
  config.explainer_epochs = explainer_epochs;
  return config;
}

// Revelio as eval::MakeExplainer configures it, with its mask initialization
// seeded by the benchmark seed.
std::unique_ptr<explain::Explainer> MakeRevelio(uint64_t seed, int epochs) {
  const std::unique_ptr<explain::Explainer> base = eval::MakeExplainer("Revelio", MakeConfig(epochs));
  core::RevelioOptions options = static_cast<const core::RevelioExplainer&>(*base).options();
  options.seed = seed;
  return std::make_unique<core::RevelioExplainer>(options);
}

// Mean ROC-AUC of `explanations` against the motif ground truth, over the
// instances whose edge labels hold both classes.
double MeanAuc(const std::vector<eval::EvalInstance>& instances,
               const std::vector<Explanation>& explanations, int* counted) {
  double total = 0.0;
  *counted = 0;
  for (size_t i = 0; i < instances.size(); ++i) {
    const auto& labels = instances[i].edge_in_motif;
    const auto positives = std::count(labels.begin(), labels.end(), 1);
    if (positives == 0 || positives == static_cast<int64_t>(labels.size())) continue;
    if (explanations[i].edge_scores.size() != labels.size()) continue;
    total += eval::RocAuc(explanations[i].edge_scores, labels);
    ++*counted;
  }
  return *counted > 0 ? total / *counted : 0.0;
}

// MakeDataset, GNN pretraining (eval::PrepareModel), SelectInstances and one
// warm-up eval::ExplainAll pass, whose results are the factual reference.
// `traced` adds the dataset and k-hop probes; spans record only while
// telemetry is on (trace mode).
std::unique_ptr<Setup> SetUp(const WorkloadSpec& spec, uint64_t seed, bool traced) {
  auto setup = std::make_unique<Setup>();
  const eval::RunnerConfig config = MakeConfig(kExplainerEpochs);
  if (traced) {
    obs::ScopedSpan span("bench.datasets.build");
    datasets::MakeDataset(spec.dataset, config.seed);
  }
  eval::PreparedModel prepared;
  {
    obs::ScopedSpan span("bench.eval.prepare_model");
    prepared = eval::PrepareModel(spec.dataset, spec.arch, config);
  }
  {
    obs::ScopedSpan span("bench.eval.select");
    setup->instances = eval::SelectInstances(prepared, config, eval::InstanceFilter::kAny);
  }
  setup->model = prepared.model.get();
  const util::Status registered = setup->registry.Register(kModelName, std::move(prepared.model));
  if (!registered.ok()) {
    std::fprintf(stderr, "perfbench: model registry: %s\n", registered.ToString().c_str());
    std::exit(2);
  }
  if (traced) {
    // graph layer: the k-hop computation-subgraph extraction node tasks use,
    // from one seeded node per instance.
    util::Rng rng(seed + 5);
    const int hops = setup->model->num_layers();
    if (prepared.dataset.is_node_task()) {
      const graph::Graph& g = prepared.dataset.instances[0].graph;
      for (int i = 0; i < kInstances; ++i) {
        obs::ScopedSpan span("bench.graph.khop");
        graph::ExtractKHopInSubgraph(g, rng.UniformInt(g.num_nodes()), hops);
      }
    } else {
      for (const eval::EvalInstance& instance : setup->instances) {
        obs::ScopedSpan span("bench.graph.khop");
        graph::ExtractKHopInSubgraph(instance.graph, rng.UniformInt(instance.graph.num_nodes()),
                                     hops);
      }
    }
  }
  for (const eval::EvalInstance& instance : setup->instances) {
    setup->tasks.push_back(instance.MakeTask(setup->model));
  }
  setup->explainer = MakeRevelio(seed, kExplainerEpochs);
  {
    obs::ScopedSpan span("bench.setup.warmup");
    setup->reference[0] = eval::ExplainAll(setup->explainer.get(), setup->tasks,
                                           Objective::kFactual);
  }
  setup->auc = MeanAuc(setup->instances, setup->reference[0], &setup->auc_instances);
  return setup;
}

// The counterfactual reference serving workloads check against: output
// checking, not set-up, so it runs once after the timed set-ups.
void AddCounterfactualReference(Setup* setup) {
  setup->reference[1] =
      eval::ExplainAll(setup->explainer.get(), setup->tasks, Objective::kCounterfactual);
}

// Set-up failures are input problems, not measurements: fail loudly.
void ValidateSetup(const Setup& setup, const WorkloadSpec& spec) {
  std::string problem;
  if (static_cast<int>(setup.instances.size()) != kInstances) {
    problem = "selected " + std::to_string(setup.instances.size()) + " instances, want " +
              std::to_string(kInstances);
  }
  for (int o = 0; o < (spec.serve ? 2 : 1) && problem.empty(); ++o) {
    Checks checks;
    for (size_t i = 0; i < setup.tasks.size(); ++i) {
      CheckExplanation(setup.reference[o][i], setup.reference[o][i], *setup.tasks[i].graph,
                       "reference", &checks);
    }
    if (checks.failed > 0) problem = checks.messages.front();
  }
  if (problem.empty() && setup.auc_instances == 0) problem = "no instance has both AUC classes";
  if (!problem.empty()) {
    std::fprintf(stderr, "perfbench: %s set-up invalid: %s\n", spec.name, problem.c_str());
    std::exit(2);
  }
}

// --- Node workloads: closed-loop ExplainAll passes and one-at-a-time Explain ---

// One eval::ExplainAll pass over every task, checked against the reference.
// Returns its wall time in seconds.
double RunExplainAllPass(const Setup& setup, const char* span_name, Checks* checks) {
  std::vector<Explanation> out;
  double seconds = 0.0;
  {
    obs::ScopedSpan span(span_name);
    out = eval::ExplainAll(setup.explainer.get(), setup.tasks, Objective::kFactual);
    seconds = span.ElapsedSeconds();
  }
  for (size_t i = 0; i < out.size(); ++i) {
    CheckExplanation(out[i], setup.reference[0][i], *setup.tasks[i].graph, "ExplainAll", checks);
  }
  return seconds;
}

// --- Serving: open-loop and saturation phases ------------------------------------

struct ServeSample {
  double latency_ms = std::numeric_limits<double>::infinity();  // scheduled -> response
  double queue_ms = 0.0;
  double run_ms = 0.0;
  int batch_size = 0;
  bool ok = false;
};

struct ServeRun {
  std::vector<ServeSample> samples;  // one per scheduled request
  double gen_lag_ms_max = 0.0;       // how late the generator sent, worst case
};

struct RequestPlan {
  std::vector<double> offsets_s;  // scheduled send time from phase start
  std::vector<int> instance;
  std::vector<Objective> objective;
};

// Poisson arrivals at `rate_per_s` (all at time 0 when it is 0). Instances
// are drawn as permutations of all 64 (each block of 64 requests explains
// every instance once) and exactly a quarter of each block is counterfactual
// when objectives are mixed, so how much work a plan holds does not depend on
// the draw.
RequestPlan MakePlan(int count, double rate_per_s, bool mixed_objectives, util::Rng* rng) {
  RequestPlan plan;
  std::vector<int> instances(kInstances);
  std::vector<Objective> objectives(kInstances, Objective::kFactual);
  if (mixed_objectives) {
    const int counterfactual = static_cast<int>(kInstances * kCounterfactualShare);
    std::fill_n(objectives.begin(), counterfactual, Objective::kCounterfactual);
  }
  double t = 0.0;
  for (int k = 0; k < count; ++k) {
    if (k % kInstances == 0) {
      std::iota(instances.begin(), instances.end(), 0);
      rng->Shuffle(&instances);
      rng->Shuffle(&objectives);
    }
    if (rate_per_s > 0.0) t += -std::log(1.0 - rng->Uniform()) / rate_per_s;
    plan.offsets_s.push_back(t);
    plan.instance.push_back(instances[k % kInstances]);
    plan.objective.push_back(objectives[k % kInstances]);
  }
  return plan;
}

// The requests [begin, end) of `plan`, timed from the first of them.
RequestPlan Slice(const RequestPlan& plan, int begin, int end) {
  RequestPlan out;
  for (int k = begin; k < end; ++k) {
    out.offsets_s.push_back(plan.offsets_s[k] - plan.offsets_s[begin]);
    out.instance.push_back(plan.instance[k]);
    out.objective.push_back(plan.objective[k]);
  }
  return out;
}

serve::ExplainRequest MakeRequest(const Setup& setup, int instance, Objective objective) {
  const eval::EvalInstance& source = setup.instances[instance];
  serve::ExplainRequest request;
  request.model = kModelName;
  request.method = "Revelio";
  request.objective = objective;
  request.graph = source.graph;
  request.features = source.features;
  request.target_node = source.target_node;
  request.target_class = source.target_class;
  return request;
}

int ObjectiveIndex(Objective objective) { return objective == Objective::kFactual ? 0 : 1; }

void CheckResponse(const Setup& setup, const RequestPlan& plan, size_t k,
                   const serve::ExplainResponse& response, ServeSample* sample, Checks* checks) {
  const int i = plan.instance[k];
  Explanation got = response.explanation;
  if (!response.status.ok()) got.status = response.status;
  sample->ok = CheckExplanation(got, setup.reference[ObjectiveIndex(plan.objective[k])][i],
                                *setup.tasks[i].graph, "serve", checks);
  sample->queue_ms = response.queue_seconds * 1e3;
  sample->run_ms = response.run_seconds * 1e3;
  sample->batch_size = response.batch_size;
}

// Sends `plan` open-loop with TrySubmit: each request goes out at its
// scheduled time whether or not earlier ones finished, and its latency runs
// from that scheduled time to the moment its response is available. A
// collector thread waits on the futures in send order (the single worker
// serves FIFO, so that is completion order).
ServeRun RunOpenLoop(serve::ExplanationServer* server, const Setup& setup,
                     const RequestPlan& plan, Checks* checks) {
  ServeRun run;
  run.samples.resize(plan.offsets_s.size());
  struct InFlight {
    size_t k;
    std::future<serve::ExplainResponse> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> inflight;
  bool done = false;
  Checks collector_checks;
  const double start = NowSeconds() + 0.005;

  std::thread collector([&] {
    for (;;) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !inflight.empty(); });
        if (inflight.empty()) return;
        item = std::move(inflight.front());
        inflight.pop_front();
      }
      const serve::ExplainResponse response = item.future.get();
      ServeSample& sample = run.samples[item.k];
      CheckResponse(setup, plan, item.k, response, &sample, &collector_checks);
      if (sample.ok) sample.latency_ms = (NowSeconds() - start - plan.offsets_s[item.k]) * 1e3;
    }
  });

  for (size_t k = 0; k < plan.offsets_s.size(); ++k) {
    const double due = start + plan.offsets_s[k];
    const double wait = due - NowSeconds();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    run.gen_lag_ms_max = std::max(run.gen_lag_ms_max, (NowSeconds() - due) * 1e3);
    auto submitted = server->TrySubmit(MakeRequest(setup, plan.instance[k], plan.objective[k]));
    if (!submitted.ok()) {  // shed (queue full) or refused: a failed request
      ++checks->attempted;
      checks->Fail("TrySubmit: " + submitted.status().ToString());
      continue;
    }
    std::lock_guard<std::mutex> lock(mu);
    inflight.push_back({k, std::move(submitted).value()});
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  }
  collector.join();
  checks->Merge(collector_checks);
  return run;
}

// One closed saturation round of blocking Submit calls: its throughput is
// the completed count over first-send-to-last-response time.
double RunSaturationRound(serve::ExplanationServer* server, const Setup& setup,
                          const RequestPlan& plan, Checks* checks) {
  std::vector<std::future<serve::ExplainResponse>> futures;
  const double start = NowSeconds();
  for (size_t k = 0; k < plan.instance.size(); ++k) {
    auto submitted = server->Submit(MakeRequest(setup, plan.instance[k], plan.objective[k]));
    if (!submitted.ok()) {
      ++checks->attempted;
      checks->Fail("Submit: " + submitted.status().ToString());
      futures.emplace_back();
      continue;
    }
    futures.push_back(std::move(submitted).value());
  }
  int completed = 0;
  for (size_t k = 0; k < futures.size(); ++k) {
    if (!futures[k].valid()) continue;
    ServeSample sample;
    CheckResponse(setup, plan, k, futures[k].get(), &sample, checks);
    completed += sample.ok ? 1 : 0;
  }
  return completed / (NowSeconds() - start);
}

// One worker, coalescing on; the Revelio explainer is registered explicitly.
serve::ServeOptions MakeServeOptions() {
  serve::ServeOptions options;
  options.num_workers = 1;
  options.coalesce = true;
  return options;
}

// Every submitted request must be accounted for exactly once.
void CheckConservation(const serve::ServerStats& stats, Checks* checks) {
  const uint64_t accounted = stats.completed + stats.rejected_full + stats.timed_out +
                             stats.cancelled + stats.rejected_invalid + stats.rejected_shutdown;
  if (stats.submitted != accounted) {
    checks->Fail("serve conservation: submitted " + std::to_string(stats.submitted) +
                 " != completed+shed+timed_out+cancelled+rejected " + std::to_string(accounted));
  }
}

// --- Result output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  int64_t samples;
};

void WriteResult(const std::string& path, const Checks& checks, const std::vector<Metric>& metrics,
                 const std::vector<std::pair<std::string, double>>& info) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(checks.failed == 0);
  w.Key("attempted");
  w.Int(checks.attempted);
  w.Key("failed");
  w.Int(checks.failed);
  w.Key("check_failures");
  w.BeginArray();
  for (const auto& m : checks.messages) w.String(m);
  w.EndArray();
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name);
    w.BeginObject();
    w.Key("value");
    w.Double(m.value);
    w.Key("unit");
    w.String(m.unit);
    w.Key("samples");
    w.Int(m.samples);
    w.EndObject();
  }
  w.EndObject();
  w.Key("info");
  w.BeginObject();
  for (const auto& [key, value] : info) {
    w.Key(key);
    w.Double(value);
  }
  w.EndObject();
  w.EndObject();
  std::ofstream out(path);
  out << w.str() << "\n";
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string out_dir;
  int setup_reps = 3;
};

// --- End-to-end mode ----------------------------------------------------------------

int RunEndToEnd(const WorkloadSpec& spec, const Args& args) {
  // Set-up runs several times; setup_s is the median, and the last set-up is
  // the one measured.
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> setup;
  for (int r = 0; r < args.setup_reps; ++r) {
    setup.reset();
    util::Timer timer;
    setup = SetUp(spec, args.seed, /*traced=*/false);
    setup_seconds.push_back(timer.ElapsedSeconds());
  }
  if (spec.serve) AddCounterfactualReference(setup.get());
  ValidateSetup(*setup, spec);

  Checks checks;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> info;
  util::Rng rng(args.seed + 101);
  double expl_per_s = 0.0;
  int64_t throughput_samples = 0;
  std::vector<double> latencies_ms;

  // The throughput and latency phases alternate over the whole budget, so
  // both sample the same stretch of time: the host's load drifts over tens of
  // seconds, and one phase per half would see different halves of it.
  if (!spec.serve) {
    // Each cycle: one closed-loop ExplainAll pass over the 64 tasks, then one
    // sweep of one-at-a-time Explain calls in a seeded order.
    std::vector<int> order(kInstances);
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(&order);
    std::vector<double> pass_seconds;
    const double start = NowSeconds();
    while (pass_seconds.size() < 3 || NowSeconds() - start < args.seconds) {
      pass_seconds.push_back(RunExplainAllPass(*setup, "bench.explain_all.pass", &checks));
      for (int i : order) {
        util::Timer timer;
        const Explanation got = setup->explainer->Explain(setup->tasks[i], Objective::kFactual);
        const double ms = timer.ElapsedSeconds() * 1e3;
        const bool ok = CheckExplanation(got, setup->reference[0][i], *setup->tasks[i].graph,
                                         "Explain", &checks);
        latencies_ms.push_back(ok ? ms : std::numeric_limits<double>::infinity());
      }
    }
    expl_per_s = kInstances / Median(pass_seconds);
    throughput_samples = static_cast<int64_t>(pass_seconds.size());
  } else {
    serve::ExplanationServer server(&setup->registry, MakeServeOptions());
    server.RegisterExplainer("Revelio", MakeRevelio(args.seed, kExplainerEpochs));
    server.Start();
    // Each cycle: an open-loop stretch (the whole budget over all cycles:
    // 45 requests at 15 s), drained, then one saturation round (~7 s in all,
    // on top of the budget).
    const int open_loop_requests = std::max(
        kSaturationRounds, static_cast<int>(std::lround(kServeRatePerSecond * args.seconds)));
    util::Rng traffic_rng(kInputSeed + 303);
    const RequestPlan open_plan =
        MakePlan(open_loop_requests, kServeRatePerSecond, true, &traffic_rng);
    const RequestPlan saturation_plan =
        MakePlan(kSaturationRounds * kSaturationRoundSize, 0.0, true, &traffic_rng);
    std::vector<double> rounds;
    double gen_lag_ms_max = 0.0;
    for (int c = 0; c < kSaturationRounds; ++c) {
      const ServeRun run =
          RunOpenLoop(&server, *setup,
                      Slice(open_plan, c * open_loop_requests / kSaturationRounds,
                            (c + 1) * open_loop_requests / kSaturationRounds),
                      &checks);
      for (const ServeSample& s : run.samples) latencies_ms.push_back(s.latency_ms);
      gen_lag_ms_max = std::max(gen_lag_ms_max, run.gen_lag_ms_max);
      rounds.push_back(RunSaturationRound(&server, *setup,
                                          Slice(saturation_plan, c * kSaturationRoundSize,
                                                (c + 1) * kSaturationRoundSize),
                                          &checks));
    }
    expl_per_s = Median(rounds);
    throughput_samples = static_cast<int64_t>(rounds.size());
    server.Shutdown(serve::ExplanationServer::DrainMode::kDrain);
    const serve::ServerStats stats = server.stats();
    CheckConservation(stats, &checks);
    if (gen_lag_ms_max > kMaxGeneratorLagMs) {
      checks.Fail("open-loop generator ran " + std::to_string(gen_lag_ms_max) +
                  " ms late (bound " + std::to_string(kMaxGeneratorLagMs) + " ms)");
    }
    info.emplace_back("serve_rate_per_s", kServeRatePerSecond);
    info.emplace_back("serve_gen_lag_ms_max", gen_lag_ms_max);
    info.emplace_back("serve_shed", static_cast<double>(stats.rejected_full));
    info.emplace_back("serve_timed_out", static_cast<double>(stats.timed_out));
    info.emplace_back("serve_submitted", static_cast<double>(stats.submitted));
    info.emplace_back("serve_completed", static_cast<double>(stats.completed));
  }

  const auto n_lat = static_cast<int64_t>(latencies_ms.size());
  metrics.push_back({"expl_per_s", expl_per_s, "1/s", throughput_samples});
  metrics.push_back({"latency_p50_ms", Percentile(latencies_ms, 0.50), "ms", n_lat});
  metrics.push_back({"latency_p95_ms", Percentile(latencies_ms, 0.95), "ms", n_lat});
  metrics.push_back({"fail_ratio",
                     checks.attempted > 0 ? static_cast<double>(checks.failed) / checks.attempted
                                          : 1.0,
                     "ratio", checks.attempted});
  metrics.push_back({"explanation_auc", setup->auc, "auc", setup->auc_instances});
  metrics.push_back({"setup_s", Median(setup_seconds), "s",
                     static_cast<int64_t>(setup_seconds.size())});
  metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1});
  info.emplace_back("threads", util::NumThreads());
  info.emplace_back("instances", static_cast<double>(setup->instances.size()));
  WriteResult(args.out_dir + "/result.json", checks, metrics, info);
  return 0;
}

// --- Trace mode: per-layer probes ---------------------------------------------------

// FLOPs and bytes computed from tensor shapes (not measured by counters):
// each op counts the bytes of its inputs, index vectors and outputs once.
struct Roofline {
  double flops = 0.0;
  double bytes = 0.0;
};

struct ProbeTotals {
  Roofline mask_build, aggregate, combine, attention;
  std::vector<double> flows;
};

void ProbeInstance(const Setup& setup, int i, explain::Explainer* one_epoch, util::Rng* rng,
                   ProbeTotals* totals, Checks* checks) {
  const ExplanationTask& task = setup.tasks[i];
  const graph::Graph& graph = *task.graph;
  const gnn::GnnModel& model = *setup.model;
  const int layers = model.num_layers();

  gnn::LayerEdgeSet edges;
  {
    obs::ScopedSpan span("bench.gnn.layer_edges");
    edges = gnn::BuildLayerEdges(graph);
  }
  flow::FlowSet flows;
  {
    obs::ScopedSpan span("bench.flow.enumerate");
    flows = task.is_node_task()
                ? flow::EnumerateFlowsToTarget(edges, task.target_node, layers, 60'000)
                : flow::EnumerateAllFlows(edges, layers, 60'000);
  }
  const double f = flows.num_flows();
  const double e = edges.num_layer_edges();
  const double n = graph.num_nodes();
  totals->flows.push_back(f);

  // Eq. 5 mask build: omega = tanh(M); per layer sigmoid(ScatterAdd(omega) * exp(w_l)).
  Tensor mask_params = Tensor::Uniform(flows.num_flows(), 1, -1.0f, 1.0f, rng).WithRequiresGrad();
  Tensor layer_weights = Tensor::Zeros(layers, 1).WithRequiresGrad();
  Tensor omega = tensor::Tanh(mask_params);
  std::vector<Tensor> masks;
  {
    obs::ScopedSpan span("bench.tensor.mask_build");
    Tensor scale = tensor::Exp(layer_weights);
    for (int l = 0; l < layers; ++l) {
      Tensor summed = tensor::ScatterAddRows(omega, flows.EdgesAtLayer(l), edges.num_layer_edges());
      masks.push_back(
          tensor::Sigmoid(tensor::ScaleByScalarTensor(summed, tensor::Select(scale, l, 0))));
    }
  }
  // ScatterAdd reads omega + indices, zero-fills and writes E; scale and
  // sigmoid each read and write E. FLOPs: F adds, E multiplies, ~4 per sigmoid.
  totals->mask_build.bytes += layers * (8 * f + 8 * e + 8 * e + 8 * e);
  totals->mask_build.flops += layers * (f + 5 * e);

  Tensor logits;
  {
    obs::ScopedSpan span("bench.gnn.forward");
    logits = model.Run(graph, edges, task.features, masks).logits;
  }
  Tensor loss = tensor::Neg(tensor::Select(tensor::RowLogSoftmax(logits), task.logit_row(),
                                           task.target_class));
  {
    obs::ScopedSpan span("bench.gnn.backward");
    loss.Backward();
  }
  {
    nn::Adam adam({mask_params, layer_weights}, 0.01f);
    for (int step = 0; step < 10; ++step) {
      obs::ScopedSpan span("bench.nn.adam_step");
      adam.Step();
    }
  }
  loss.ReleaseTape();

  // Aggregation at hidden width: SpmmCsrWeighted over the layer edges.
  {
    Tensor x = Tensor::Uniform(graph.num_nodes(), kHiddenDim, -1.0f, 1.0f, rng);
    Tensor w = Tensor::Uniform(edges.num_layer_edges(), 1, 0.0f, 1.0f, rng);
    obs::ScopedSpan span("bench.tensor.aggregate");
    tensor::SpmmCsrWeighted(edges.csr, w, x);
  }
  totals->aggregate.flops += 2 * e * kHiddenDim;
  totals->aggregate.bytes += e * (4 + 4 + 4 + 4 * kHiddenDim) + 4 * (n + 1) + 4 * n * kHiddenDim;

  // Combination at hidden width: MatMul (N x H) * (H x H).
  {
    Tensor a = Tensor::Uniform(graph.num_nodes(), kHiddenDim, -1.0f, 1.0f, rng);
    Tensor b = Tensor::Uniform(kHiddenDim, kHiddenDim, -1.0f, 1.0f, rng);
    obs::ScopedSpan span("bench.tensor.combine");
    tensor::MatMul(a, b);
  }
  totals->combine.flops += 2 * n * kHiddenDim * kHiddenDim;
  totals->combine.bytes += 4 * (2 * n * kHiddenDim + kHiddenDim * kHiddenDim);

  // GAT attention on this graph's shapes, 8 heads: gather both endpoint
  // scores, add, LeakyReLU, softmax per destination.
  {
    std::vector<Tensor> src_scores, dst_scores;
    for (int k = 0; k < kGatHeads; ++k) {
      src_scores.push_back(Tensor::Uniform(graph.num_nodes(), 1, -1.0f, 1.0f, rng));
      dst_scores.push_back(Tensor::Uniform(graph.num_nodes(), 1, -1.0f, 1.0f, rng));
    }
    obs::ScopedSpan span("bench.tensor.attention");
    for (int k = 0; k < kGatHeads; ++k) {
      Tensor logit = tensor::Add(tensor::GatherRows(src_scores[k], edges.src),
                                 tensor::GatherRows(dst_scores[k], edges.dst));
      tensor::SegmentSoftmax(tensor::LeakyRelu(logit, 0.2f), edges.dst, edges.num_nodes);
    }
  }
  // Per head: two gathers (12E each), add (12E), LeakyReLU (8E), segment
  // softmax (values + ids + out = 12E, per-segment max/sum 8N).
  totals->attention.bytes += kGatHeads * (24 * e + 12 * e + 8 * e + 12 * e + 8 * n);
  totals->attention.flops += kGatHeads * 7 * e;

  // Whole-method probes: Explain at 1 epoch and at the workload's 100.
  {
    obs::ScopedSpan span("bench.core.explain_epochs1");
    const Explanation got = one_epoch->Explain(task, Objective::kFactual);
    ++checks->attempted;
    if (!got.status.ok()) checks->Fail("Explain(epochs=1): " + got.status.ToString());
  }
  {
    Explanation got;
    {
      obs::ScopedSpan span("bench.explain.single");
      got = setup.explainer->Explain(task, Objective::kFactual);
    }
    CheckExplanation(got, setup.reference[0][i], graph, "Explain", checks);
  }
}

void SetGauge(const std::string& name, double value) {
  obs::MetricsRegistry::Global().GetGauge(name)->Set(value);
}

// Collects the benchmark's spans and the program's coarse spans out of the
// trace recorder between phases, then clears it: the per-kernel spans
// (tensor.*, ParallelFor.worker) of a GAT workload would otherwise fill the
// recorder's per-thread cap and drop later spans. Call Harvest only while no
// work is running.
class TraceLog {
 public:
  void Harvest() {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    for (obs::TraceEvent& event : recorder.Consolidated()) {
      if (event.name.rfind("tensor.", 0) == 0 || event.name == "ParallelFor.worker") continue;
      events_.push_back(std::move(event));
    }
    dropped_ += recorder.dropped_events();
    recorder.Clear();
  }
  bool Write(const std::string& path);

 private:
  std::vector<obs::TraceEvent> events_;
  uint64_t dropped_ = 0;
};

bool TraceLog::Write(const std::string& path) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (const obs::TraceEvent& event : events_) {
    w.BeginObject();
    w.Key("name");
    w.String(event.name);
    w.Key("ph");
    w.String("X");
    w.Key("ts");
    w.Double(event.start_us);
    w.Key("dur");
    w.Double(event.dur_us);
    w.Key("pid");
    w.Int(1);
    w.Key("tid");
    w.Int(event.tid);
    w.EndObject();
  }
  w.EndArray();
  w.Key("dropped_events");
  w.Uint(dropped_);
  w.EndObject();
  std::ofstream out(path);
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

void SetServeGauges(const ServeRun& run, const serve::ServerStats& stats) {
  std::vector<double> queue_ms, run_ms;
  double batch_total = 0.0;
  int ok = 0;
  for (const ServeSample& s : run.samples) {
    if (!s.ok) continue;
    queue_ms.push_back(s.queue_ms);
    run_ms.push_back(s.run_ms);
    batch_total += s.batch_size;
    ++ok;
  }
  SetGauge("bench.serve.requests", static_cast<double>(run.samples.size()));
  SetGauge("bench.serve.queue_wait_p50_ms", Percentile(queue_ms, 0.50));
  SetGauge("bench.serve.queue_wait_p95_ms", Percentile(queue_ms, 0.95));
  SetGauge("bench.serve.run_ms_p50", Percentile(run_ms, 0.50));
  SetGauge("bench.serve.batch_size_mean", ok > 0 ? batch_total / ok : 0.0);
  SetGauge("bench.serve.shed", static_cast<double>(stats.rejected_full));
  SetGauge("bench.serve.timed_out", static_cast<double>(stats.timed_out));
  SetGauge("bench.serve.gen_lag_ms_max", run.gen_lag_ms_max);
}

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  // GAT pretraining records ~1M kernel spans on the main thread before the
  // first harvest; leave room for them so set-up spans are not dropped.
  obs::TraceRecorder::Global().SetMaxEventsPerThread(size_t{1} << 22);
  obs::SetEnabled(true);
  std::unique_ptr<Setup> setup = SetUp(spec, args.seed, /*traced=*/true);
  if (spec.serve) AddCounterfactualReference(setup.get());
  ValidateSetup(*setup, spec);
  Checks checks;
  util::Rng rng(args.seed + 202);
  TraceLog trace;
  trace.Harvest();

  // Per-instance layer probes.
  ProbeTotals totals;
  std::unique_ptr<explain::Explainer> one_epoch = MakeRevelio(args.seed, 1);
  for (int i = 0; i < kInstances; ++i) {
    ProbeInstance(*setup, i, one_epoch.get(), &rng, &totals, &checks);
    trace.Harvest();
  }
  // One ExplainBatch over every task (a single mega-batch).
  {
    std::vector<const ExplanationTask*> group;
    for (const ExplanationTask& task : setup->tasks) group.push_back(&task);
    std::vector<Explanation> batch;
    {
      obs::ScopedSpan span("bench.explain.batch");
      batch = setup->explainer->ExplainBatch(group, Objective::kFactual);
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      CheckExplanation(batch[i], setup->reference[0][i], *setup->tasks[i].graph, "ExplainBatch",
                       &checks);
    }
  }
  trace.Harvest();

  // Serving layer: node workloads send every task as one burst; mutag_serve
  // replays its open-loop schedule for part of the budget.
  ServeRun serve_run;
  serve::ServerStats serve_stats;
  {
    serve::ExplanationServer server(&setup->registry, MakeServeOptions());
    server.RegisterExplainer("Revelio", MakeRevelio(args.seed, kExplainerEpochs));
    server.Start();
    util::Rng traffic_rng(kInputSeed + 303);
    const RequestPlan plan =
        spec.serve
            ? MakePlan(std::max(1, static_cast<int>(kServeRatePerSecond * 0.3 * args.seconds)),
                       kServeRatePerSecond, true, &traffic_rng)
            : MakePlan(kInstances, 0.0, false, &traffic_rng);
    obs::ScopedSpan span("bench.serve.phase");
    serve_run = RunOpenLoop(&server, *setup, plan, &checks);
    server.Shutdown(serve::ExplanationServer::DrainMode::kDrain);
    serve_stats = server.stats();
    CheckConservation(serve_stats, &checks);
  }
  trace.Harvest();

  // Trace overhead: the same ExplainAll passes untraced, then traced. The
  // program's counters are reset first so they cover only the traced passes.
  obs::SetEnabled(false);
  std::vector<double> untraced_seconds;
  const double untraced_start = NowSeconds();
  while (untraced_seconds.size() < 2 || NowSeconds() - untraced_start < 0.15 * args.seconds) {
    untraced_seconds.push_back(RunExplainAllPass(*setup, "bench.explain_all.untraced", &checks));
  }
  const int passes = static_cast<int>(untraced_seconds.size());
  obs::MetricsRegistry::Global().ResetAll();
  obs::SetEnabled(true);
  for (int p = 0; p < passes; ++p) {
    RunExplainAllPass(*setup, "bench.explain_all.pass", &checks);
    trace.Harvest();
  }

  std::vector<double> flows = totals.flows;
  std::sort(flows.begin(), flows.end());
  SetGauge("bench.threads", util::NumThreads());
  SetGauge("bench.instances", kInstances);
  SetGauge("bench.traced_explanations", static_cast<double>(passes) * kInstances);
  SetGauge("bench.untraced_expl_per_s", kInstances / Median(untraced_seconds));
  SetGauge("bench.flow.flows_total", std::accumulate(flows.begin(), flows.end(), 0.0));
  SetGauge("bench.flow.flows_per_instance_p50", Percentile(flows, 0.5));
  SetGauge("bench.flow.flows_per_instance_max", flows.back());
  const std::pair<const char*, const Roofline*> rooflines[] = {
      {"mask_build", &totals.mask_build},
      {"aggregate", &totals.aggregate},
      {"combine", &totals.combine},
      {"attention", &totals.attention}};
  for (const auto& [name, roofline] : rooflines) {
    SetGauge(std::string("bench.tensor.") + name + ".computed_flops", roofline->flops);
    SetGauge(std::string("bench.tensor.") + name + ".computed_bytes", roofline->bytes);
  }
  SetServeGauges(serve_run, serve_stats);

  if (!obs::WriteMetricsJsonFile(args.out_dir + "/counters.json") ||
      !trace.Write(args.out_dir + "/trace.json")) {
    std::fprintf(stderr, "perfbench: cannot write trace files under %s\n", args.out_dir.c_str());
    return 2;
  }
  obs::SetEnabled(false);
  WriteResult(args.out_dir + "/result.json", checks, {}, {});
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --mode e2e|trace --out DIR "
               "[--setup-reps K]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string mode = "e2e";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--mode") {
      mode = value;
    } else if (key == "--out") {
      args.out_dir = value;
    } else if (key == "--setup-reps") {
      args.setup_reps = std::max(1, std::stoi(value));
    } else {
      Usage();
      return 2;
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr || args.out_dir.empty() || (mode != "e2e" && mode != "trace") ||
      !(args.seconds > 0)) {
    Usage();
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  return mode == "trace" ? RunTraced(*spec, args) : RunEndToEnd(*spec, args);
}
