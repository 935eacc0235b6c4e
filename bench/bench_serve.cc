// Serving-engine bench: replays a seeded Poisson/bursty arrival trace
// against the explanation server (src/serve) and writes BENCH_serve.json.
//
// Phase A — admission replay (virtual time). A ManualClock plus synchronous
// RunOnce() turn the server into a discrete-event simulation: arrivals land
// at seeded Poisson times (with periodic bursts that overflow the bounded
// queue), each serviced request costs a fixed virtual 5ms, and every request
// carries a 12ms deadline. An independent arithmetic oracle replays the same
// trace — the server's accepted/rejected/timed-out counts must match it
// EXACTLY, and every served explanation must be bitwise-equal to batch
// eval::ExplainAll over the same tasks. The explainers really run; only time
// is virtual.
//
// Phase B — throughput (real clock). A fresh server with worker threads and
// coalescing enabled serves the same request population; p50/p95/p99 latency
// come from the serve.latency_seconds obs histogram, and serve_speedup
// compares against batch eval::ExplainAll timed on the same tasks.
//
// Flags: --quick (reduced trace, the tier-1 fixture mode), --requests N,
// --epochs N, --workers N, --queue-depth N, --seed S, --threads N,
// --serve-out FILE, plus the shared telemetry flags (bench_common.h).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "eval/runner.h"
#include "explain/explainer.h"
#include "gnn/model.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "serve/clock.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "tensor/tensor.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace revelio;  // NOLINT

constexpr int kFeatureDim = 4;
constexpr int kNumNodes = 10;
constexpr int64_t kServiceNanos = 5'000'000;   // virtual cost per request (5ms)
constexpr int64_t kDeadlineNanos = 12'000'000; // per-request deadline (12ms)
constexpr double kCalmGapMs = 6.0;             // mean inter-arrival, calm periods
constexpr double kBurstGapMs = 0.5;            // mean inter-arrival inside bursts
constexpr double kP99BoundSeconds = 30.0;      // quick-trace SLO envelope

// One fixed 10-node ring-with-chords shared by every request.
graph::Graph MakeServeGraph() {
  graph::Graph graph(kNumNodes);
  for (int v = 0; v < kNumNodes; ++v) graph.AddUndirectedEdge(v, (v + 1) % kNumNodes);
  graph.AddEdge(0, 5);
  graph.AddEdge(3, 8);
  graph.AddEdge(7, 2);
  graph.AddEdge(9, 4);
  return graph;
}

std::unique_ptr<gnn::GnnModel> MakeModel(uint64_t seed) {
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.task = gnn::TaskType::kNodeClassification;
  config.input_dim = kFeatureDim;
  config.hidden_dim = 8;
  config.num_classes = 2;
  config.num_layers = 2;
  config.seed = seed;
  return std::make_unique<gnn::GnnModel>(config);
}

struct TraceRequest {
  std::string model;
  tensor::Tensor features;
  int target_node = 0;
  int64_t arrival_nanos = 0;
};

// Seeded bursty Poisson process: blocks of calm exponential gaps with every
// fourth block arriving at burst rate, which is what overflows the bounded
// queue and exercises rejection + deadline expiry.
std::vector<TraceRequest> MakeTrace(int n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<TraceRequest> trace;
  trace.reserve(n);
  int64_t now = 0;
  for (int i = 0; i < n; ++i) {
    const bool burst = (i / 4) % 4 == 3;
    const double mean_ms = burst ? kBurstGapMs : kCalmGapMs;
    const double gap_ms = -mean_ms * std::log(1.0 - rng.Uniform());
    now += static_cast<int64_t>(gap_ms * 1e6) + 1;
    TraceRequest request;
    // Blocks of eight per model keep same-key runs for Phase B coalescing.
    request.model = (i / 8) % 2 == 0 ? "m1" : "m2";
    request.features = tensor::Tensor::Uniform(kNumNodes, kFeatureDim, -1.0f, 1.0f, &rng);
    request.target_node = rng.UniformInt(kNumNodes);
    request.arrival_nanos = now;
    trace.push_back(std::move(request));
  }
  return trace;
}

serve::ExplainRequest MakeServeRequest(const TraceRequest& request, const graph::Graph& graph) {
  serve::ExplainRequest out;
  out.model = request.model;
  out.method = "Revelio";
  out.graph = graph;
  out.features = request.features;
  out.target_node = request.target_node;
  return out;
}

eval::RunnerConfig ExplainerConfig(uint64_t seed, int epochs) {
  eval::RunnerConfig config;
  config.seed = seed;
  config.explainer_epochs = epochs;
  return config;
}

// What the trace must produce, computed with plain arithmetic — no server,
// no queue, no clock. FIFO service order, capacity-bounded admission,
// deadline checked (strictly) at dequeue, 5ms per serviced request.
struct AdmissionOracle {
  uint64_t accepted = 0;
  uint64_t rejected_full = 0;
  uint64_t timed_out = 0;
  uint64_t served = 0;
  std::vector<bool> ran;  // per trace index: explainer executed
};

AdmissionOracle ComputeOracle(const std::vector<TraceRequest>& trace, size_t capacity) {
  struct QueuedItem {
    int64_t deadline = 0;
    size_t index = 0;
  };
  AdmissionOracle oracle;
  oracle.ran.assign(trace.size(), false);
  std::deque<QueuedItem> queue;
  int64_t server_free = 0;
  auto service_until = [&](int64_t horizon) {
    while (!queue.empty() && server_free <= horizon) {
      const QueuedItem item = queue.front();
      queue.pop_front();
      if (server_free > item.deadline) {
        ++oracle.timed_out;  // answered instantly; no service time
      } else {
        oracle.ran[item.index] = true;
        ++oracle.served;
        server_free += kServiceNanos;
      }
    }
  };
  for (size_t i = 0; i < trace.size(); ++i) {
    const int64_t arrival = trace[i].arrival_nanos;
    service_until(arrival);
    if (server_free < arrival) server_free = arrival;
    if (queue.size() >= capacity) {
      ++oracle.rejected_full;
      continue;
    }
    ++oracle.accepted;
    queue.push_back({arrival + kDeadlineNanos, i});
  }
  service_until(std::numeric_limits<int64_t>::max());
  return oracle;
}

bool BitwiseEqual(const explain::Explanation& a, const explain::Explanation& b) {
  return a.edge_scores == b.edge_scores && a.has_flow_scores == b.has_flow_scores &&
         a.flow_scores == b.flow_scores;
}

const obs::MetricsSnapshot::HistogramEntry* FindHistogram(
    const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& entry : snapshot.histograms) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

int Run(int argc, char** argv) {
  util::Flags flags(argc, argv);
  bench::InitTelemetry(flags, nullptr, nullptr);
  util::SetNumThreads(flags.GetInt("threads", 1));
  const bool quick = flags.GetBool("quick", false);
  const int num_requests = flags.GetInt("requests", quick ? 48 : 160);
  const int epochs = flags.GetInt("epochs", quick ? 12 : 40);
  const int workers = flags.GetInt("workers", 1);
  const size_t queue_depth =
      static_cast<size_t>(flags.GetInt("queue-depth", 5));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string serve_out = flags.GetString("serve-out", "BENCH_serve.json");

  const graph::Graph graph = MakeServeGraph();
  serve::ModelRegistry registry;
  CHECK(registry.Register("m1", MakeModel(seed + 1)).ok());
  CHECK(registry.Register("m2", MakeModel(seed + 2)).ok());
  const std::vector<TraceRequest> trace = MakeTrace(num_requests, seed + 3);

  // --- Reference + baseline timing: batch eval::ExplainAll over the same
  // tasks, the pre-serving code path.
  std::vector<explain::ExplanationTask> tasks;
  tasks.reserve(trace.size());
  for (const TraceRequest& request : trace) {
    explain::ExplanationTask task;
    task.model = registry.Lookup(request.model);
    task.graph = &graph;
    task.features = request.features;
    task.target_node = request.target_node;
    tasks.push_back(task);
  }
  std::unique_ptr<explain::Explainer> reference_explainer =
      eval::MakeExplainer("Revelio", ExplainerConfig(seed, epochs));
  util::Timer baseline_timer;
  const std::vector<explain::Explanation> reference =
      eval::ExplainAll(reference_explainer.get(), tasks, explain::Objective::kFactual);
  const double baseline_seconds = baseline_timer.ElapsedSeconds();

  // --- Phase A: virtual-time admission replay against the oracle.
  const AdmissionOracle oracle = ComputeOracle(trace, queue_depth);
  serve::ManualClock manual_clock;
  serve::ServeOptions replay_options;
  replay_options.queue_capacity = queue_depth;
  replay_options.coalesce = false;  // one dequeue per virtual service slot
  replay_options.clock = &manual_clock;
  serve::ExplanationServer replay_server(&registry, replay_options);
  replay_server.RegisterExplainer("Revelio",
                                  eval::MakeExplainer("Revelio", ExplainerConfig(seed, epochs)));

  std::vector<std::future<serve::ExplainResponse>> replay_futures(trace.size());
  std::vector<bool> replay_admitted(trace.size(), false);
  int64_t server_free = 0;
  auto replay_service_until = [&](int64_t horizon) {
    while (replay_server.queue_depth() > 0 && server_free <= horizon) {
      manual_clock.SetNanos(server_free);
      const serve::ExplanationServer::RunOnceResult result = replay_server.RunOnce();
      if (result.completed == 0) break;
      server_free += static_cast<int64_t>(result.ran) * kServiceNanos;
    }
  };
  for (size_t i = 0; i < trace.size(); ++i) {
    const int64_t arrival = trace[i].arrival_nanos;
    replay_service_until(arrival);
    if (server_free < arrival) server_free = arrival;
    manual_clock.SetNanos(arrival);
    serve::ExplainRequest request = MakeServeRequest(trace[i], graph);
    request.deadline_nanos = arrival + kDeadlineNanos;
    auto submitted = replay_server.TrySubmit(std::move(request));
    if (submitted.ok()) {
      replay_admitted[i] = true;
      replay_futures[i] = std::move(submitted).value();
    }
  }
  replay_service_until(std::numeric_limits<int64_t>::max());
  replay_server.Shutdown(serve::ExplanationServer::DrainMode::kDrain);
  const serve::ServerStats replay_stats = replay_server.stats();

  // Counts must match the oracle exactly, and every served explanation must
  // be bitwise-identical to the batch reference for the same trace index.
  bool counts_match = replay_stats.accepted == oracle.accepted &&
                      replay_stats.rejected_full == oracle.rejected_full &&
                      replay_stats.timed_out == oracle.timed_out &&
                      replay_stats.completed == oracle.served;
  bool bitwise_equal = true;
  uint64_t served_checked = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (!replay_admitted[i]) continue;
    serve::ExplainResponse response = replay_futures[i].get();
    if (response.status.ok() != oracle.ran[i]) {
      counts_match = false;
      continue;
    }
    if (!response.status.ok()) continue;
    ++served_checked;
    if (!BitwiseEqual(reference[i], response.explanation)) bitwise_equal = false;
  }

  LOG_INFO << "phase A replay: accepted " << replay_stats.accepted << "/" << num_requests
           << " (oracle " << oracle.accepted << "), rejected " << replay_stats.rejected_full
           << " (oracle " << oracle.rejected_full << "), timed out " << replay_stats.timed_out
           << " (oracle " << oracle.timed_out << ")";

  // --- Phase B: real-clock throughput with workers + coalescing.
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().GetHistogram("serve.latency_seconds")->Reset();
  obs::MetricsRegistry::Global().GetHistogram("serve.queue_seconds")->Reset();
  obs::MetricsRegistry::Global().GetHistogram("serve.run_seconds")->Reset();

  serve::ServeOptions throughput_options;
  throughput_options.queue_capacity = trace.size();
  throughput_options.num_workers = workers;
  throughput_options.coalesce = true;
  serve::ExplanationServer throughput_server(&registry, throughput_options);
  throughput_server.RegisterExplainer(
      "Revelio", eval::MakeExplainer("Revelio", ExplainerConfig(seed, epochs)));
  throughput_server.Start();

  util::Timer serve_timer;
  std::vector<std::future<serve::ExplainResponse>> throughput_futures;
  throughput_futures.reserve(trace.size());
  for (const TraceRequest& request : trace) {
    auto submitted = throughput_server.Submit(MakeServeRequest(request, graph));
    CHECK(submitted.ok()) << submitted.status().ToString();
    throughput_futures.push_back(std::move(submitted).value());
  }
  throughput_server.Shutdown(serve::ExplanationServer::DrainMode::kDrain);
  const double serve_seconds = serve_timer.ElapsedSeconds();
  for (size_t i = 0; i < throughput_futures.size(); ++i) {
    serve::ExplainResponse response = throughput_futures[i].get();
    CHECK(response.status.ok()) << response.status.ToString();
    if (!BitwiseEqual(reference[i], response.explanation)) bitwise_equal = false;
  }
  const serve::ServerStats throughput_stats = throughput_server.stats();
  const double serve_speedup = serve_seconds > 0.0 ? baseline_seconds / serve_seconds : 0.0;

  obs::HistogramSummary latency;
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  if (const auto* entry = FindHistogram(snapshot, "serve.latency_seconds")) {
    latency = obs::SummarizeHistogram(*entry);
  }

  LOG_INFO << "phase B throughput: " << num_requests << " requests in " << serve_seconds
           << "s (ExplainAll " << baseline_seconds << "s, speedup " << serve_speedup
           << "x), p50/p95/p99 " << latency.p50 << "/" << latency.p95 << "/" << latency.p99
           << "s, coalesced groups " << throughput_stats.coalesced_groups;

  const bool wrote = bench::WriteBenchJson(serve_out, "serve_trace", [&](obs::JsonWriter* w) {
    w->BeginObject();
    w->Key("requests");
    w->Int(num_requests);
    w->Key("seed");
    w->Uint(seed);
    w->Key("queue_capacity");
    w->Uint(queue_depth);
    w->Key("service_ms");
    w->Double(static_cast<double>(kServiceNanos) * 1e-6);
    w->Key("deadline_ms");
    w->Double(static_cast<double>(kDeadlineNanos) * 1e-6);
    w->Key("workers");
    w->Int(workers);
    w->Key("points");
    w->BeginArray();
    w->BeginObject();
    w->Key("expected_accepted");
    w->Uint(oracle.accepted);
    w->Key("observed_accepted");
    w->Uint(replay_stats.accepted);
    w->Key("expected_rejected");
    w->Uint(oracle.rejected_full);
    w->Key("observed_rejected");
    w->Uint(replay_stats.rejected_full);
    w->Key("expected_timed_out");
    w->Uint(oracle.timed_out);
    w->Key("observed_timed_out");
    w->Uint(replay_stats.timed_out);
    w->Key("expected_served");
    w->Uint(oracle.served);
    w->Key("observed_served");
    w->Uint(replay_stats.completed);
    w->Key("counts_match");
    w->Bool(counts_match);
    w->Key("served_checked");
    w->Uint(served_checked);
    w->Key("bitwise_equal");
    w->Bool(bitwise_equal);
    w->Key("baseline_seconds");
    w->Double(baseline_seconds);
    w->Key("serve_seconds");
    w->Double(serve_seconds);
    w->Key("serve_speedup");
    w->Double(serve_speedup);
    w->Key("p50_seconds");
    w->Double(latency.p50);
    w->Key("p95_seconds");
    w->Double(latency.p95);
    w->Key("p99_seconds");
    w->Double(latency.p99);
    w->Key("p99_bound_seconds");
    w->Double(kP99BoundSeconds);
    w->Key("coalesced_groups");
    w->Uint(throughput_stats.coalesced_groups);
    w->Key("coalesced_instances");
    w->Uint(throughput_stats.coalesced_instances);
    w->EndObject();
    w->EndArray();
    w->EndObject();
  });
  if (!wrote) return 1;
  if (!counts_match || !bitwise_equal) {
    std::fprintf(stderr, "bench_serve: trace validation failed (counts_match=%d "
                 "bitwise_equal=%d)\n", counts_match ? 1 : 0, bitwise_equal ? 1 : 0);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
