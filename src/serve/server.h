#ifndef REVELIO_SERVE_SERVER_H_
#define REVELIO_SERVE_SERVER_H_

// Explanation-serving engine: a long-lived, multi-tenant request loop over
// the batch machinery that eval::ExplainAll established.
//
// Composition (DESIGN.md §11):
//
//   Submit/TrySubmit ──> AdmissionQueue (bounded FIFO + lifecycle FSM)
//        │ validate            │
//        │ (registry lookup,   ▼
//        │  task validation) worker loop ──> deadline check at dequeue
//        │                     │             (expired: DeadlineExceeded,
//        ▼                     ▼              the explainer never runs)
//     explicit            coalesce run of consecutive same-
//     rejection           (method, model, objective) requests
//                              │
//                              ▼
//                  Explainer::ExplainBatch (instance-parallel; a lone
//                  request keeps kernel-level parallelism),
//                  per-request MemoryScope + warm TensorPool reuse
//
// Responses travel back through per-request std::futures. Every request is
// answered exactly once, with either a result or an explicit util::Status
// (ResourceExhausted, DeadlineExceeded, Cancelled, Unavailable, NotFound,
// InvalidArgument) — the server never silently drops work.
//
// Determinism: explanation results depend only on the task and the method
// options, never on queueing, coalescing, worker count, or arrival order
// (tests/prop/serve_equivalence_test.cc pins bitwise equality against batch
// eval::ExplainAll). Time is injected via serve::Clock so the fault paths
// are testable without wall-clock sleeps.
//
// SLO instrumentation (obs registry, when enabled): counters
// serve.{submitted,accepted,rejected,timed_out,cancelled,completed,
// coalesced_groups,coalesced_instances}, gauge serve.queue_depth, histograms
// serve.{queue,run,latency}_seconds (p50/p95/p99 via SummarizeHistogram).
// The same totals are always available lock-free through stats(), so tests
// and admission oracles do not depend on the obs switch. Each explanation
// additionally emits the standard per-explanation AuditRecord (PR 7).

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "explain/explainer.h"
#include "serve/clock.h"
#include "serve/model_registry.h"
#include "serve/queue.h"
#include "util/status.h"

namespace revelio::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace revelio::obs

namespace revelio::serve {

// Env knobs (read once by ServeOptionsFromEnv):
//   REVELIO_SERVE_QUEUE_DEPTH    admission-queue capacity (default 64)
//   REVELIO_SERVE_WORKERS        worker threads started by Start() (default 1)
//   REVELIO_SERVE_COALESCE       "0" disables batching of same-key requests
//   REVELIO_SERVE_COALESCE_SIZE  max requests fused per ExplainBatch (default 8)
//   REVELIO_SERVE_DEADLINE_MS    default per-request deadline (0 = none)
struct ServeOptions {
  size_t queue_capacity = 64;
  int num_workers = 1;
  bool coalesce = true;
  int coalesce_limit = 8;
  int64_t default_deadline_nanos = 0;  // applied when a request carries none
  // Requests that actually run after this many have already run count toward
  // the warm-pool steady-state totals (stats().warm_pool_*). The bench warms
  // each resident instance first, then asserts zero warm misses.
  uint64_t warmup_requests = 0;
  // Explainer construction (eval::MakeExplainer) for methods not registered
  // explicitly via RegisterExplainer.
  int explainer_epochs = 100;
  int64_t max_flows = 60'000;
  uint64_t seed = 1;
  const Clock* clock = nullptr;  // nullptr = MonotonicClock::Global()
};

ServeOptions ServeOptionsFromEnv();

struct ExplainRequest {
  std::string model;              // ModelRegistry name
  std::string method = "Revelio";
  explain::Objective objective = explain::Objective::kFactual;
  graph::Graph graph;             // owned; node tasks pass the k-hop subgraph
  tensor::Tensor features;        // num_nodes x input_dim
  int target_node = -1;           // -1 for graph tasks
  int target_class = 0;
  int64_t deadline_nanos = 0;     // absolute (server clock); 0 = options default
};

struct ExplainResponse {
  util::Status status;             // Ok, or why the request was not served
  explain::Explanation explanation;
  uint64_t request_id = 0;
  double queue_seconds = 0.0;      // admission -> dequeue (server clock)
  double run_seconds = 0.0;        // explainer execution (server clock)
  int batch_size = 1;              // size of the coalesced group it ran in
  uint64_t pool_hits = 0;          // tensor-pool delta of the serving thread
  uint64_t pool_misses = 0;        // (a group's other instances may run on
                                   // ParallelFor workers, outside this delta)
};

// Monotone lifetime totals. Lock-free snapshot; exact once activity quiesces.
struct ServerStats {
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t rejected_full = 0;      // bounded-queue admission rejections
  uint64_t rejected_invalid = 0;   // unknown model/method, task validation, or a
                                   // non-Ok explanation (e.g. over max_flows)
  uint64_t rejected_shutdown = 0;  // submitted after shutdown began
  uint64_t timed_out = 0;          // deadline expired before service
  uint64_t cancelled = 0;          // dropped by Shutdown(kCancel)
  uint64_t completed = 0;          // futures fulfilled with Ok
  uint64_t coalesced_groups = 0;   // ExplainBatch calls with >= 2 requests
  uint64_t coalesced_instances = 0;
  uint64_t warm_pool_hits = 0;     // pool hits after the warmup window
  uint64_t warm_pool_misses = 0;   // pool misses after the warmup window
  size_t queue_depth = 0;
};

class ExplanationServer {
 public:
  // The registry must outlive the server. Models registered or removed while
  // serving take effect for subsequently admitted requests.
  ExplanationServer(const ModelRegistry* registry, ServeOptions options);
  ~ExplanationServer();  // Shutdown(kCancel) if still running
  ExplanationServer(const ExplanationServer&) = delete;
  ExplanationServer& operator=(const ExplanationServer&) = delete;

  // Installs a method explicitly (tests inject fakes; deployments can pin
  // options). Methods not registered here are built lazily on first use via
  // eval::MakeExplainer with this server's ServeOptions. Must be called
  // before requests for `method` are submitted.
  void RegisterExplainer(const std::string& method,
                         std::unique_ptr<explain::Explainer> explainer);

  // Spawns options.num_workers worker threads. Without Start() the server
  // runs synchronously: callers drain the queue via RunOnce() — the mode the
  // deterministic tests and the virtual-time trace replay use.
  void Start();

  // Validates and enqueues without blocking. The error Status tells the
  // caller exactly why admission failed (queue full, unknown model/method,
  // invalid task, shutdown). On success the future is fulfilled exactly once.
  util::StatusOr<std::future<ExplainResponse>> TrySubmit(ExplainRequest request);

  // Same, but blocks while the queue is full (backpressure instead of load
  // shedding). Fails with Unavailable if shutdown begins while waiting.
  util::StatusOr<std::future<ExplainResponse>> Submit(ExplainRequest request);

  struct RunOnceResult {
    int completed = 0;  // futures fulfilled by this call
    int ran = 0;        // requests whose explainer actually executed
    int timed_out = 0;  // requests answered DeadlineExceeded at dequeue
  };
  // Services the oldest queue entry on the calling thread: answers it
  // DeadlineExceeded if it expired in the queue, otherwise runs it —
  // extended, when coalescing is on, with the consecutive run of same-
  // (method, model, objective) requests behind it (one ExplainBatch call,
  // which explains the group's requests side by side). Returns zeros when
  // the queue is empty.
  RunOnceResult RunOnce();

  enum class DrainMode {
    kDrain,   // serve the backlog, then stop
    kCancel,  // answer the backlog Cancelled; in-flight work still completes
  };
  // Closes admission, resolves the backlog per `mode`, joins workers (with
  // no workers, kDrain services the backlog on the calling thread), and
  // stops the queue. Idempotent; concurrent calls serialize and the first
  // one's mode wins.
  void Shutdown(DrainMode mode);

  ServerStats stats() const;
  size_t queue_depth() const { return queue_.depth(); }
  QueueState state() const { return queue_.state(); }
  const ServeOptions& options() const { return options_; }

 private:
  struct PendingRequest;

  util::StatusOr<std::future<ExplainResponse>> SubmitInternal(ExplainRequest request,
                                                              bool blocking);
  // Resolves (or lazily builds) the explainer serving `method`; nullptr with
  // a reason when the method is unknown.
  explain::Explainer* ResolveExplainer(const std::string& method, std::string* error);
  uint64_t CoalesceKey(const explain::Explainer* explainer, const gnn::GnnModel* model,
                       explain::Objective objective);
  void FinishTimedOut(std::unique_ptr<PendingRequest> pending, int64_t now_nanos);
  void FinishCancelled(std::unique_ptr<PendingRequest> pending);
  void RunGroup(std::vector<std::unique_ptr<PendingRequest>> group, int64_t dequeue_nanos);
  void WorkerLoop();
  void UpdateDepthGauge();

  const ModelRegistry* registry_;
  ServeOptions options_;
  const Clock* clock_;
  AdmissionQueue queue_;

  std::mutex explainers_mu_;
  std::map<std::string, std::unique_ptr<explain::Explainer>> explainers_;
  // Per-explainer serialization for methods whose Explain is not thread-safe
  // (RandomExplainer's RNG): workers take this mutex before running them.
  std::map<const explain::Explainer*, std::unique_ptr<std::mutex>> unsafe_mu_;

  std::mutex keys_mu_;
  std::map<std::tuple<const void*, const void*, int>, uint64_t> coalesce_keys_;
  uint64_t next_key_ = 1;

  std::mutex lifecycle_mu_;  // Start/Shutdown serialization
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool shutdown_done_ = false;

  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<uint64_t> runs_started_{0};  // warmup-window accounting

  struct Totals {
    std::atomic<uint64_t> submitted{0}, accepted{0}, rejected_full{0}, rejected_invalid{0},
        rejected_shutdown{0}, timed_out{0}, cancelled{0}, completed{0}, coalesced_groups{0},
        coalesced_instances{0}, warm_pool_hits{0}, warm_pool_misses{0};
  };
  Totals totals_;

  // obs registry handles (stable for process lifetime; updates are no-ops
  // while the obs switch is off).
  obs::Counter* c_submitted_;
  obs::Counter* c_accepted_;
  obs::Counter* c_rejected_;
  obs::Counter* c_timed_out_;
  obs::Counter* c_cancelled_;
  obs::Counter* c_completed_;
  obs::Counter* c_coalesced_groups_;
  obs::Counter* c_coalesced_instances_;
  obs::Gauge* g_queue_depth_;
  obs::Histogram* h_queue_seconds_;
  obs::Histogram* h_run_seconds_;
  obs::Histogram* h_latency_seconds_;
};

}  // namespace revelio::serve

#endif  // REVELIO_SERVE_SERVER_H_
