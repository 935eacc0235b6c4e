#include "serve/server.h"

#include <algorithm>
#include <cstdlib>
#include <tuple>
#include <utility>

#include "eval/runner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/pool.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/logging.h"

namespace revelio::serve {

namespace {

int EnvInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const int value = std::atoi(env);
  return value > 0 ? value : fallback;
}

bool KnownMethod(const std::string& method) {
  if (method == "Random") return true;
  const std::vector<std::string> names = eval::AllExplainerNames();
  return std::find(names.begin(), names.end(), method) != names.end();
}

tensor::PoolStats ThreadPoolStats() {
  tensor::TensorPool* pool = tensor::TensorPool::ThreadLocal();
  return pool != nullptr ? pool->stats() : tensor::PoolStats{};
}

}  // namespace

ServeOptions ServeOptionsFromEnv() {
  ServeOptions options;
  options.queue_capacity = static_cast<size_t>(EnvInt("REVELIO_SERVE_QUEUE_DEPTH", 64));
  options.num_workers = EnvInt("REVELIO_SERVE_WORKERS", 1);
  options.coalesce = util::EnvFlag("REVELIO_SERVE_COALESCE", true);
  options.coalesce_limit = EnvInt("REVELIO_SERVE_COALESCE_SIZE", 8);
  options.default_deadline_nanos =
      static_cast<int64_t>(EnvInt("REVELIO_SERVE_DEADLINE_MS", 0)) * 1'000'000;
  return options;
}

struct ExplanationServer::PendingRequest {
  uint64_t id = 0;
  ExplainRequest request;
  explain::ExplanationTask task;  // graph/features pointers into `request`
  explain::Explainer* explainer = nullptr;
  const gnn::GnnModel* model = nullptr;
  int64_t enqueue_nanos = 0;
  int64_t deadline_nanos = 0;  // absolute; 0 = none
  std::promise<ExplainResponse> promise;
};

ExplanationServer::ExplanationServer(const ModelRegistry* registry, ServeOptions options)
    : registry_(registry),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : MonotonicClock::Global()),
      queue_(options_.queue_capacity) {
  CHECK(registry_ != nullptr);
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.coalesce_limit < 1) options_.coalesce_limit = 1;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  c_submitted_ = metrics.GetCounter("serve.submitted");
  c_accepted_ = metrics.GetCounter("serve.accepted");
  c_rejected_ = metrics.GetCounter("serve.rejected");
  c_timed_out_ = metrics.GetCounter("serve.timed_out");
  c_cancelled_ = metrics.GetCounter("serve.cancelled");
  c_completed_ = metrics.GetCounter("serve.completed");
  c_coalesced_groups_ = metrics.GetCounter("serve.coalesced_groups");
  c_coalesced_instances_ = metrics.GetCounter("serve.coalesced_instances");
  g_queue_depth_ = metrics.GetGauge("serve.queue_depth");
  h_queue_seconds_ = metrics.GetHistogram("serve.queue_seconds");
  h_run_seconds_ = metrics.GetHistogram("serve.run_seconds");
  h_latency_seconds_ = metrics.GetHistogram("serve.latency_seconds");
}

ExplanationServer::~ExplanationServer() { Shutdown(DrainMode::kCancel); }

void ExplanationServer::RegisterExplainer(const std::string& method,
                                          std::unique_ptr<explain::Explainer> explainer) {
  CHECK(explainer != nullptr);
  std::lock_guard<std::mutex> lock(explainers_mu_);
  explain::Explainer* ptr = explainer.get();
  if (!ptr->thread_safe_explain()) {
    unsafe_mu_[ptr] = std::make_unique<std::mutex>();
  }
  explainers_[method] = std::move(explainer);
}

explain::Explainer* ExplanationServer::ResolveExplainer(const std::string& method,
                                                        std::string* error) {
  std::lock_guard<std::mutex> lock(explainers_mu_);
  auto it = explainers_.find(method);
  if (it != explainers_.end()) return it->second.get();
  if (!KnownMethod(method)) {
    *error = "unknown explanation method \"" + method + "\"";
    return nullptr;
  }
  eval::RunnerConfig config;
  config.seed = options_.seed;
  config.explainer_epochs = options_.explainer_epochs;
  config.max_flows = options_.max_flows;
  std::unique_ptr<explain::Explainer> created = eval::MakeExplainer(method, config);
  explain::Explainer* ptr = created.get();
  if (!ptr->thread_safe_explain()) {
    unsafe_mu_[ptr] = std::make_unique<std::mutex>();
  }
  explainers_[method] = std::move(created);
  return ptr;
}

uint64_t ExplanationServer::CoalesceKey(const explain::Explainer* explainer,
                                        const gnn::GnnModel* model,
                                        explain::Objective objective) {
  // Sequential ids per distinct (method, model, objective): equality of keys
  // must IMPLY batch-compatibility, so a hash (collisions possible) is out.
  const std::tuple<const void*, const void*, int> tuple_key(
      explainer, model, static_cast<int>(objective));
  std::lock_guard<std::mutex> lock(keys_mu_);
  auto [it, inserted] = coalesce_keys_.emplace(tuple_key, next_key_);
  if (inserted) ++next_key_;
  return it->second;
}

void ExplanationServer::UpdateDepthGauge() {
  g_queue_depth_->Set(static_cast<double>(queue_.depth()));
}

util::StatusOr<std::future<ExplainResponse>> ExplanationServer::TrySubmit(
    ExplainRequest request) {
  return SubmitInternal(std::move(request), /*blocking=*/false);
}

util::StatusOr<std::future<ExplainResponse>> ExplanationServer::Submit(ExplainRequest request) {
  return SubmitInternal(std::move(request), /*blocking=*/true);
}

util::StatusOr<std::future<ExplainResponse>> ExplanationServer::SubmitInternal(
    ExplainRequest request, bool blocking) {
  totals_.submitted.fetch_add(1, std::memory_order_relaxed);
  c_submitted_->Increment();

  const gnn::GnnModel* model = registry_->Lookup(request.model);
  if (model == nullptr) {
    totals_.rejected_invalid.fetch_add(1, std::memory_order_relaxed);
    c_rejected_->Increment();
    return util::Status::NotFound("model \"" + request.model + "\" is not registered");
  }
  std::string method_error;
  explain::Explainer* explainer = ResolveExplainer(request.method, &method_error);
  if (explainer == nullptr) {
    totals_.rejected_invalid.fetch_add(1, std::memory_order_relaxed);
    c_rejected_->Increment();
    return util::Status::InvalidArgument(method_error);
  }

  auto pending = std::make_unique<PendingRequest>();
  pending->id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  pending->request = std::move(request);
  pending->model = model;
  pending->explainer = explainer;
  pending->task.model = model;
  pending->task.graph = &pending->request.graph;
  pending->task.features = pending->request.features;
  pending->task.target_node = pending->request.target_node;
  pending->task.target_class = pending->request.target_class;
  // Serve-side rejection: a malformed task is refused here with the precise
  // reason instead of CHECK-aborting the worker loop later.
  util::Status valid = explain::ValidateExplanationTask(pending->task);
  if (!valid.ok()) {
    totals_.rejected_invalid.fetch_add(1, std::memory_order_relaxed);
    c_rejected_->Increment();
    return valid;
  }

  pending->enqueue_nanos = clock_->NowNanos();
  pending->deadline_nanos =
      pending->request.deadline_nanos != 0
          ? pending->request.deadline_nanos
          : (options_.default_deadline_nanos > 0
                 ? pending->enqueue_nanos + options_.default_deadline_nanos
                 : 0);

  QueueItem item;
  item.id = pending->id;
  item.coalesce_key = CoalesceKey(explainer, model, pending->request.objective);
  item.enqueue_nanos = pending->enqueue_nanos;
  item.deadline_nanos = pending->deadline_nanos;
  item.payload = pending.get();

  std::future<ExplainResponse> future = pending->promise.get_future();
  const util::Status pushed = blocking ? queue_.Push(item) : queue_.TryPush(item);
  if (!pushed.ok()) {
    if (pushed.code() == util::StatusCode::kResourceExhausted) {
      totals_.rejected_full.fetch_add(1, std::memory_order_relaxed);
    } else {
      totals_.rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
    }
    c_rejected_->Increment();
    return pushed;  // `pending` dies here; the never-returned future with it
  }
  pending.release();  // owned by the queue item until a worker takes it
  totals_.accepted.fetch_add(1, std::memory_order_relaxed);
  c_accepted_->Increment();
  UpdateDepthGauge();
  return future;
}

void ExplanationServer::FinishTimedOut(std::unique_ptr<PendingRequest> pending,
                                       int64_t now_nanos) {
  totals_.timed_out.fetch_add(1, std::memory_order_relaxed);
  c_timed_out_->Increment();
  ExplainResponse response;
  response.status = util::Status::DeadlineExceeded("deadline expired after " +
                                                   std::to_string(now_nanos -
                                                                  pending->enqueue_nanos) +
                                                   "ns in queue");
  response.request_id = pending->id;
  response.queue_seconds = static_cast<double>(now_nanos - pending->enqueue_nanos) * 1e-9;
  h_queue_seconds_->Observe(response.queue_seconds);
  h_latency_seconds_->Observe(response.queue_seconds);
  pending->promise.set_value(std::move(response));
}

void ExplanationServer::FinishCancelled(std::unique_ptr<PendingRequest> pending) {
  totals_.cancelled.fetch_add(1, std::memory_order_relaxed);
  c_cancelled_->Increment();
  ExplainResponse response;
  response.status = util::Status::Cancelled("server shut down before the request was served");
  response.request_id = pending->id;
  pending->promise.set_value(std::move(response));
}

void ExplanationServer::RunGroup(std::vector<std::unique_ptr<PendingRequest>> group,
                                 int64_t dequeue_nanos) {
  explain::Explainer* explainer = group[0]->explainer;
  const explain::Objective objective = group[0]->request.objective;
  obs::ScopedSpan span("serve.request");

  std::mutex* serialize = nullptr;
  if (!explainer->thread_safe_explain()) {
    std::lock_guard<std::mutex> lock(explainers_mu_);
    auto it = unsafe_mu_.find(explainer);
    if (it != unsafe_mu_.end()) serialize = it->second.get();
  }

  const uint64_t runs_before =
      runs_started_.fetch_add(group.size(), std::memory_order_relaxed);
  const tensor::PoolStats pool_before = ThreadPoolStats();
  const int64_t run_start = clock_->NowNanos();

  std::vector<const explain::ExplanationTask*> tasks;
  tasks.reserve(group.size());
  for (const auto& pending : group) tasks.push_back(&pending->task);
  std::vector<explain::Explanation> results;
  {
    std::unique_lock<std::mutex> run_lock;
    if (serialize != nullptr) run_lock = std::unique_lock<std::mutex>(*serialize);
    results = explainer->ExplainBatch(tasks, objective);
  }
  if (group.size() > 1) {
    totals_.coalesced_groups.fetch_add(1, std::memory_order_relaxed);
    totals_.coalesced_instances.fetch_add(group.size(), std::memory_order_relaxed);
    c_coalesced_groups_->Increment();
    c_coalesced_instances_->Add(group.size());
  }
  CHECK_EQ(results.size(), group.size());

  const int64_t run_end = clock_->NowNanos();
  const tensor::PoolStats pool_after = ThreadPoolStats();
  const uint64_t delta_hits = pool_after.hits - pool_before.hits;
  const uint64_t delta_misses = pool_after.misses - pool_before.misses;
  if (runs_before >= options_.warmup_requests) {
    totals_.warm_pool_hits.fetch_add(delta_hits, std::memory_order_relaxed);
    totals_.warm_pool_misses.fetch_add(delta_misses, std::memory_order_relaxed);
  }

  const double run_seconds = static_cast<double>(run_end - run_start) * 1e-9;
  for (size_t i = 0; i < group.size(); ++i) {
    PendingRequest* pending = group[i].get();
    ExplainResponse response;
    response.status = results[i].status;
    response.explanation = std::move(results[i]);
    response.request_id = pending->id;
    response.queue_seconds =
        static_cast<double>(dequeue_nanos - pending->enqueue_nanos) * 1e-9;
    response.run_seconds = run_seconds;
    response.batch_size = static_cast<int>(group.size());
    response.pool_hits = delta_hits;
    response.pool_misses = delta_misses;
    h_queue_seconds_->Observe(response.queue_seconds);
    h_run_seconds_->Observe(response.run_seconds);
    h_latency_seconds_->Observe(response.queue_seconds + response.run_seconds);
    if (response.status.ok()) {
      totals_.completed.fetch_add(1, std::memory_order_relaxed);
      c_completed_->Increment();
    } else {
      totals_.rejected_invalid.fetch_add(1, std::memory_order_relaxed);
      c_rejected_->Increment();
    }
    pending->promise.set_value(std::move(response));
  }
}

ExplanationServer::RunOnceResult ExplanationServer::RunOnce() {
  RunOnceResult result;
  QueueItem item;
  if (!queue_.TryPop(&item)) return result;
  UpdateDepthGauge();

  std::unique_ptr<PendingRequest> pending(static_cast<PendingRequest*>(item.payload));
  const int64_t now = clock_->NowNanos();
  if (pending->deadline_nanos != 0 && now > pending->deadline_nanos) {
    FinishTimedOut(std::move(pending), now);
    result.completed = 1;
    result.timed_out = 1;
    return result;
  }

  std::vector<std::unique_ptr<PendingRequest>> group;
  group.push_back(std::move(pending));
  if (options_.coalesce && options_.coalesce_limit > 1) {
    QueueItem next;
    while (static_cast<int>(group.size()) < options_.coalesce_limit &&
           queue_.TryPopMatching(item.coalesce_key, &next)) {
      UpdateDepthGauge();
      std::unique_ptr<PendingRequest> extra(static_cast<PendingRequest*>(next.payload));
      const int64_t t = clock_->NowNanos();
      if (extra->deadline_nanos != 0 && t > extra->deadline_nanos) {
        FinishTimedOut(std::move(extra), t);
        ++result.completed;
        ++result.timed_out;
        continue;
      }
      group.push_back(std::move(extra));
    }
  }

  const int ran = static_cast<int>(group.size());
  RunGroup(std::move(group), now);
  result.completed += ran;
  result.ran = ran;
  return result;
}

void ExplanationServer::WorkerLoop() {
  while (true) {
    QueueItem item;
    if (!queue_.WaitPop(&item)) return;
    UpdateDepthGauge();
    // Re-enter the RunOnce path for the popped item: deadline check, then
    // coalesce-and-run. Duplicating the small head here keeps WaitPop's
    // blocking semantics out of RunOnce (which must never block).
    std::unique_ptr<PendingRequest> pending(static_cast<PendingRequest*>(item.payload));
    const int64_t now = clock_->NowNanos();
    if (pending->deadline_nanos != 0 && now > pending->deadline_nanos) {
      FinishTimedOut(std::move(pending), now);
      continue;
    }
    std::vector<std::unique_ptr<PendingRequest>> group;
    group.push_back(std::move(pending));
    if (options_.coalesce && options_.coalesce_limit > 1) {
      QueueItem next;
      while (static_cast<int>(group.size()) < options_.coalesce_limit &&
             queue_.TryPopMatching(item.coalesce_key, &next)) {
        UpdateDepthGauge();
        std::unique_ptr<PendingRequest> extra(static_cast<PendingRequest*>(next.payload));
        const int64_t t = clock_->NowNanos();
        if (extra->deadline_nanos != 0 && t > extra->deadline_nanos) {
          FinishTimedOut(std::move(extra), t);
          continue;
        }
        group.push_back(std::move(extra));
      }
    }
    RunGroup(std::move(group), now);
  }
}

void ExplanationServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_ || shutdown_done_) return;
  started_ = true;
  workers_.reserve(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ExplanationServer::Shutdown(DrainMode mode) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (shutdown_done_) return;
  shutdown_done_ = true;

  std::vector<QueueItem> cancelled = queue_.BeginShutdown(mode == DrainMode::kCancel);
  for (const QueueItem& item : cancelled) {
    FinishCancelled(std::unique_ptr<PendingRequest>(static_cast<PendingRequest*>(item.payload)));
  }
  UpdateDepthGauge();

  // Workers observe the state change: they drain the backlog (kDraining saw
  // it stay queued) or find it empty (kCancelling), then WaitPop returns
  // false and they exit.
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  if (mode == DrainMode::kDrain) {
    // No-worker servers (the synchronous test/replay mode) drain here; with
    // workers the backlog is already gone and the loop exits immediately.
    while (RunOnce().completed > 0) {
    }
  }
  queue_.MarkStopped();
  UpdateDepthGauge();
}

ServerStats ExplanationServer::stats() const {
  ServerStats stats;
  stats.submitted = totals_.submitted.load(std::memory_order_relaxed);
  stats.accepted = totals_.accepted.load(std::memory_order_relaxed);
  stats.rejected_full = totals_.rejected_full.load(std::memory_order_relaxed);
  stats.rejected_invalid = totals_.rejected_invalid.load(std::memory_order_relaxed);
  stats.rejected_shutdown = totals_.rejected_shutdown.load(std::memory_order_relaxed);
  stats.timed_out = totals_.timed_out.load(std::memory_order_relaxed);
  stats.cancelled = totals_.cancelled.load(std::memory_order_relaxed);
  stats.completed = totals_.completed.load(std::memory_order_relaxed);
  stats.coalesced_groups = totals_.coalesced_groups.load(std::memory_order_relaxed);
  stats.coalesced_instances = totals_.coalesced_instances.load(std::memory_order_relaxed);
  stats.warm_pool_hits = totals_.warm_pool_hits.load(std::memory_order_relaxed);
  stats.warm_pool_misses = totals_.warm_pool_misses.load(std::memory_order_relaxed);
  stats.queue_depth = queue_.depth();
  return stats;
}

}  // namespace revelio::serve
