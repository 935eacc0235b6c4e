// Deterministic fault-injection tests for the explanation-serving engine
// (src/serve). Scheduling is controlled by the tests: no Start() means the
// queue only moves when the test calls RunOnce(), and time only moves when
// the test advances a ManualClock — so queue-full rejection, deadline expiry
// mid-queue, shutdown with in-flight work, and exact latency accounting are
// all asserted without a single wall-clock sleep.

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "explain/explainer.h"
#include "plan/plan.h"
#include "gnn/model.h"
#include "graph/graph.h"
#include "serve/clock.h"
#include "serve/model_registry.h"
#include "serve/queue.h"
#include "serve/server.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/status.h"

namespace revelio::serve {
namespace {

constexpr int kFeatureDim = 4;

// Counts calls and (optionally) blocks inside ExplainImpl until the test
// grants a permit — the hook the in-flight shutdown and backpressure tests
// use to hold a worker mid-request at a known point.
class FakeExplainer : public explain::Explainer {
 public:
  std::string name() const override { return "Fake"; }

  void SetGated() {
    std::lock_guard<std::mutex> lock(mu_);
    permits_ = 0;
    gated_ = true;
  }
  void Release(int n) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      permits_ += n;
    }
    cv_.notify_all();
  }
  int calls() const { return calls_.load(); }
  int entered() const { return entered_.load(); }
  void WaitEntered(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [this, n] { return entered_.load() >= n; });
  }

 protected:
  explain::Explanation ExplainImpl(const explain::ExplanationTask& task,
                                   explain::Objective objective) override {
    (void)objective;
    entered_.fetch_add(1);
    entered_cv_.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !gated_ || permits_ > 0; });
      if (gated_) --permits_;
    }
    calls_.fetch_add(1);
    explain::Explanation explanation;
    explanation.edge_scores.assign(task.graph->num_edges(),
                                   static_cast<double>(task.target_node));
    return explanation;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable entered_cv_;
  bool gated_ = false;
  int permits_ = 0;
  std::atomic<int> calls_{0};
  std::atomic<int> entered_{0};
};

std::unique_ptr<gnn::GnnModel> MakeModel(uint64_t seed) {
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.task = gnn::TaskType::kNodeClassification;
  config.input_dim = kFeatureDim;
  config.hidden_dim = 4;
  config.num_classes = 2;
  config.num_layers = 2;
  config.seed = seed;
  return std::make_unique<gnn::GnnModel>(config);
}

ExplainRequest MakeRequest(const std::string& model, int target_node = 0) {
  ExplainRequest request;
  request.model = model;
  request.method = "Fake";
  const int n = 5;
  request.graph = graph::Graph(n);
  for (int v = 0; v < n; ++v) request.graph.AddUndirectedEdge(v, (v + 1) % n);
  util::Rng rng(7);
  request.features = tensor::Tensor::Uniform(n, kFeatureDim, -1.0f, 1.0f, &rng);
  request.target_node = target_node;
  return request;
}

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() {
    EXPECT_TRUE(registry_.Register("m1", MakeModel(1)).ok());
    EXPECT_TRUE(registry_.Register("m2", MakeModel(2)).ok());
  }

  // Builds a synchronous (no-worker) server on the manual clock with the
  // fake explainer installed. Tests tweak `options` first when needed.
  std::unique_ptr<ExplanationServer> MakeServer(ServeOptions options) {
    if (options.clock == nullptr) options.clock = &clock_;
    auto server = std::make_unique<ExplanationServer>(&registry_, options);
    auto fake = std::make_unique<FakeExplainer>();
    fake_ = fake.get();
    server->RegisterExplainer("Fake", std::move(fake));
    return server;
  }

  ModelRegistry registry_;
  ManualClock clock_;
  FakeExplainer* fake_ = nullptr;
};

TEST_F(ServeTest, QueueFullRejectionIsExplicit) {
  ServeOptions options;
  options.queue_capacity = 2;
  auto server = MakeServer(options);

  auto a = server->TrySubmit(MakeRequest("m1"));
  auto b = server->TrySubmit(MakeRequest("m1"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = server->TrySubmit(MakeRequest("m1"));
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), util::StatusCode::kResourceExhausted);

  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected_full, 1u);
  EXPECT_EQ(stats.queue_depth, 2u);

  // The rejected request never reaches the explainer; the accepted backlog
  // still serves normally.
  while (server->RunOnce().completed > 0) {
  }
  EXPECT_EQ(fake_->calls(), 2);
  EXPECT_TRUE(a.value().get().status.ok());
  EXPECT_TRUE(b.value().get().status.ok());
}

TEST_F(ServeTest, DeadlineExpiryMidQueueSkipsTheExplainer) {
  ServeOptions options;
  options.coalesce = false;  // isolate the deadline-at-dequeue path
  auto server = MakeServer(options);

  auto ok_req = server->TrySubmit(MakeRequest("m1"));
  ExplainRequest dated = MakeRequest("m1");
  dated.deadline_nanos = clock_.NowNanos() + 10'000'000;  // +10ms, absolute
  auto dated_req = server->TrySubmit(std::move(dated));
  ASSERT_TRUE(ok_req.ok());
  ASSERT_TRUE(dated_req.ok());

  clock_.AdvanceNanos(20'000'000);  // both waited 20ms in queue

  ExplanationServer::RunOnceResult first = server->RunOnce();
  EXPECT_EQ(first.ran, 1);
  EXPECT_EQ(first.timed_out, 0);
  ExplanationServer::RunOnceResult second = server->RunOnce();
  EXPECT_EQ(second.ran, 0);
  EXPECT_EQ(second.timed_out, 1);

  EXPECT_TRUE(ok_req.value().get().status.ok());
  ExplainResponse late = dated_req.value().get();
  EXPECT_EQ(late.status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(late.queue_seconds, 0.020);
  EXPECT_EQ(fake_->calls(), 1);  // the expired request never ran
  EXPECT_EQ(server->stats().timed_out, 1u);
}

TEST_F(ServeTest, CoalescingTimesOutExpiredGroupMembers) {
  // An expired request encountered while extending a coalesced group is
  // answered DeadlineExceeded in the same RunOnce and never fused in.
  auto server = MakeServer(ServeOptions{});
  auto ok_req = server->TrySubmit(MakeRequest("m1"));
  ExplainRequest dated = MakeRequest("m1");
  dated.deadline_nanos = clock_.NowNanos() + 10'000'000;
  auto dated_req = server->TrySubmit(std::move(dated));
  ASSERT_TRUE(ok_req.ok());
  ASSERT_TRUE(dated_req.ok());

  clock_.AdvanceNanos(20'000'000);
  ExplanationServer::RunOnceResult result = server->RunOnce();
  EXPECT_EQ(result.completed, 2);
  EXPECT_EQ(result.ran, 1);
  EXPECT_EQ(result.timed_out, 1);
  ExplainResponse served = ok_req.value().get();
  EXPECT_TRUE(served.status.ok());
  EXPECT_EQ(served.batch_size, 1);
  EXPECT_EQ(dated_req.value().get().status.code(),
            util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(fake_->calls(), 1);
}

TEST_F(ServeTest, ShutdownDrainServesTheBacklog) {
  auto server = MakeServer(ServeOptions{});
  auto a = server->TrySubmit(MakeRequest("m1"));
  auto b = server->TrySubmit(MakeRequest("m2"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  server->Shutdown(ExplanationServer::DrainMode::kDrain);
  EXPECT_EQ(server->state(), QueueState::kStopped);
  EXPECT_TRUE(a.value().get().status.ok());
  EXPECT_TRUE(b.value().get().status.ok());
  EXPECT_EQ(fake_->calls(), 2);
  EXPECT_EQ(server->stats().completed, 2u);
  EXPECT_EQ(server->stats().cancelled, 0u);
}

TEST_F(ServeTest, ShutdownCancelAnswersTheBacklogCancelled) {
  auto server = MakeServer(ServeOptions{});
  auto a = server->TrySubmit(MakeRequest("m1"));
  auto b = server->TrySubmit(MakeRequest("m1"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  server->Shutdown(ExplanationServer::DrainMode::kCancel);
  EXPECT_EQ(server->state(), QueueState::kStopped);
  EXPECT_EQ(a.value().get().status.code(), util::StatusCode::kCancelled);
  EXPECT_EQ(b.value().get().status.code(), util::StatusCode::kCancelled);
  EXPECT_EQ(fake_->calls(), 0);
  EXPECT_EQ(server->stats().cancelled, 2u);

  // Admission after shutdown is an explicit Unavailable, not a hang.
  auto late = server->TrySubmit(MakeRequest("m1"));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(server->stats().rejected_shutdown, 1u);
}

TEST_F(ServeTest, ShutdownCancelLetsInFlightWorkComplete) {
  ServeOptions options;
  options.num_workers = 1;
  options.coalesce = false;  // keep the two requests as separate dequeues
  auto server = MakeServer(options);
  fake_->SetGated();
  server->Start();

  auto in_flight = server->TrySubmit(MakeRequest("m1"));
  ASSERT_TRUE(in_flight.ok());
  fake_->WaitEntered(1);  // the worker now holds request A inside ExplainImpl
  auto queued = server->TrySubmit(MakeRequest("m1"));
  ASSERT_TRUE(queued.ok());

  std::thread shutdown_thread(
      [&server] { server->Shutdown(ExplanationServer::DrainMode::kCancel); });
  // Shutdown cancels the queued request immediately, then blocks joining the
  // worker that still holds A. Releasing the gate lets A complete normally.
  EXPECT_EQ(queued.value().get().status.code(), util::StatusCode::kCancelled);
  fake_->Release(1);
  shutdown_thread.join();

  EXPECT_TRUE(in_flight.value().get().status.ok());
  EXPECT_EQ(fake_->calls(), 1);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
}

TEST_F(ServeTest, ShutdownDrainWithWorkerServesEverything) {
  ServeOptions options;
  options.num_workers = 1;
  auto server = MakeServer(options);
  fake_->SetGated();
  server->Start();

  std::vector<std::future<ExplainResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    auto submitted = server->TrySubmit(MakeRequest("m1", i % 5));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  fake_->Release(4);
  server->Shutdown(ExplanationServer::DrainMode::kDrain);
  for (auto& future : futures) EXPECT_TRUE(future.get().status.ok());
  EXPECT_EQ(server->stats().completed, 4u);
}

TEST_F(ServeTest, DuplicateModelRegistrationIsAlreadyExists) {
  util::Status dup = registry_.Register("m1", MakeModel(3));
  EXPECT_EQ(dup.code(), util::StatusCode::kAlreadyExists);
  EXPECT_EQ(registry_.size(), 2u);
  EXPECT_EQ(registry_.Register("", MakeModel(3)).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(registry_.Register("m3", nullptr).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(registry_.Remove("ghost").code(), util::StatusCode::kNotFound);
}

TEST_F(ServeTest, SeededClockLatencyAccountingIsExact) {
  auto server = MakeServer(ServeOptions{});
  auto submitted = server->TrySubmit(MakeRequest("m1"));
  ASSERT_TRUE(submitted.ok());

  clock_.AdvanceNanos(5'000'000);  // 5ms in queue
  EXPECT_EQ(server->RunOnce().ran, 1);
  ExplainResponse response = submitted.value().get();
  ASSERT_TRUE(response.status.ok());
  EXPECT_DOUBLE_EQ(response.queue_seconds, 0.005);
  EXPECT_DOUBLE_EQ(response.run_seconds, 0.0);  // manual clock: no time passes
  EXPECT_EQ(response.batch_size, 1);
}

TEST_F(ServeTest, InvalidRequestsAreRejectedAtAdmission) {
  auto server = MakeServer(ServeOptions{});

  auto no_model = server->TrySubmit(MakeRequest("ghost"));
  ASSERT_FALSE(no_model.ok());
  EXPECT_EQ(no_model.status().code(), util::StatusCode::kNotFound);

  ExplainRequest bad_method = MakeRequest("m1");
  bad_method.method = "NoSuchMethod";
  auto unknown = server->TrySubmit(std::move(bad_method));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), util::StatusCode::kInvalidArgument);

  ExplainRequest bad_task = MakeRequest("m1");
  bad_task.target_node = 99;  // out of range for the 5-node graph
  auto invalid = server->TrySubmit(std::move(bad_task));
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), util::StatusCode::kInvalidArgument);

  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.rejected_invalid, 3u);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(server->queue_depth(), 0u);
}

TEST_F(ServeTest, CoalescingFusesConsecutiveSameKeyRequests) {
  ServeOptions options;
  options.coalesce_limit = 8;
  auto server = MakeServer(options);

  std::vector<std::future<ExplainResponse>> futures;
  for (int i = 0; i < 3; ++i) {
    auto submitted = server->TrySubmit(MakeRequest("m1", i));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  auto other = server->TrySubmit(MakeRequest("m2"));
  ASSERT_TRUE(other.ok());

  // First RunOnce fuses the prefix run of three same-(method, model,
  // objective) requests into one group; the m2 request is NOT pulled in.
  ExplanationServer::RunOnceResult first = server->RunOnce();
  EXPECT_EQ(first.ran, 3);
  for (int i = 0; i < 3; ++i) {
    ExplainResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.batch_size, 3);
    // Determinism: the fake encodes the target node into the scores, so the
    // fused results stay per-request.
    ASSERT_FALSE(response.explanation.edge_scores.empty());
    EXPECT_EQ(response.explanation.edge_scores[0], static_cast<double>(i));
  }
  EXPECT_EQ(server->RunOnce().ran, 1);
  EXPECT_EQ(other.value().get().batch_size, 1);

  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.coalesced_groups, 1u);
  EXPECT_EQ(stats.coalesced_instances, 3u);
}

TEST_F(ServeTest, CoalescingHonorsTheLimit) {
  ServeOptions options;
  options.coalesce_limit = 2;
  auto server = MakeServer(options);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server->TrySubmit(MakeRequest("m1", i)).ok());
  }
  EXPECT_EQ(server->RunOnce().ran, 2);
  EXPECT_EQ(server->RunOnce().ran, 2);
  EXPECT_EQ(server->RunOnce().ran, 1);
}

TEST_F(ServeTest, BlockingSubmitAppliesBackpressure) {
  ServeOptions options;
  options.queue_capacity = 1;
  options.num_workers = 1;
  options.coalesce = false;
  auto server = MakeServer(options);
  fake_->SetGated();
  server->Start();

  auto first = server->TrySubmit(MakeRequest("m1"));
  ASSERT_TRUE(first.ok());
  fake_->WaitEntered(1);  // worker holds the first request; queue is empty
  auto second = server->TrySubmit(MakeRequest("m1"));
  ASSERT_TRUE(second.ok());  // fills the queue

  std::atomic<bool> admitted{false};
  util::StatusOr<std::future<ExplainResponse>> third =
      util::Status::Internal("not yet");
  std::thread submitter([&] {
    third = server->Submit(MakeRequest("m1"));  // blocks: queue is full
    admitted.store(true);
  });
  EXPECT_FALSE(admitted.load());  // still parked (best-effort, no sleep)
  fake_->Release(3);              // drain everything
  submitter.join();
  EXPECT_TRUE(admitted.load());
  ASSERT_TRUE(third.ok());

  server->Shutdown(ExplanationServer::DrainMode::kDrain);
  EXPECT_TRUE(first.value().get().status.ok());
  EXPECT_TRUE(second.value().get().status.ok());
  EXPECT_TRUE(third.value().get().status.ok());
  EXPECT_EQ(server->stats().completed, 3u);
}

TEST_F(ServeTest, AdmissionQueueConservesItems) {
  AdmissionQueue queue(4);
  QueueItem item;
  item.coalesce_key = 1;
  for (uint64_t i = 0; i < 4; ++i) {
    item.id = i;
    EXPECT_TRUE(queue.TryPush(item).ok());
  }
  EXPECT_EQ(queue.TryPush(item).code(), util::StatusCode::kResourceExhausted);

  QueueItem popped;
  EXPECT_TRUE(queue.TryPop(&popped));
  EXPECT_EQ(popped.id, 0u);  // FIFO
  EXPECT_TRUE(queue.TryPopMatching(1, &popped));
  EXPECT_EQ(popped.id, 1u);
  EXPECT_FALSE(queue.TryPopMatching(2, &popped));  // front key differs

  std::vector<QueueItem> cancelled = queue.BeginShutdown(/*cancel=*/true);
  EXPECT_EQ(cancelled.size(), 2u);
  EXPECT_EQ(queue.state(), QueueState::kCancelling);
  EXPECT_EQ(queue.TryPush(item).code(), util::StatusCode::kUnavailable);
  queue.MarkStopped();
  EXPECT_EQ(queue.total_pushed(), queue.total_popped() + queue.total_cancelled());
}

// A flow-heavy request must not take the process down: a 20-node complete
// graph under a 3-layer graph classifier has 20 targets x 20^3 = 160,000
// message flows, over the 60,000 serve cap. It is answered
// ResourceExhausted; the light request coalesced next to it and a later
// request are still served.
TEST_F(ServeTest, FlowHeavyRequestIsAnsweredNonOkAndServingContinues) {
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.task = gnn::TaskType::kGraphClassification;
  config.input_dim = kFeatureDim;
  config.hidden_dim = 4;
  config.num_classes = 2;
  config.num_layers = 3;
  config.seed = 5;
  ASSERT_TRUE(registry_.Register("g3", std::make_unique<gnn::GnnModel>(config)).ok());
  ServeOptions options;
  options.explainer_epochs = 4;
  auto server = MakeServer(options);
  ASSERT_EQ(server->options().max_flows, 60'000);

  auto graph_request = [](int n, bool complete) {
    ExplainRequest request;
    request.model = "g3";
    request.method = "Revelio";
    request.graph = graph::Graph(n);
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (u != v && (complete || v == (u + 1) % n)) request.graph.AddEdge(u, v);
      }
    }
    util::Rng rng(17);
    request.features = tensor::Tensor::Uniform(n, kFeatureDim, -1.0f, 1.0f, &rng);
    request.target_node = -1;
    return request;
  };
  auto heavy = server->TrySubmit(graph_request(20, /*complete=*/true));
  auto light = server->TrySubmit(graph_request(6, /*complete=*/false));
  ASSERT_TRUE(heavy.ok());
  ASSERT_TRUE(light.ok());
  EXPECT_EQ(server->RunOnce().ran, 2);  // one coalesced group

  const ExplainResponse heavy_response = heavy.value().get();
  EXPECT_EQ(heavy_response.status.code(), util::StatusCode::kResourceExhausted)
      << heavy_response.status.ToString();
  EXPECT_TRUE(heavy_response.explanation.edge_scores.empty());
  const ExplainResponse light_response = light.value().get();
  ASSERT_TRUE(light_response.status.ok()) << light_response.status.ToString();
  EXPECT_FALSE(light_response.explanation.edge_scores.empty());

  auto later = server->TrySubmit(MakeRequest("m1"));
  ASSERT_TRUE(later.ok());
  EXPECT_EQ(server->RunOnce().ran, 1);
  EXPECT_TRUE(later.value().get().status.ok());
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected_invalid, 1u);
}

// --- serve x plan fault injection (DESIGN.md §12) ---------------------------

// Requests routed to the real Revelio explainer (built lazily from
// ServeOptions), whose training loop records and replays execution plans.
ExplainRequest MakeRevelioRequest(const std::string& model, uint64_t seed) {
  ExplainRequest request;
  request.model = model;
  request.method = "Revelio";
  util::Rng rng(seed);
  const int n = 6;
  request.graph = graph::Graph(n);
  for (int v = 0; v < n; ++v) request.graph.AddUndirectedEdge(v, (v + 1) % n);
  request.features = tensor::Tensor::Uniform(n, kFeatureDim, -1.0f, 1.0f, &rng);
  request.target_node = static_cast<int>(seed % n);
  request.target_class = static_cast<int>(seed % 2);
  return request;
}

// Bumping the global plan version invalidates every sealed execution plan in
// the process; any loop that was replaying re-records at its next epoch and
// continues. Faults injected between drain steps (deterministic) and from a
// concurrent bumper thread (lands mid-training-loop) must both leave the
// served results bitwise-identical to an undisturbed drain.
TEST_F(ServeTest, PlanVersionBumpMidDrainReRecordsWithIdenticalResults) {
  ServeOptions options;
  options.queue_capacity = 8;
  options.coalesce = false;
  options.explainer_epochs = 6;
  options.seed = 99;

  enum class Fault { kNone, kBetweenRequests, kConcurrent };
  auto drain = [&](Fault fault) {
    auto server = MakeServer(options);
    std::vector<std::future<ExplainResponse>> futures;
    for (uint64_t i = 0; i < 4; ++i) {
      auto submitted = server->TrySubmit(MakeRevelioRequest("m1", 50 + i));
      EXPECT_TRUE(submitted.ok());
      futures.push_back(std::move(submitted).value());
    }
    std::atomic<bool> stop{false};
    std::thread bumper;
    if (fault == Fault::kConcurrent) {
      bumper = std::thread([&stop] {
        while (!stop.load()) {
          plan::BumpGlobalPlanVersion();
          std::this_thread::yield();
        }
      });
    }
    while (server->RunOnce().completed > 0) {
      if (fault == Fault::kBetweenRequests) plan::BumpGlobalPlanVersion();
    }
    if (bumper.joinable()) {
      stop.store(true);
      bumper.join();
    }
    std::vector<explain::Explanation> results;
    for (auto& future : futures) {
      ExplainResponse response = future.get();
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      results.push_back(std::move(response.explanation));
    }
    EXPECT_EQ(server->stats().completed, 4u);
    return results;
  };

  const std::vector<explain::Explanation> reference = drain(Fault::kNone);
  for (const explain::Explanation& expected : reference) {
    ASSERT_FALSE(expected.edge_scores.empty());
  }
  for (const Fault fault : {Fault::kBetweenRequests, Fault::kConcurrent}) {
    const std::vector<explain::Explanation> faulted = drain(fault);
    ASSERT_EQ(faulted.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i].edge_scores, faulted[i].edge_scores)
          << "fault mode " << static_cast<int>(fault) << " task " << i;
      EXPECT_EQ(reference[i].flow_scores, faulted[i].flow_scores)
          << "fault mode " << static_cast<int>(fault) << " task " << i;
    }
  }
}

}  // namespace
}  // namespace revelio::serve
