#include "util/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace revelio::util {

namespace {

constexpr int kMaxThreads = 256;

thread_local bool tls_in_parallel_region = false;

// 0 = not yet resolved.
std::atomic<int> g_num_threads{0};

int ResolveDefaultThreads() {
  if (const char* env = std::getenv("REVELIO_NUM_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) return std::min(parsed, kMaxThreads);
  }
  return HardwareThreads();
}

// Lazily-started worker pool. The singleton is intentionally leaked: workers
// block on the queue forever and die with the process, which avoids static
// destruction racing against late tasks.
class ThreadPool {
 public:
  static ThreadPool& Global() {
    static ThreadPool* pool = new ThreadPool();
    return *pool;
  }

  void EnsureWorkers(int count) {
    std::lock_guard<std::mutex> lock(mu_);
    while (static_cast<int>(workers_.size()) < count) {
      workers_.emplace_back([this] { WorkerLoop(); });
      workers_.back().detach();
    }
  }

  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return !queue_.empty(); });
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
};

// One ParallelFor invocation. Heap-shared so helper tasks that wake after
// the caller has already returned still touch live memory.
struct Region {
  const std::function<void(int64_t, int64_t)>* fn = nullptr;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  std::atomic<size_t> next_chunk{0};
  std::atomic<int> remaining_chunks{0};
  std::mutex mu;
  std::condition_variable done;
};

obs::Counter* WorkerBusyCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("parallel.worker_busy_us");
  return counter;
}

void RunChunks(const std::shared_ptr<Region>& region) {
  obs::ScopedSpan span("ParallelFor.worker", obs::FlightPolicy::kSkip);
  const bool prev = tls_in_parallel_region;
  tls_in_parallel_region = true;
  for (;;) {
    const size_t i = region->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (i >= region->chunks.size()) break;
    (*region->fn)(region->chunks[i].first, region->chunks[i].second);
    if (region->remaining_chunks.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(region->mu);
      region->done.notify_all();
    }
  }
  tls_in_parallel_region = prev;
  if (obs::Enabled()) {
    WorkerBusyCounter()->Add(static_cast<uint64_t>(span.ElapsedSeconds() * 1e6));
  }
}

}  // namespace

int NumThreads() {
  int n = g_num_threads.load(std::memory_order_relaxed);
  if (n == 0) {
    int expected = 0;
    g_num_threads.compare_exchange_strong(expected, ResolveDefaultThreads());
    n = g_num_threads.load(std::memory_order_relaxed);
  }
  return n;
}

void SetNumThreads(int n) {
  CHECK_GE(n, 1) << "SetNumThreads requires n >= 1";
  g_num_threads.store(std::min(n, kMaxThreads), std::memory_order_relaxed);
}

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool InParallelRegion() { return tls_in_parallel_region; }

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const int64_t range = end - begin;
  const int64_t max_chunks = (range + grain - 1) / grain;
  const int num_chunks =
      static_cast<int>(std::min<int64_t>(NumThreads(), max_chunks));
  if (num_chunks <= 1 || tls_in_parallel_region) {
    // Serial fallback. Still marks the region so kernels called from fn do
    // not try to parallelize underneath a serial decision.
    static obs::Counter* serial_fallbacks = [] {
      obs::Counter* counter =
          obs::MetricsRegistry::Global().GetCounter("parallel.serial_fallback");
      // Inside instance-parallel explanation every kernel call lands here, a
      // tick cheaper than a flight-ring record: keep it out of the ring, as
      // the pool's hit/miss counters are.
      counter->DisableFlightRecording();
      return counter;
    }();
    serial_fallbacks->Increment();
    const bool prev = tls_in_parallel_region;
    tls_in_parallel_region = true;
    {
      // The degenerate one-task execution; traced under the same span name
      // as pool tasks so profiles cover both paths.
      obs::ScopedSpan span("ParallelFor.worker", obs::FlightPolicy::kSkip);
      fn(begin, end);
      if (obs::Enabled()) {
        WorkerBusyCounter()->Add(static_cast<uint64_t>(span.ElapsedSeconds() * 1e6));
      }
    }
    tls_in_parallel_region = prev;
    return;
  }

  static obs::Counter* dispatches =
      obs::MetricsRegistry::Global().GetCounter("parallel.dispatches");
  static obs::Counter* tasks_dispatched =
      obs::MetricsRegistry::Global().GetCounter("parallel.tasks_dispatched");
  dispatches->Increment();
  tasks_dispatched->Add(static_cast<uint64_t>(num_chunks));

  auto region = std::make_shared<Region>();
  region->fn = &fn;
  region->chunks.reserve(num_chunks);
  // Near-equal contiguous chunks; the first `extra` chunks take one more.
  const int64_t base = range / num_chunks;
  const int64_t extra = range % num_chunks;
  int64_t cursor = begin;
  for (int c = 0; c < num_chunks; ++c) {
    const int64_t size = base + (c < extra ? 1 : 0);
    region->chunks.emplace_back(cursor, cursor + size);
    cursor += size;
  }
  region->remaining_chunks.store(num_chunks, std::memory_order_relaxed);

  ThreadPool& pool = ThreadPool::Global();
  pool.EnsureWorkers(NumThreads() - 1);
  // One helper task per chunk beyond the caller's; each loops claiming
  // whatever chunks remain, so work never waits on a particular thread.
  for (int c = 1; c < num_chunks; ++c) {
    pool.Submit([region] { RunChunks(region); });
  }
  RunChunks(region);
  std::unique_lock<std::mutex> lock(region->mu);
  region->done.wait(lock, [&region] {
    return region->remaining_chunks.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace revelio::util
