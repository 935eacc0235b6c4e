#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
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
// the caller has already returned still touch live memory. Chunk i covers
// [begin + i * grain, min(begin + (i + 1) * grain, end)); threads claim the
// next i from one atomic cursor, so one that finishes early takes more work.
struct Region {
  const std::function<void(int64_t, int64_t)>* fn = nullptr;
  int64_t begin = 0;
  int64_t end = 0;
  int64_t grain = 1;
  int64_t num_chunks = 0;
  std::atomic<int64_t> next_chunk{0};
  std::atomic<int64_t> remaining_chunks{0};
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
    const int64_t i = region->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (i >= region->num_chunks) break;
    const int64_t chunk_begin = region->begin + i * region->grain;
    (*region->fn)(chunk_begin, std::min(chunk_begin + region->grain, region->end));
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
  const int64_t num_chunks = (end - begin + grain - 1) / grain;
  const int num_workers = static_cast<int>(std::min<int64_t>(NumThreads(), num_chunks));
  if (num_workers <= 1 || tls_in_parallel_region) {
    // Serial fallback: the caller runs fn itself, with no worker span and no
    // worker busy time, so profiles charge it to the caller's own spans. It
    // still marks the region so a ParallelFor nested in fn stays serial too.
    static obs::Counter* serial_fallbacks =
        obs::MetricsRegistry::Global().GetCounter("parallel.serial_fallback");
    serial_fallbacks->Increment();
    const bool prev = tls_in_parallel_region;
    tls_in_parallel_region = true;
    fn(begin, end);
    tls_in_parallel_region = prev;
    return;
  }

  static obs::Counter* dispatches =
      obs::MetricsRegistry::Global().GetCounter("parallel.dispatches");
  static obs::Counter* tasks_dispatched =
      obs::MetricsRegistry::Global().GetCounter("parallel.tasks_dispatched");
  dispatches->Increment();
  tasks_dispatched->Add(static_cast<uint64_t>(num_workers));

  auto region = std::make_shared<Region>();
  region->fn = &fn;
  region->begin = begin;
  region->end = end;
  region->grain = grain;
  region->num_chunks = num_chunks;
  region->remaining_chunks.store(num_chunks, std::memory_order_relaxed);

  ThreadPool& pool = ThreadPool::Global();
  pool.EnsureWorkers(NumThreads() - 1);
  // One helper task per thread beyond the caller's; each loops claiming the
  // next chunk until none remain, so work never waits on a particular thread.
  for (int w = 1; w < num_workers; ++w) {
    pool.Submit([region] { RunChunks(region); });
  }
  RunChunks(region);
  std::unique_lock<std::mutex> lock(region->mu);
  region->done.wait(lock, [&region] {
    return region->remaining_chunks.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace revelio::util
