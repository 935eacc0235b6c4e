// ThreadSanitizer smoke test for the thread pool and the parallel tensor
// kernels. Built with -fsanitize=thread regardless of the REVELIO_SANITIZE
// setting (see tests/CMakeLists.txt) and run as part of tier-1 ctest, so a
// data race in ParallelFor or any owner-computes kernel fails the suite. No
// gtest: the binary exits 0 when TSan stays silent (TSan aborts with a
// non-zero exit on the first race) and the few logic checks below hold.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "serve/queue.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/status.h"

namespace {

using revelio::tensor::Tensor;

bool ExpectEqual(const std::vector<float>& a, const std::vector<float>& b, const char* what) {
  if (a == b) return true;
  std::fprintf(stderr, "FAIL: %s differs between thread counts\n", what);
  return false;
}

std::vector<float> TensorWorkload() {
  revelio::util::Rng rng(3);
  Tensor a = Tensor::Randn(96, 131, &rng).WithRequiresGrad();
  Tensor b = Tensor::Randn(131, 64, &rng).WithRequiresGrad();
  Tensor c = revelio::tensor::Relu(revelio::tensor::MatMul(a, b));

  const int edges = 3000;
  std::vector<int> src(edges), dst(edges);
  for (int e = 0; e < edges; ++e) {
    src[e] = rng.UniformInt(96);
    dst[e] = rng.UniformInt(96);
  }
  Tensor gathered = revelio::tensor::GatherRows(c, src);
  Tensor scattered = revelio::tensor::ScatterAddRows(gathered, dst, 96);
  revelio::tensor::Sum(scattered).Backward();

  std::vector<float> flat = scattered.values();
  const std::vector<float> ga = a.GradData();
  flat.insert(flat.end(), ga.begin(), ga.end());
  return flat;
}

}  // namespace

int main() {
  namespace util = revelio::util;
  bool ok = true;

  // Raw ParallelFor: overlapping claims or a lost chunk would trip TSan or
  // the coverage check.
  util::SetNumThreads(4);
  std::vector<int> hits(10000, 0);
  util::ParallelFor(0, static_cast<int64_t>(hits.size()), 7,
                    [&hits](int64_t begin, int64_t end) {
                      for (int64_t i = begin; i < end; ++i) ++hits[i];
                    });
  for (size_t i = 0; i < hits.size(); ++i) {
    if (hits[i] != 1) {
      std::fprintf(stderr, "FAIL: index %zu hit %d times\n", i, hits[i]);
      ok = false;
      break;
    }
  }

  // Many small chunks: concurrent callers each claim ~1,000 one-item chunks
  // from their region's shared cursor, so the cursor and the completion
  // handshake are hit once per item while the pool's workers interleave
  // regions.
  {
    constexpr int kCallers = 4;
    constexpr int64_t kItems = 1000;
    std::vector<std::vector<int>> counts(kCallers, std::vector<int>(kItems, 0));
    std::vector<std::thread> small_callers;
    for (int t = 0; t < kCallers; ++t) {
      small_callers.emplace_back([&counts, t] {
        std::vector<int>& mine = counts[t];
        util::ParallelFor(0, kItems, 1, [&mine](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) mine[i] += static_cast<int>(end - begin);
        });
      });
    }
    for (auto& caller : small_callers) caller.join();
    for (int t = 0; t < kCallers && ok; ++t) {
      for (int64_t i = 0; i < kItems; ++i) {
        if (counts[t][i] != 1) {
          std::fprintf(stderr, "FAIL: caller %d index %lld saw %d (one 1-item chunk expected)\n",
                       t, static_cast<long long>(i), counts[t][i]);
          ok = false;
          break;
        }
      }
    }
  }

  // Concurrent independent ParallelFor callers sharing the thread pool.
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([] { (void)TensorWorkload(); });
  }
  for (auto& caller : callers) caller.join();

  // Telemetry under contention: counters/histograms/gauges/spans updated from
  // raw threads and from inside ParallelFor while a reader concurrently
  // consolidates the trace and snapshots the registry. Any unsynchronized
  // access in the obs layer trips TSan here.
  {
    namespace obs = revelio::obs;
    obs::SetEnabled(true);
    obs::TraceRecorder::Global().Clear();
    obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter("tsan.counter");
    obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram("tsan.histogram");
    obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge("tsan.gauge");
    counter->Reset();
    histogram->Reset();

    constexpr int kUpdaters = 4;
    constexpr int kItemsPerUpdater = 5000;
    std::vector<std::thread> updaters;
    for (int t = 0; t < kUpdaters; ++t) {
      updaters.emplace_back([&, t] {
        obs::ScopedSpan span("tsan.updater");
        for (int i = 0; i < kItemsPerUpdater; ++i) {
          counter->Increment();
          histogram->Observe(1e-4 * (i % 100));
          gauge->Set(static_cast<double>(t));
        }
      });
    }
    std::thread reader([&] {
      for (int i = 0; i < 50; ++i) {
        (void)obs::TraceRecorder::Global().Consolidated();
        (void)obs::MetricsRegistry::Global().Snapshot();
        (void)counter->Total();
      }
    });
    // Metric updates from ParallelFor chunks race against the reader too.
    util::ParallelFor(0, kItemsPerUpdater, 100, [&](int64_t begin, int64_t end) {
      obs::ScopedSpan span("tsan.chunk");
      for (int64_t i = begin; i < end; ++i) counter->Increment();
    });
    for (auto& updater : updaters) updater.join();
    reader.join();

    const uint64_t expected = static_cast<uint64_t>(kUpdaters + 1) * kItemsPerUpdater;
    if (counter->Total() != expected) {
      std::fprintf(stderr, "FAIL: tsan.counter total %llu != %llu\n",
                   static_cast<unsigned long long>(counter->Total()),
                   static_cast<unsigned long long>(expected));
      ok = false;
    }
    if (histogram->Count() != static_cast<uint64_t>(kUpdaters) * kItemsPerUpdater) {
      std::fprintf(stderr, "FAIL: tsan.histogram count mismatch\n");
      ok = false;
    }
    obs::SetEnabled(false);
    obs::TraceRecorder::Global().Clear();
  }

  // Flight recorder under write contention: 16 raw threads append to the
  // lock-free ring (wrapping it several times) while readers concurrently
  // Collect and export. The all-atomic slot design means TSan must stay
  // silent even though dumps race active writers; the logic checks confirm
  // no claim was lost and the retained set stays within capacity.
  {
    namespace obs = revelio::obs;
    obs::SetFlightEnabled(true);
    obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
    recorder.Clear();
    constexpr int kWriters = 16;
    const size_t per_writer = recorder.capacity() / 4 + 129;  // ~4x capacity total
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([per_writer, t] {
        for (size_t i = 0; i < per_writer; ++i) {
          obs::FlightRecorder::Global().Record(obs::FlightEventKind::kCounterDelta,
                                               "tsan.flight", static_cast<double>(t));
        }
      });
    }
    std::thread collector([&recorder] {
      for (int i = 0; i < 20; ++i) (void)recorder.Collect();
    });
    std::thread exporter([&recorder] {
      for (int i = 0; i < 5; ++i) {
        obs::JsonWriter writer;
        recorder.AppendChromeTrace(&writer);
      }
    });
    for (auto& writer : writers) writer.join();
    collector.join();
    exporter.join();

    const uint64_t expected = static_cast<uint64_t>(kWriters) * per_writer;
    if (recorder.total_recorded() != expected) {
      std::fprintf(stderr, "FAIL: flight recorder claimed %llu != %llu\n",
                   static_cast<unsigned long long>(recorder.total_recorded()),
                   static_cast<unsigned long long>(expected));
      ok = false;
    }
    if (recorder.Collect().size() > recorder.capacity()) {
      std::fprintf(stderr, "FAIL: flight recorder retained more than capacity\n");
      ok = false;
    }
    recorder.Clear();
  }

  // Admission queue under contention (src/serve): concurrent TrySubmit-style
  // producers and blocking producers hammer a small bounded queue while
  // consumer threads WaitPop and one thread begins a cancelling shutdown
  // mid-stream. TSan checks the mutex/CV discipline; the conservation check
  // (pushed == popped + cancelled once quiesced) catches lost or duplicated
  // items across the lifecycle transition.
  {
    namespace serve = revelio::serve;
    serve::AdmissionQueue queue(8);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 400;
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> consumed{0};
    std::vector<std::thread> producers;
    for (int t = 0; t < kProducers; ++t) {
      producers.emplace_back([&queue, &admitted, t] {
        serve::QueueItem item;
        for (int i = 0; i < kPerProducer; ++i) {
          item.id = static_cast<uint64_t>(t) * kPerProducer + i;
          item.coalesce_key = static_cast<uint64_t>(t % 2);
          // Even producers shed load (TryPush), odd producers block (Push);
          // both must fail cleanly once shutdown begins.
          const revelio::util::Status pushed =
              (t % 2 == 0) ? queue.TryPush(item) : queue.Push(item);
          if (pushed.ok()) admitted.fetch_add(1);
        }
      });
    }
    std::vector<std::thread> consumers;
    for (int t = 0; t < 2; ++t) {
      consumers.emplace_back([&queue, &consumed] {
        serve::QueueItem item;
        while (queue.WaitPop(&item)) {
          consumed.fetch_add(1);
          // Opportunistic coalescing against the racing producers.
          while (queue.TryPopMatching(item.coalesce_key, &item)) consumed.fetch_add(1);
        }
      });
    }
    // Let some traffic flow, then cancel mid-stream.
    while (queue.total_popped() < kPerProducer / 2) std::this_thread::yield();
    const std::vector<serve::QueueItem> first_wave = queue.BeginShutdown(/*cancel=*/true);
    for (auto& producer : producers) producer.join();
    for (auto& consumer : consumers) consumer.join();
    // Consumers may have drained items between the cancel sweep and their
    // exit; anything still queued is accounted by a second sweep.
    serve::QueueItem leftover;
    uint64_t swept = first_wave.size();
    while (queue.TryPop(&leftover)) ++swept;
    queue.MarkStopped();
    if (admitted.load() != consumed.load() + swept) {
      std::fprintf(stderr, "FAIL: admission queue lost items (%llu != %llu + %llu)\n",
                   static_cast<unsigned long long>(admitted.load()),
                   static_cast<unsigned long long>(consumed.load()),
                   static_cast<unsigned long long>(swept));
      ok = false;
    }
    if (queue.total_pushed() !=
        queue.total_popped() + queue.total_cancelled()) {
      std::fprintf(stderr, "FAIL: admission queue totals do not conserve\n");
      ok = false;
    }
  }

  // Parallel tensor kernels: run the same workload at 1 and 4 threads under
  // the instrumented runtime and require identical bits.
  util::SetNumThreads(1);
  const std::vector<float> serial = TensorWorkload();
  util::SetNumThreads(4);
  const std::vector<float> parallel = TensorWorkload();
  ok = ExpectEqual(serial, parallel, "tensor workload") && ok;

  if (ok) std::printf("parallel_tsan_test: OK\n");
  return ok ? 0 : 1;
}
