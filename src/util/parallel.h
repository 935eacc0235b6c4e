#ifndef REVELIO_UTIL_PARALLEL_H_
#define REVELIO_UTIL_PARALLEL_H_

// Shared thread pool and ParallelFor for the one parallel axis: explanation
// instances side by side (explain::Explainer::ExplainBatch, and through it
// eval::ExplainAll and the serve workers). Tensor kernels and plan replay do
// not fork: an explanation's tensors are tens to hundreds of rows, too small
// to pay for a fork/join, so a lone explanation runs serially on its own
// thread (see DESIGN.md "Parallel execution").
//
// Thread count resolution (first match wins):
//   1. SetNumThreads(n)            — CLI flags (`--threads` in the benches)
//   2. REVELIO_NUM_THREADS env var — deployment knob
//   3. std::thread::hardware_concurrency()
//
// Determinism contract: each instance is computed by one thread, start to
// finish, so results are bitwise-identical for any thread count.
//
// ParallelFor calls issued from inside a running ParallelFor chunk execute
// serially on the calling thread, so the pool never deadlocks on itself and
// thread budgets are not multiplied.

#include <cstdint>
#include <functional>

namespace revelio::util {

// Worker threads available to ParallelFor (>= 1). Lazily resolved on first
// use; cheap to call afterwards.
int NumThreads();

// Overrides the thread count (n >= 1; clamped to kMaxThreads). Safe to call
// between parallel regions, e.g. for the bench thread sweeps.
void SetNumThreads(int n);

// What hardware_concurrency reports (>= 1).
int HardwareThreads();

// True while the calling thread executes a ParallelFor chunk; nested
// ParallelFor calls run serially when set.
bool InParallelRegion();

// Runs fn(chunk_begin, chunk_end) over contiguous chunks covering
// [begin, end). Chunks hold exactly `grain` items (grain < 1 is treated as
// 1) except the last, which holds the remainder. They are claimed in index
// order from one shared cursor by up to NumThreads() threads (the caller and
// min(NumThreads(), chunks) - 1 pool workers); each thread takes the next
// unclaimed chunk when it finishes one, so uneven chunks balance themselves.
// A range of at most `grain` items — or NumThreads() == 1, or a nested call —
// degenerates to a single fn(begin, end) call on the calling thread. fn must
// not throw; chunks may run on any thread, concurrently.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

}  // namespace revelio::util

#endif  // REVELIO_UTIL_PARALLEL_H_
