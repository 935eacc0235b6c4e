// Thread-count differential: every tensor op (forward AND backward) must
// produce bitwise-identical results across thread counts {1, 2, 7, 16}.
// Kernels run serially on the calling thread, so this pins that no kernel
// result depends on the thread-count setting; large, small and degenerate
// shapes all ride along.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "prop/prop_util.h"
#include "util/parallel.h"
#include "util/proptest.h"

namespace revelio {
namespace {

using proptest::OpCase;

constexpr int kThreadCounts[] = {1, 2, 7, 16};

class ParallelDiffTest : public ::testing::Test {
 protected:
  void TearDown() override { util::SetNumThreads(1); }
};

// Bitwise equality, treating NaN bit patterns as values (memcmp, not ==).
bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST_F(ParallelDiffTest, AllKernelsBitwiseIdenticalAcrossThreadCounts) {
  const util::PropConfig config = util::DefaultPropConfig(/*num_cases=*/2);
  const std::vector<OpCase> cases =
      proptest::MakeOpCases(/*seed=*/0xd1ff, /*include_large=*/true);

  util::Domain<uint64_t> seed_domain;
  seed_domain.generate = [](util::Rng& rng) { return rng.NextUint64(); };

  for (const OpCase& c : cases) {
    const util::CheckResult result = util::ForAll<uint64_t>(
        "parallel-diff:" + c.op + ":" + c.variant, seed_domain,
        [&c](const uint64_t& value_seed) -> std::string {
          util::SetNumThreads(1);
          const std::vector<float> serial = proptest::RunOpCaseBitstream(c, value_seed);
          for (const int threads : kThreadCounts) {
            util::SetNumThreads(threads);
            const std::vector<float> parallel = proptest::RunOpCaseBitstream(c, value_seed);
            if (!BitwiseEqual(serial, parallel)) {
              util::SetNumThreads(1);
              return "output/grad stream diverges at threads=" + std::to_string(threads);
            }
          }
          util::SetNumThreads(1);
          return "";
        },
        config);
    EXPECT_TRUE(result.ok) << result.report;
  }
}

}  // namespace
}  // namespace revelio
