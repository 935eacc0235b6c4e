// Plan coverage audit (ISSUE PR 9, satellite 6): every op in the tensor op
// registry must be plan-replayable — its implementation records a tape entry
// via rec::Record/rec::RecordElementwise — or be explicitly accounted for as
// a composite that lowers to recorded ops (Neg, Mean) or as eager-only.
//
// Two layers of enforcement:
//  1. A static audit parses src/tensor/*.cc for rec::Record calls and diffs
//     the recorded-name set against RegisteredOpNames(). Adding an op to the
//     registry without a recording hook (or an explicit entry in the maps
//     below) fails here with the missing name.
//  2. A runtime differential records every op harness case from the shared
//     prop_util registry into a PlanSession, mutates the leaf values, and
//     checks that replay is bitwise-equal to an eager rebuild at the same
//     values — forward values and leaf gradients both.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "plan/plan.h"
#include "prop_util.h"
#include "tensor/op_registry.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace revelio::proptest {
namespace {

using tensor::Tensor;

constexpr uint64_t kSeed = 20260808ULL;

// Ops implemented as compositions of other registered ops: they never record
// under their own name, but every constituent does, so they are replayable.
const std::map<std::string, std::vector<std::string>>& CompositeOps() {
  static const auto* const kComposites = new std::map<std::string, std::vector<std::string>>{
      {"Neg", {"MulScalar"}},
      {"Mean", {"Sum", "MulScalar"}},
  };
  return *kComposites;
}

// Ops deliberately excluded from plan replay. Currently empty: everything in
// the registry replays. An op added here must also be rejected (or ignored)
// by the recording hooks, and the exclusion documented in DESIGN.md §12.
const std::set<std::string>& EagerOnlyOps() {
  static const auto* const kEagerOnly = new std::set<std::string>{};
  return *kEagerOnly;
}

// Collects the op names passed to rec::Record / rec::RecordElementwise in
// the tensor op implementation files.
void RecordedOpNamesFromSources(std::set<std::string>* names) {
  const std::vector<std::string> files = {"ops.cc", "ops_index.cc", "ops_spmm.cc"};
  for (const std::string& file : files) {
    const std::string path = std::string(REVELIO_SOURCE_DIR) + "/src/tensor/" + file;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "cannot open " << path;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    for (const std::string& call : {std::string("rec::Record("), std::string("rec::RecordElementwise(")}) {
      size_t pos = 0;
      while ((pos = text.find(call, pos)) != std::string::npos) {
        pos += call.size();
        // Skip whitespace/newlines up to the opening quote of the name.
        while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\n')) ++pos;
        ASSERT_LT(pos, text.size());
        ASSERT_EQ(text[pos], '"') << "unparsable " << call << " in " << file;
        const size_t end = text.find('"', pos + 1);
        ASSERT_NE(end, std::string::npos);
        names->insert(text.substr(pos + 1, end - pos - 1));
        pos = end;
      }
    }
  }
}

TEST(PlanCoverageTest, EveryRegisteredOpIsReplayableOrAccountedFor) {
  std::set<std::string> recorded;
  ASSERT_NO_FATAL_FAILURE(RecordedOpNamesFromSources(&recorded));
  ASSERT_FALSE(recorded.empty());

  // Everything recorded must be a registered op (no stray tape names).
  for (const std::string& name : recorded) {
    EXPECT_TRUE(tensor::IsRegisteredOp(name)) << "recorded but unregistered op: " << name;
  }

  for (const std::string& name : tensor::RegisteredOpNames()) {
    if (recorded.count(name) > 0) continue;
    if (EagerOnlyOps().count(name) > 0) continue;
    const auto composite = CompositeOps().find(name);
    ASSERT_NE(composite, CompositeOps().end())
        << "op '" << name << "' is registered but neither records a tape entry, nor is listed "
        << "as a composite or eager-only op — plans silently skip it";
    for (const std::string& part : composite->second) {
      EXPECT_TRUE(recorded.count(part) > 0)
          << "composite op '" << name << "' lowers to '" << part << "', which does not record";
    }
  }

  // The maps must not rot: a composite/eager-only entry for an op that now
  // records (or left the registry) is stale.
  for (const auto& [name, parts] : CompositeOps()) {
    EXPECT_TRUE(tensor::IsRegisteredOp(name)) << "stale composite entry: " << name;
    EXPECT_EQ(recorded.count(name), 0u) << "composite op '" << name << "' now records directly";
  }
  for (const std::string& name : EagerOnlyOps()) {
    EXPECT_TRUE(tensor::IsRegisteredOp(name)) << "stale eager-only entry: " << name;
    EXPECT_EQ(recorded.count(name), 0u) << "eager-only op '" << name << "' now records";
  }
}

// ---------------------------------------------------------------------------
// Runtime differential: record → mutate → replay ≡ eager rebuild, per op case.
// ---------------------------------------------------------------------------

void ExpectBitwiseEqual(const std::vector<float>& a, const std::vector<float>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    uint32_t ab = 0, bb = 0;
    std::memcpy(&ab, &a[i], sizeof(ab));
    std::memcpy(&bb, &b[i], sizeof(bb));
    ASSERT_EQ(ab, bb) << what << " diverges at flat index " << i << " (" << a[i] << " vs " << b[i]
                      << ")";
  }
}

// Scale every leaf value by 1.5: preserves sign, positivity (Log inputs), and
// pairwise distinctness (SegmentMaxRows inputs), so every case stays in its
// op's valid domain while all values change.
void MutateLeaves(std::vector<Tensor>* inputs) {
  for (Tensor& t : *inputs) {
    for (float& v : *t.mutable_values()) v *= 1.5f;
  }
}

std::vector<float> LeafGrads(const std::vector<Tensor>& inputs) {
  std::vector<float> out;
  for (const Tensor& t : inputs) {
    if (!t.requires_grad()) continue;
    for (int r = 0; r < t.rows(); ++r) {
      for (int c = 0; c < t.cols(); ++c) out.push_back(t.GradAt(r, c));
    }
  }
  return out;
}

TEST(PlanCoverageTest, EveryOpCaseReplaysBitwiseEqualAfterValueMutation) {
  const std::vector<OpCase> cases = MakeOpCases(kSeed, /*include_large=*/false);
  ASSERT_FALSE(cases.empty());

  // The case registry itself must span the registry minus eager-only ops,
  // otherwise this differential proves less than it claims.
  std::set<std::string> covered;
  for (const OpCase& c : cases) covered.insert(c.op);
  for (const std::string& name : tensor::RegisteredOpNames()) {
    if (EagerOnlyOps().count(name) > 0) continue;
    EXPECT_TRUE(covered.count(name) > 0) << "no op harness case for replayable op " << name;
  }

  for (const OpCase& c : cases) {
    SCOPED_TRACE(c.op + " [" + c.variant + "]");
    const uint64_t value_seed = kSeed ^ std::hash<std::string>{}(c.op + c.variant);

    // Planned path: record one run, mutate leaves, replay.
    util::Rng rng(value_seed);
    std::vector<Tensor> inputs = c.make_inputs(rng);
    plan::PlanSession session;
    Tensor y;
    Tensor loss;
    {
      plan::PlanSession::RecordScope record(&session);
      y = c.forward(inputs);
      loss = tensor::Sum(y);
    }
    loss.Backward();
    session.Seal(loss);
    ASSERT_TRUE(session.sealed());

    MutateLeaves(&inputs);
    for (Tensor& t : inputs) t.ZeroGrad();
    ASSERT_TRUE(session.Replay());

    // Eager reference: identical leaf values, fresh graph.
    util::Rng ref_rng(value_seed);
    std::vector<Tensor> ref_inputs = c.make_inputs(ref_rng);
    MutateLeaves(&ref_inputs);
    Tensor ref_y = c.forward(ref_inputs);
    Tensor ref_loss = tensor::Sum(ref_y);
    ref_loss.Backward();

    ExpectBitwiseEqual(y.values(), ref_y.values(), "forward values");
    ExpectBitwiseEqual(loss.values(), ref_loss.values(), "loss");
    ExpectBitwiseEqual(LeafGrads(inputs), LeafGrads(ref_inputs), "leaf gradients");

    // Replay is idempotent at fixed inputs.
    const std::vector<float> first = y.values();
    for (Tensor& t : inputs) t.ZeroGrad();
    ASSERT_TRUE(session.Replay());
    ExpectBitwiseEqual(y.values(), first, "second replay");
    ExpectBitwiseEqual(LeafGrads(inputs), LeafGrads(ref_inputs), "second replay gradients");

    ref_loss.ReleaseTape();
  }
}

}  // namespace
}  // namespace revelio::proptest
