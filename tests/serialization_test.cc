// Tests for GNN model save/load: lossless round-trip of trained weights and
// robust failure on malformed files.

#include "gnn/serialization.h"

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "gnn/trainer.h"
#include "tensor/ops.h"

namespace revelio::gnn {
namespace {

GnnConfig SmallConfig(GnnArch arch) {
  GnnConfig config;
  config.arch = arch;
  config.input_dim = 3;
  config.hidden_dim = 8;
  config.num_classes = 2;
  config.seed = 21;
  return config;
}

class SerializationRoundTrip : public ::testing::TestWithParam<GnnArch> {};

TEST_P(SerializationRoundTrip, LogitsIdenticalAfterReload) {
  GnnModel model(SmallConfig(GetParam()));
  // Perturb the weights so we are not just reloading the seeded init.
  util::Rng rng(5);
  for (auto& parameter : model.Parameters()) {
    for (auto& v : *parameter.mutable_values()) v += 0.01f * static_cast<float>(rng.Normal());
  }
  graph::Graph g(4);
  g.AddUndirectedEdge(0, 1);
  g.AddUndirectedEdge(1, 2);
  g.AddUndirectedEdge(2, 3);
  tensor::Tensor x = tensor::Tensor::Randn(4, 3, &rng);
  const tensor::Tensor original = model.Logits(g, x);

  const std::string path = ::testing::TempDir() + "/revelio_model.bin";
  ASSERT_TRUE(SaveModel(model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const tensor::Tensor reloaded = loaded.value()->Logits(g, x);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_EQ(original.At(r, c), reloaded.At(r, c))
          << "hex-float round trip must be bit-exact";
    }
  }
  EXPECT_EQ(loaded.value()->config().arch, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Archs, SerializationRoundTrip,
                         ::testing::Values(GnnArch::kGcn, GnnArch::kGin, GnnArch::kGat));

TEST(SerializationTest, PreservesConfigFlags) {
  GnnConfig config = SmallConfig(GnnArch::kGcn);
  config.gcn_normalize = false;
  config.task = TaskType::kGraphClassification;
  GnnModel model(config);
  const std::string path = ::testing::TempDir() + "/revelio_model2.bin";
  ASSERT_TRUE(SaveModel(model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value()->config().gcn_normalize);
  EXPECT_EQ(loaded.value()->config().task, TaskType::kGraphClassification);
  EXPECT_EQ(loaded.value()->NumParameters(), model.NumParameters());
}

TEST(SerializationTest, RejectsMissingAndMalformedFiles) {
  EXPECT_FALSE(LoadModel("/nonexistent/revelio.bin").ok());
  const std::string path = ::testing::TempDir() + "/revelio_bad.bin";
  {
    std::ofstream out(path);
    out << "not-a-model\n1 2 3\n";
  }
  auto bad_magic = LoadModel(path);
  EXPECT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.status().code(), util::StatusCode::kInvalidArgument);
  {
    std::ofstream out(path);
    out << "revelio-gnn-v1\n0 0 3 8 2 3 8 1 21\n999\n";  // wrong parameter count
  }
  EXPECT_FALSE(LoadModel(path).ok());
  {
    std::ofstream out(path);
    out << "revelio-gnn-v1\n0 0 3 8\n";  // truncated config
  }
  EXPECT_FALSE(LoadModel(path).ok());

  // Configs the model constructors would CHECK-abort on come back as
  // InvalidArgument: arch task input hidden classes layers heads norm seed.
  for (const char* config : {"0 0 0 8 2 3 8 1 21",    // input_dim = 0
                             "0 0 3 -8 2 3 8 1 21",   // hidden_dim < 0
                             "1 0 3 8 0 3 8 1 21",    // no classes
                             "0 0 3 8 2 0 8 1 21",    // no layers
                             "2 0 3 8 2 3 0 1 21",    // GAT without heads
                             "2 0 3 8 2 3 3 1 21"}) {  // GAT hidden % heads != 0
    {
      std::ofstream out(path);
      out << "revelio-gnn-v1\n" << config << "\n";
    }
    auto bad_config = LoadModel(path);
    EXPECT_FALSE(bad_config.ok()) << config;
    EXPECT_EQ(bad_config.status().code(), util::StatusCode::kInvalidArgument) << config;
  }

  // Weight tokens must be finite and fully parsed: corrupt the first value of
  // an otherwise valid file.
  GnnModel model(SmallConfig(GnnArch::kGcn));
  ASSERT_TRUE(SaveModel(model, path).ok());
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  // Header, config and count lines, then "<rows> <cols> <v0> ...".
  size_t pos = 0;
  for (int line = 0; line < 3; ++line) pos = text.find('\n', pos) + 1;
  pos = text.find(' ', text.find(' ', pos) + 1) + 1;
  const size_t end = text.find_first_of(" \n", pos);
  for (const char* token : {"nan", "inf", "-inf", "1.5abc", "1e300"}) {
    {
      std::ofstream out(path);
      out << text.substr(0, pos) << token << text.substr(end);
    }
    auto bad_token = LoadModel(path);
    EXPECT_FALSE(bad_token.ok()) << token;
    EXPECT_EQ(bad_token.status().code(), util::StatusCode::kInvalidArgument) << token;
  }
  {
    std::ofstream out(path);
    out << text;
  }
  EXPECT_TRUE(LoadModel(path).ok());  // the uncorrupted file still loads
}

}  // namespace
}  // namespace revelio::gnn
