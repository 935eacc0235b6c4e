// Tests for the util substrate: RNG, flags, status, tables, timer, logging.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <gtest/gtest.h>

#include "util/flags.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace revelio::util {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
  bool any_diff = false;
  Rng a2(123);
  for (int i = 0; i < 16; ++i) any_diff |= (a2.NextUint64() != c.NextUint64());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double total = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    total += u;
  }
  EXPECT_NEAR(total / 10000, 0.5, 0.02);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(9);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[rng.UniformInt(5)];
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(11);
  double mean = 0.0, var = 0.0;
  const int n = 20000;
  std::vector<double> samples(n);
  for (auto& s : samples) s = rng.Normal();
  for (double s : samples) mean += s;
  mean /= n;
  for (double s : samples) var += (s - mean) * (s - mean);
  var /= n;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
  EXPECT_NEAR(rng.Normal(10.0, 0.0), 10.0, 1e-12);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, WeightedIndexProportions) {
  Rng rng(15);
  std::vector<double> weights = {1.0, 3.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[1] / 8000.0, 0.75, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> values(50);
  for (int i = 0; i < 50; ++i) values[i] = i;
  rng.Shuffle(&values);
  std::vector<int> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  const auto sample = rng.SampleWithoutReplacement(20, 8);
  EXPECT_EQ(sample.size(), 8u);
  std::vector<char> seen(20, 0);
  for (int s : sample) {
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 20);
    EXPECT_FALSE(seen[s]);
    seen[s] = 1;
  }
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
}

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"positional", "--alpha=0.5", "--epochs", "20",
                        "--name",     "revelio",     "--on"};
  // argv[0] is the program name; a bare leading token is positional.
  const char* argv_full[] = {"prog",    "positional", "--alpha=0.5", "--epochs",
                             "20",      "--name",     "revelio",     "--on"};
  (void)argv;
  Flags flags(8, const_cast<char**>(argv_full));
  EXPECT_NEAR(flags.GetDouble("alpha", 0.0), 0.5, 1e-12);
  EXPECT_EQ(flags.GetInt("epochs", 0), 20);
  EXPECT_TRUE(flags.GetBool("on", false)) << "trailing bool flag";
  EXPECT_EQ(flags.GetString("name", ""), "revelio");
  EXPECT_EQ(flags.GetString("missing", "fallback"), "fallback");
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
  EXPECT_TRUE(flags.Has("alpha"));
  EXPECT_FALSE(flags.Has("beta"));
}

TEST(FlagsTest, SpaceFormGreedilyConsumesNextToken) {
  // Documented behavior: `--flag value` binds the next non-flag token, so a
  // boolean flag followed by a positional must use `--flag=true` instead.
  const char* argv[] = {"prog", "--verbose", "positional"};
  Flags flags(3, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetString("verbose", ""), "positional");
  EXPECT_TRUE(flags.positional().empty());
}

TEST(FlagsTest, EnvFlagParsesBooleanToggles) {
  constexpr char kName[] = "REVELIO_UTIL_TEST_ENV_FLAG";
  unsetenv(kName);
  EXPECT_TRUE(EnvFlag(kName, true));  // unset: fallback
  EXPECT_FALSE(EnvFlag(kName, false));
  setenv(kName, "", 1);
  EXPECT_TRUE(EnvFlag(kName, true));  // empty: fallback
  EXPECT_FALSE(EnvFlag(kName, false));
  for (const char* off : {"0", "false", "off"}) {
    setenv(kName, off, 1);
    EXPECT_FALSE(EnvFlag(kName, true)) << off;
    EXPECT_FALSE(EnvFlag(kName, false)) << off;
  }
  for (const char* on : {"1", "true", "on", "yes", "2"}) {
    setenv(kName, on, 1);
    EXPECT_TRUE(EnvFlag(kName, true)) << on;
    EXPECT_TRUE(EnvFlag(kName, false)) << on;
  }
  unsetenv(kName);
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "Ok");
  const Status error = Status::InvalidArgument("bad k");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(error.ToString(), "InvalidArgument: bad k");
  EXPECT_EQ(std::string(StatusCodeName(StatusCode::kNotFound)), "NotFound");
}

TEST(StatusTest, StatusOrHoldsValueOrError) {
  StatusOr<int> ok_value(42);
  EXPECT_TRUE(ok_value.ok());
  EXPECT_EQ(ok_value.value(), 42);
  StatusOr<int> error(Status::NotFound("missing"));
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kNotFound);
}

TEST(TablePrinterTest, AlignsAndFormats) {
  TablePrinter table({"a", "bbb"});
  table.AddRow({"x", "1"});
  table.AddRow({"long", "2"});
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("| a    | bbb |"), std::string::npos);
  EXPECT_NE(rendered.find("| long | 2   |"), std::string::npos);
  EXPECT_EQ(TablePrinter::FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::FormatDouble(std::nan(""), 2), "-");
}

TEST(TablePrinterTest, CsvRoundTrip) {
  const std::string path = ::testing::TempDir() + "/revelio_test.csv";
  ASSERT_TRUE(WriteCsv(path, {"h1", "h2"}, {{"1", "2"}, {"3", "4"}}));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "h1,h2");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
}

TEST(TimerTest, MeasuresElapsed) {
  Timer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink += i;
  const double after_work = timer.ElapsedSeconds();
  EXPECT_GT(after_work, 0.0);
  // Steady-clock monotonicity: a later reading never decreases.
  EXPECT_GE(timer.ElapsedSeconds(), after_work);

  // Reset rebases the epoch. Checked against a reference timer constructed
  // BEFORE the Reset: the reset timer's epoch is later, so reading it first
  // must give the smaller value. This ordering holds under arbitrary
  // scheduler stalls, unlike an absolute wall-clock bound.
  Timer reference;
  timer.Reset();
  const double reset_reading = timer.ElapsedSeconds();     // read first
  const double reference_reading = reference.ElapsedSeconds();
  EXPECT_LE(reset_reading, reference_reading);
}

TEST(LoggingTest, LevelGate) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  LOG_INFO << "suppressed";  // must not crash
  SetLogLevel(original);
}

TEST(CheckDeathTest, FailedCheckAborts) {
  EXPECT_DEATH({ CHECK(1 == 2) << "boom"; }, "CHECK failed");
  EXPECT_DEATH({ CHECK_EQ(3, 4); }, "3 vs 4");
}

}  // namespace
}  // namespace revelio::util
