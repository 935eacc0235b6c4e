// Flight-recorder tests: bounded memory across wraps, capacity respected
// under 16-thread write contention, the disabled no-op contract, name
// interning, Chrome-trace export parsed back for well-formedness, and the
// crash-dump path (a death test raises SIGABRT and the parent verifies the
// dump the handler left behind).

#include "obs/recorder.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"

namespace revelio {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string TempPath(const char* name) { return ::testing::TempDir() + "/" + name; }

// Every test starts from an empty ring with recording on, and leaves the
// global switch the way the process default had it (on).
class RecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetFlightEnabled(true);
    obs::FlightRecorder::Global().Clear();
  }
  void TearDown() override {
    obs::SetFlightEnabled(true);
    obs::FlightRecorder::Global().Clear();
  }
};

TEST_F(RecorderTest, RecordsAreCollectable) {
  obs::RecordPhase("test.phase.a");
  obs::RecordFlightEvent(obs::FlightEventKind::kCounterDelta, "test.counter", 3.0);
  const std::vector<obs::FlightEvent> events = obs::FlightRecorder::Global().Collect();
  ASSERT_EQ(events.size(), 2u);
  bool saw_phase = false;
  bool saw_counter = false;
  for (const obs::FlightEvent& event : events) {
    if (std::string(event.name) == "test.phase.a") {
      saw_phase = true;
      EXPECT_EQ(event.kind, obs::FlightEventKind::kPhase);
    }
    if (std::string(event.name) == "test.counter") {
      saw_counter = true;
      EXPECT_EQ(event.kind, obs::FlightEventKind::kCounterDelta);
      EXPECT_EQ(event.value, 3.0);
    }
  }
  EXPECT_TRUE(saw_phase);
  EXPECT_TRUE(saw_counter);
}

// The ring's memory bound: recording far more events than the capacity must
// retain at most `capacity()` of them while total_recorded keeps counting.
TEST_F(RecorderTest, WrapKeepsMemoryBounded) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const size_t capacity = recorder.capacity();
  ASSERT_GT(capacity, 0u);
  const size_t to_record = capacity * 2 + 1000;
  for (size_t i = 0; i < to_record; ++i) {
    recorder.Record(obs::FlightEventKind::kPhase, "test.wrap");
  }
  EXPECT_EQ(recorder.total_recorded(), to_record);
  const std::vector<obs::FlightEvent> events = recorder.Collect();
  EXPECT_LE(events.size(), capacity);
  // The single-threaded writer landed on one shard: that shard's whole ring
  // is retained, so the snapshot is non-trivial even after two wraps.
  EXPECT_GE(events.size(), capacity / 32);
  for (const obs::FlightEvent& event : events) {
    EXPECT_STREQ(event.name, "test.wrap");
  }
}

// 16 concurrent writers hammer the ring well past capacity; the retained set
// must stay bounded and every surviving record must be intact.
TEST_F(RecorderTest, SixteenThreadContentionStaysBounded) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const size_t capacity = recorder.capacity();
  constexpr int kThreads = 16;
  const size_t per_thread = capacity / 4 + 257;  // total ~4x capacity
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([per_thread, t] {
      for (size_t i = 0; i < per_thread; ++i) {
        obs::FlightRecorder::Global().Record(obs::FlightEventKind::kCounterDelta,
                                             "test.contention", static_cast<double>(t));
      }
    });
  }
  for (std::thread& writer : writers) writer.join();

  EXPECT_EQ(recorder.total_recorded(), static_cast<uint64_t>(kThreads) * per_thread);
  const std::vector<obs::FlightEvent> events = recorder.Collect();
  EXPECT_LE(events.size(), capacity);
  EXPECT_GT(events.size(), 0u);
  for (const obs::FlightEvent& event : events) {
    ASSERT_NE(event.name, nullptr);
    EXPECT_STREQ(event.name, "test.contention");
    EXPECT_GE(event.value, 0.0);
    EXPECT_LT(event.value, static_cast<double>(kThreads));
  }
}

TEST_F(RecorderTest, DisabledRecordingIsANoOp) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  obs::SetFlightEnabled(false);
  EXPECT_FALSE(obs::FlightEnabled());
  const uint64_t before = recorder.total_recorded();
  for (int i = 0; i < 1000; ++i) {
    obs::RecordPhase("test.disabled");
    recorder.Record(obs::FlightEventKind::kSpanBegin, "test.disabled.direct");
  }
  EXPECT_EQ(recorder.total_recorded(), before);
  EXPECT_TRUE(recorder.Collect().empty());
  obs::SetFlightEnabled(true);
  obs::RecordPhase("test.reenabled");
  EXPECT_EQ(recorder.total_recorded(), before + 1);
}

TEST_F(RecorderTest, InternedNamesAreStable) {
  const char* a = obs::InternFlightName("test.intern.name");
  const char* b = obs::InternFlightName(std::string("test.intern.") + "name");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "test.intern.name");
  const char* other = obs::InternFlightName("test.intern.other");
  EXPECT_NE(a, other);
}

TEST_F(RecorderTest, ClearDropsRetainedEvents) {
  obs::RecordPhase("test.clear");
  ASSERT_FALSE(obs::FlightRecorder::Global().Collect().empty());
  obs::FlightRecorder::Global().Clear();
  EXPECT_TRUE(obs::FlightRecorder::Global().Collect().empty());
  EXPECT_EQ(obs::FlightRecorder::Global().total_recorded(), 0u);
}

TEST_F(RecorderTest, ChromeTraceExportParsesBack) {
  obs::RecordFlightEvent(obs::FlightEventKind::kSpanBegin, "test.trace.span");
  obs::RecordFlightEvent(obs::FlightEventKind::kSpanEnd, "test.trace.span", 12.5);
  obs::RecordFlightEvent(obs::FlightEventKind::kCounterDelta, "test.trace.counter", 2.0);
  obs::RecordPhase("test.trace.phase");

  const std::string path = TempPath("flight_export.json");
  ASSERT_TRUE(obs::FlightRecorder::Global().WriteChromeTrace(path));
  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(ReadFile(path), &root, &error)) << error;

  const obs::JsonValue* other = root.Find("otherData");
  ASSERT_NE(other, nullptr);
  ASSERT_NE(other->Find("capacity"), nullptr);
  EXPECT_EQ(other->Find("capacity")->number_value,
            static_cast<double>(obs::FlightRecorder::Global().capacity()));
  ASSERT_NE(other->Find("total_recorded"), nullptr);
  EXPECT_EQ(other->Find("total_recorded")->number_value, 4.0);

  const obs::JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array_items.size(), 4u);
  std::set<std::string> phases;
  for (const obs::JsonValue& event : events->array_items) {
    ASSERT_TRUE(event.is_object());
    ASSERT_NE(event.Find("name"), nullptr);
    ASSERT_NE(event.Find("ph"), nullptr);
    ASSERT_NE(event.Find("ts"), nullptr);
    ASSERT_NE(event.Find("tid"), nullptr);
    const std::string name = event.Find("name")->string_value;
    const std::string ph = event.Find("ph")->string_value;
    phases.insert(ph);
    if (name == "test.trace.counter") {
      EXPECT_EQ(ph, "C");
      ASSERT_NE(event.Find("args"), nullptr);
      EXPECT_EQ(event.Find("args")->Find("delta")->number_value, 2.0);
    }
  }
  EXPECT_TRUE(phases.count("B"));
  EXPECT_TRUE(phases.count("E"));
  EXPECT_TRUE(phases.count("C"));
  EXPECT_TRUE(phases.count("i"));
  std::remove(path.c_str());
}

TEST_F(RecorderTest, DumpWithoutPathReportsFalse) {
  obs::FlightRecorder::Global().SetDumpPath("");
  EXPECT_FALSE(obs::DumpFlightRecord());
}

using RecorderDeathTest = RecorderTest;

// The crash path end to end: the death-test child arms the handler, records
// a few events, and aborts; the handler must leave a parseable Chrome trace
// at the dump path before the default SIGABRT action kills the child.
TEST_F(RecorderDeathTest, CrashHandlerWritesDump) {
  const std::string path = TempPath("flight_crash_dump.json");
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        obs::FlightRecorder::Global().SetDumpPath(path);
        obs::InstallCrashHandler();
        obs::RecordPhase("test.crash.marker");
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT), "");

  obs::JsonValue root;
  std::string error;
  const std::string dumped = ReadFile(path);
  ASSERT_FALSE(dumped.empty()) << "crash handler left no dump at " << path;
  ASSERT_TRUE(obs::ParseJson(dumped, &root, &error)) << error;
  const obs::JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_marker = false;
  for (const obs::JsonValue& event : events->array_items) {
    const obs::JsonValue* name = event.Find("name");
    if (name != nullptr && name->string_value == "test.crash.marker") saw_marker = true;
  }
  EXPECT_TRUE(saw_marker);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace revelio
