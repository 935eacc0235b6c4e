#include "obs/recorder.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/flags.h"

namespace revelio::obs {

namespace {

constexpr int kFlightShards = 16;
constexpr size_t kDefaultCapacity = size_t{1} << 16;

size_t EnvCapacity() {
  const char* env = std::getenv("REVELIO_FLIGHT_CAPACITY");
  if (env == nullptr) return kDefaultCapacity;
  const long parsed = std::strtol(env, nullptr, 10);
  if (parsed <= 0) return kDefaultCapacity;
  return static_cast<size_t>(parsed);
}

std::atomic<bool>& FlightFlag() {
  static std::atomic<bool> flag(util::EnvFlag("REVELIO_FLIGHT_RECORDER", true));
  return flag;
}

// Round up to a power of two so the ring index is a mask, not a modulo.
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

struct DumpState {
  std::mutex mu;
  std::string path;  // guarded by mu
};

DumpState& Dump() {
  static DumpState* state = new DumpState();
  return *state;
}

extern "C" void FlightCrashHandler(int signum) {
  // Best effort: restore the default action first so a second fault (or the
  // re-raise below) terminates instead of recursing.
  std::signal(signum, SIG_DFL);
  DumpFlightRecord();
  std::raise(signum);
}

}  // namespace

// One cache-line-padded ring per shard. Every field of a slot is a relaxed
// atomic: concurrent writers own distinct claimed slots, and a concurrent
// reader sees either a complete record or a torn one it can discard via the
// per-slot seq stamp — never a data race.
struct FlightRecorder::Shard {
  struct Slot {
    std::atomic<uint64_t> seq{0};  // 0 = never written; else claim index + 1
    std::atomic<const char*> name{nullptr};
    std::atomic<double> t_us{0.0};
    std::atomic<double> value{0.0};
    std::atomic<uint8_t> kind{0};
    std::atomic<int> tid{0};
  };
  alignas(64) std::atomic<uint64_t> cursor{0};
  std::unique_ptr<Slot[]> slots;
  size_t mask = 0;
};

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::FlightRecorder() {
  shard_capacity_ = RoundUpPow2(std::max<size_t>(1, EnvCapacity() / kFlightShards));
  shards_ = new Shard[kFlightShards];
  for (int s = 0; s < kFlightShards; ++s) {
    shards_[s].slots = std::make_unique<Shard::Slot[]>(shard_capacity_);
    shards_[s].mask = shard_capacity_ - 1;
  }
  const char* env = std::getenv("REVELIO_FLIGHT_DUMP");
  if (env != nullptr && env[0] != '\0') {
    SetDumpPath(env);
    InstallCrashHandler();
  }
}

bool FlightEnabled() { return FlightFlag().load(std::memory_order_relaxed); }

void SetFlightEnabled(bool enabled) {
  FlightFlag().store(enabled, std::memory_order_relaxed);
}

const char* InternFlightName(const std::string& name) {
  static std::mutex mu;
  // Keys own the storage; node-based map keeps c_str() pointers stable.
  static std::map<std::string, bool>* interned = new std::map<std::string, bool>();
  std::lock_guard<std::mutex> lock(mu);
  return (*interned).emplace(name, true).first->first.c_str();
}

void FlightRecorder::Record(FlightEventKind kind, const char* name, double value) {
  if (!FlightEnabled()) return;
  const int tid = internal::ThisThreadShard();
  Shard& shard = shards_[tid & (kFlightShards - 1)];
  const uint64_t claim = shard.cursor.fetch_add(1, std::memory_order_relaxed);
  Shard::Slot& slot = shard.slots[claim & shard.mask];
  // seq is stamped last so a reader that sees the new seq has a good chance
  // of seeing the matching payload; a torn record only surfaces when a dump
  // races the writer on this exact slot.
  slot.name.store(name, std::memory_order_relaxed);
  slot.t_us.store(TraceRecorder::NowMicros(), std::memory_order_relaxed);
  slot.value.store(value, std::memory_order_relaxed);
  slot.kind.store(static_cast<uint8_t>(kind), std::memory_order_relaxed);
  slot.tid.store(tid, std::memory_order_relaxed);
  slot.seq.store(claim + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Collect() const {
  std::vector<FlightEvent> events;
  events.reserve(std::min<size_t>(total_recorded(), capacity()));
  for (int s = 0; s < kFlightShards; ++s) {
    const Shard& shard = shards_[s];
    const uint64_t cursor = shard.cursor.load(std::memory_order_acquire);
    const uint64_t retained = std::min<uint64_t>(cursor, shard_capacity_);
    for (uint64_t i = cursor - retained; i < cursor; ++i) {
      const Shard::Slot& slot = shard.slots[i & shard.mask];
      const uint64_t seq = slot.seq.load(std::memory_order_acquire);
      // Discard never-written and visibly-torn slots (a writer lapped us).
      if (seq == 0 || seq != i + 1) continue;
      FlightEvent event;
      event.seq = seq - 1;
      event.kind = static_cast<FlightEventKind>(slot.kind.load(std::memory_order_relaxed));
      event.name = slot.name.load(std::memory_order_relaxed);
      event.t_us = slot.t_us.load(std::memory_order_relaxed);
      event.value = slot.value.load(std::memory_order_relaxed);
      event.tid = slot.tid.load(std::memory_order_relaxed);
      // Re-check the stamp: a writer that lapped us mid-read left a mix of
      // old and new fields, which the second load exposes.
      if (slot.seq.load(std::memory_order_acquire) != seq) continue;
      if (event.name == nullptr) continue;
      events.push_back(event);
    }
  }
  std::sort(events.begin(), events.end(), [](const FlightEvent& a, const FlightEvent& b) {
    if (a.t_us != b.t_us) return a.t_us < b.t_us;
    return a.seq < b.seq;
  });
  return events;
}

size_t FlightRecorder::capacity() const {
  return shard_capacity_ * static_cast<size_t>(kFlightShards);
}

uint64_t FlightRecorder::total_recorded() const {
  uint64_t total = 0;
  for (int s = 0; s < kFlightShards; ++s) {
    total += shards_[s].cursor.load(std::memory_order_relaxed);
  }
  return total;
}

void FlightRecorder::Clear() {
  for (int s = 0; s < kFlightShards; ++s) {
    Shard& shard = shards_[s];
    for (size_t i = 0; i < shard_capacity_; ++i) {
      shard.slots[i].seq.store(0, std::memory_order_relaxed);
    }
    shard.cursor.store(0, std::memory_order_relaxed);
  }
}

void FlightRecorder::AppendChromeTrace(JsonWriter* writer) const {
  const std::vector<FlightEvent> events = Collect();
  writer->BeginObject();
  writer->Key("displayTimeUnit");
  writer->String("ms");
  writer->Key("otherData");
  writer->BeginObject();
  writer->Key("source");
  writer->String("revelio-flight-recorder");
  writer->Key("capacity");
  writer->Uint(capacity());
  writer->Key("total_recorded");
  writer->Uint(total_recorded());
  writer->EndObject();
  writer->Key("traceEvents");
  writer->BeginArray();
  for (const FlightEvent& event : events) {
    writer->BeginObject();
    writer->Key("name");
    writer->String(event.name);
    writer->Key("cat");
    writer->String("flight");
    writer->Key("ph");
    switch (event.kind) {
      case FlightEventKind::kSpanBegin:
        writer->String("B");
        break;
      case FlightEventKind::kSpanEnd:
        writer->String("E");
        break;
      case FlightEventKind::kCounterDelta:
        writer->String("C");
        break;
      case FlightEventKind::kPoolHighWater:
      case FlightEventKind::kPhase:
        writer->String("i");
        break;
    }
    writer->Key("ts");
    writer->Double(event.t_us);
    writer->Key("pid");
    writer->Int(0);
    writer->Key("tid");
    writer->Int(event.tid);
    if (event.kind == FlightEventKind::kCounterDelta) {
      writer->Key("args");
      writer->BeginObject();
      writer->Key("delta");
      writer->Double(event.value);
      writer->EndObject();
    } else if (event.kind == FlightEventKind::kPoolHighWater) {
      writer->Key("s");
      writer->String("t");  // thread-scoped instant
      writer->Key("args");
      writer->BeginObject();
      writer->Key("bytes_peak");
      writer->Double(event.value);
      writer->EndObject();
    } else if (event.kind == FlightEventKind::kPhase) {
      writer->Key("s");
      writer->String("g");  // global instant
    }
    writer->Key("args_seq");
    writer->Uint(event.seq);
    writer->EndObject();
  }
  writer->EndArray();
  writer->EndObject();
}

bool FlightRecorder::WriteChromeTrace(const std::string& path) const {
  JsonWriter writer;
  AppendChromeTrace(&writer);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string& doc = writer.str();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

void FlightRecorder::SetDumpPath(const std::string& path) {
  std::lock_guard<std::mutex> lock(Dump().mu);
  Dump().path = path;
}

std::string FlightRecorder::dump_path() const {
  std::lock_guard<std::mutex> lock(Dump().mu);
  return Dump().path;
}

void InstallCrashHandler() {
  static std::once_flag once;
  std::call_once(once, [] {
    std::signal(SIGABRT, FlightCrashHandler);
    std::signal(SIGSEGV, FlightCrashHandler);
  });
}

bool DumpFlightRecord() {
  const std::string path = FlightRecorder::Global().dump_path();
  if (path.empty()) return false;
  return FlightRecorder::Global().WriteChromeTrace(path);
}

}  // namespace revelio::obs
