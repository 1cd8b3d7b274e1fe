// FlightRecorder: ring retention, merged-timeline ordering, JSON dumps,
// and the async-signal-safe fatal path.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/flight_recorder.hpp"
#include "util/json.hpp"

namespace {

using midrr::JsonValue;
using midrr::telemetry::FlightCategory;
using midrr::telemetry::FlightCode;
using midrr::telemetry::FlightEvent;
using midrr::telemetry::FlightLog;
using midrr::telemetry::FlightRecorder;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(FlightLog, RetainsOnlyTheLastCapacityEvents) {
  FlightRecorder recorder(/*per_writer_capacity=*/4);
  FlightLog& log = recorder.add_writer("w");
  for (std::uint64_t i = 0; i < 10; ++i) {
    log.log(i, FlightCategory::kRuntime, FlightCode::kNote, i);
  }
  EXPECT_EQ(log.logged(), 10u);
  EXPECT_EQ(recorder.events_logged(), 10u);
  const std::vector<FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The surviving window is the most recent one, in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 6 + i);
  }
}

TEST(FlightRecorder, MergesWritersIntoOneMonotonicTimeline) {
  FlightRecorder recorder(8);
  FlightLog& a = recorder.add_writer("alpha");
  FlightLog& b = recorder.add_writer("beta");
  // Interleaved wall-clock order, logged out of order across writers.
  a.log(10, FlightCategory::kRuntime, FlightCode::kWorkerStart, 0);
  b.log(5, FlightCategory::kIo, FlightCode::kIoPushback, 2, 1);
  a.log(30, FlightCategory::kRuntime, FlightCode::kWorkerExit, 0);
  b.log(20, FlightCategory::kSupervisor, FlightCode::kLinkDead, 1);
  const std::vector<FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].t_ns, events[i].t_ns) << "merge must sort";
  }
  EXPECT_EQ(events.front().t_ns, 5u);
  EXPECT_EQ(events.front().writer, b.id());
  EXPECT_EQ(events.back().t_ns, 30u);
  EXPECT_EQ(events.back().writer, a.id());
}

TEST(FlightRecorder, DumpJsonCarriesReasonWritersAndEvents) {
  FlightRecorder recorder(8);
  FlightLog& log = recorder.add_writer("worker0");
  log.log(42, FlightCategory::kHealth, FlightCode::kHealthDegraded, 7, 9);
  const JsonValue doc = JsonValue::parse(recorder.dump_json("unit test", 1000));
  EXPECT_EQ(doc.find("reason")->as_string(), "unit test");
  EXPECT_EQ(doc.find("dumped_at_ns")->as_number(), 1000);
  ASSERT_EQ(doc.find("writers")->as_array().size(), 1u);
  EXPECT_EQ(doc.find("writers")->as_array()[0].as_string(), "worker0");
  ASSERT_EQ(doc.find("events")->as_array().size(), 1u);
  const JsonValue& event = doc.find("events")->as_array()[0];
  EXPECT_EQ(event.find("t_ns")->as_number(), 42);
  EXPECT_EQ(event.find("writer")->as_string(), "worker0");
  EXPECT_EQ(event.find("category")->as_string(), "health");
  EXPECT_EQ(event.find("code")->as_string(), "health_degraded");
  EXPECT_EQ(event.find("a")->as_number(), 7);
  EXPECT_EQ(event.find("b")->as_number(), 9);

  const std::string path = ::testing::TempDir() + "flight_dump_test.json";
  EXPECT_TRUE(recorder.dump_to_file(path, "to disk", 2000));
  EXPECT_EQ(recorder.dumps(), 1u);
  EXPECT_EQ(JsonValue::parse(read_file(path)).find("reason")->as_string(),
            "to disk");
  std::remove(path.c_str());
  EXPECT_FALSE(recorder.dump_to_file("/nonexistent-dir/x.json", "r", 0));
}

TEST(FlightRecorder, SignalDumpIsWrittenWithWriteOnly) {
  // Exercise the handler body directly: it must produce valid output with
  // nothing but write(2) on a plain fd.
  FlightRecorder recorder(8);
  FlightLog& log = recorder.add_writer("w");
  log.log(7, FlightCategory::kFault, FlightCode::kFaultScale, 1, 500);
  const std::string path = ::testing::TempDir() + "flight_signal_test.json";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  ASSERT_GE(fd, 0);
  recorder.write_signal_dump(fd, SIGSEGV);
  ::close(fd);
  const JsonValue dump = JsonValue::parse(read_file(path));
  EXPECT_EQ(dump.find("signal")->as_number(), 11);
  ASSERT_EQ(dump.find("events")->as_array().size(), 1u);
  EXPECT_EQ(dump.find("events")->as_array()[0].find("t_ns")->as_number(), 7);
  std::remove(path.c_str());
}

TEST(FlightRecorderDeathTest, FatalSignalProducesPostMortem) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = ::testing::TempDir() + "flight_fatal_test.json";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        FlightRecorder recorder(8);
        FlightLog& log = recorder.add_writer("doomed");
        log.log(123, FlightCategory::kRuntime, FlightCode::kNote, 1, 2);
        if (!recorder.arm_fatal_dump(path)) _exit(97);
        std::raise(SIGABRT);
      },
      "");
  // The child died by the re-raised signal; its handler must have flushed
  // the post-mortem via write(2) before dying.
  ASSERT_TRUE(std::ifstream(path).good()) << "fatal dump missing at " << path;
  const JsonValue dump = JsonValue::parse(read_file(path));
  ASSERT_EQ(dump.find("events")->as_array().size(), 1u);
  EXPECT_EQ(dump.find("events")->as_array()[0].find("t_ns")->as_number(), 123);
  std::remove(path.c_str());
}

}  // namespace
