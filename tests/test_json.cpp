// JsonWriter output rules, and every JSON producer carrying a hostile name
// (quotes, backslashes, control bytes, UTF-8) through to a document that
// parses back to the same bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/fairness_drift.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/slo.hpp"
#include "util/json.hpp"

namespace midrr {
namespace {

TEST(JsonWriter, PlacesCommasAndPrintsNumbersExactly) {
  JsonWriter w;
  w.begin_object()
      .field("u64", std::numeric_limits<std::uint64_t>::max())
      .field("i64", std::numeric_limits<std::int64_t>::min())
      .field("half", 0.5)
      .field("nan", std::numeric_limits<double>::quiet_NaN())
      .field("inf", std::numeric_limits<double>::infinity())
      .field("flag", true)
      .key("list")
      .begin_array()
      .begin_array()
      .end_array()
      .begin_object()
      .end_object()
      .value("x")
      .end_array()
      .end_object();
  EXPECT_EQ(w.str(),
            "{\"u64\":18446744073709551615,\"i64\":-9223372036854775808,"
            "\"half\":0.5,\"nan\":null,\"inf\":null,\"flag\":true,"
            "\"list\":[[],{},\"x\"]}");
}

const std::string kHostile = "q\"b\\s\nc\x01 \xc3\xbc\xe2\x82\xac";

TEST(HostileNames, EveryProducerRoundTripsTheNameByteForByte) {
  telemetry::FairnessSample sample;
  sample.flows.resize(1);
  sample.flows[0].id = 0;
  sample.flows[0].name = kHostile;
  const JsonValue flows = JsonValue::parse(
      telemetry::flows_json(sample, telemetry::DriftReport{}));
  EXPECT_EQ(flows.find("flows")->as_array()[0].find("name")->as_string(),
            kHostile);

  const telemetry::SloEngine slo({{kHostile, kMillisecond}}, 1);
  const JsonValue slo_doc = JsonValue::parse(slo.json(0));
  EXPECT_EQ(slo_doc.find("slos")->as_array()[0].find("class")->as_string(),
            kHostile);

  telemetry::FlightRecorder recorder(4);
  recorder.add_writer(kHostile).log(1, telemetry::FlightCategory::kRuntime,
                                    telemetry::FlightCode::kNote);
  const JsonValue dump = JsonValue::parse(recorder.dump_json(kHostile, 2));
  EXPECT_EQ(dump.find("reason")->as_string(), kHostile);
  EXPECT_EQ(dump.find("writers")->as_array()[0].as_string(), kHostile);
  EXPECT_EQ(dump.find("events")->as_array()[0].find("writer")->as_string(),
            kHostile);

  telemetry::ChromeTraceBuilder trace;
  trace.set_process_name(1, kHostile);
  trace.add_instant(1, 0, kHostile, 0);
  trace.add_counter(1, kHostile, 0, 1.0);
  const JsonValue trace_doc = JsonValue::parse(trace.json());
  const auto& events = trace_doc.find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].find("args")->find("name")->as_string(), kHostile);
  EXPECT_EQ(events[1].find("name")->as_string(), kHostile);
  EXPECT_EQ(events[2].find("name")->as_string(), kHostile);

  fault::FaultPlan plan;
  plan.observed.push_back({kMillisecond, kHostile});
  const std::string plan_json = plan.to_json();
  EXPECT_EQ(JsonValue::parse(plan_json)
                .find("observed")
                ->as_array()[0]
                .find("note")
                ->as_string(),
            kHostile);
  EXPECT_EQ(fault::FaultPlan::parse_json(plan_json).observed[0].note,
            kHostile);
}

}  // namespace
}  // namespace midrr
