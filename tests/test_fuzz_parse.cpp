// Fuzz-style robustness tests: the wire-format parsers must never crash,
// hang or read out of bounds on arbitrary byte soup -- they either parse,
// return nullopt, or throw BufferOverrun.  The JSON reader (and the fault
// plans built on it) either parse or throw, and what JsonWriter prints
// parses back to the same value.  (Deterministic seeds; thousands of
// inputs per shape.)
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/scenario_text.hpp"
#include "fault/fault_plan.hpp"
#include "http/message.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace midrr {
namespace {

net::ByteBuffer random_bytes(Rng& rng, std::size_t max_len) {
  net::ByteBuffer buf(static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len))));
  for (auto& b : buf) {
    b = static_cast<net::Byte>(rng.uniform_int(0, 255));
  }
  return buf;
}

TEST(FuzzParse, RandomBytesNeverCrashFrameParse) {
  Rng rng(0xF00D);
  int parsed = 0;
  int rejected = 0;
  int overrun = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    net::Frame frame(random_bytes(rng, 128));
    try {
      const auto view = frame.parse();
      if (view) {
        ++parsed;
        // A successfully parsed view must be self-consistent.
        EXPECT_LE(view->payload_offset + view->payload_length, frame.size());
        EXPECT_GE(view->l4_offset, view->l3_offset + 20);
      } else {
        ++rejected;
      }
    } catch (const net::BufferOverrun&) {
      ++overrun;
    }
  }
  // Random bytes overwhelmingly fail to parse; the split just documents
  // that all three outcomes occur and none is a crash.
  EXPECT_GT(rejected + overrun, 19'000);
}

TEST(FuzzParse, MutatedValidFramesNeverCrash) {
  Rng rng(0xBEEF);
  const net::Frame valid = net::FrameBuilder()
                               .eth_src(net::MacAddress::local(1))
                               .eth_dst(net::MacAddress::local(2))
                               .ip_src(net::Ipv4Address(10, 0, 0, 1))
                               .ip_dst(net::Ipv4Address(10, 0, 0, 2))
                               .tcp(1000, 2000)
                               .payload_size(64)
                               .build();
  int checksum_caught = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    net::ByteBuffer bytes(valid.bytes().begin(), valid.bytes().end());
    // Flip 1-4 random bytes.
    const auto flips = rng.uniform_int(1, 4);
    for (std::int64_t f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[pos] ^= static_cast<net::Byte>(rng.uniform_int(1, 255));
    }
    net::Frame frame(std::move(bytes));
    try {
      const auto view = frame.parse();
      if (view && !frame.checksums_valid()) ++checksum_caught;
    } catch (const net::BufferOverrun&) {
      // Truncation-style corruption; fine.
    }
  }
  EXPECT_GT(checksum_caught, 1000)
      << "checksums should catch most payload corruption";
}

TEST(FuzzParse, HttpMessagesNeverCrash) {
  Rng rng(0xCAFE);
  const char charset[] =
      "GET /abc HTTP/1.1\r\n: =-0123456789bytes\nRange Content";
  for (int trial = 0; trial < 20'000; ++trial) {
    std::string text;
    const auto len = rng.uniform_int(0, 120);
    for (std::int64_t i = 0; i < len; ++i) {
      text += charset[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sizeof(charset)) - 2))];
    }
    (void)http::HttpRequest::parse(text);
    (void)http::HttpResponse::parse_head(text);
    (void)http::ByteRange::parse_range_header(text);
    (void)http::ByteRange::parse_content_range(text);
  }
  SUCCEED();
}

TEST(FuzzParse, ScenarioTextNeverCrashes) {
  Rng rng(0xD00F);
  const char charset[] =
      "[]=interface flow run rate ifaces source mbps s 0123456789.,:#\n";
  for (int trial = 0; trial < 10'000; ++trial) {
    std::string text;
    const auto len = rng.uniform_int(0, 200);
    for (std::int64_t i = 0; i < len; ++i) {
      text += charset[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sizeof(charset)) - 2))];
    }
    try {
      (void)parse_scenario_text(text);
    } catch (const ScenarioParseError&) {
      // expected for garbage
    } catch (const PreconditionError&) {
      // deep validation (e.g. RateProfile) may fire first; also fine
    }
  }
  SUCCEED();
}

TEST(FuzzParse, PcapReaderNeverCrashes) {
  Rng rng(0xFEED);
  for (int trial = 0; trial < 10'000; ++trial) {
    const auto bytes = random_bytes(rng, 200);
    std::string s(reinterpret_cast<const char*>(bytes.data()), bytes.size());
    std::istringstream in(s);
    (void)net::read_pcap(in);
  }
  SUCCEED();
}

// Every fault kind plus an observed note, so mutations reach every branch
// of the plan schema.
constexpr const char* kEveryKindPlan = R"({"seed": 7, "events": [
  {"at_ms": 100, "kind": "iface_down", "iface": 1},
  {"at_ms": 200, "kind": "iface_up", "iface": 1},
  {"at_ms": 300, "kind": "iface_flap", "iface": 0, "period_ms": 50,
   "duty": 0.5, "duration_ms": 200},
  {"at_ms": 400, "kind": "iface_scale", "iface": 0, "scale": 0.25,
   "duration_ms": 100},
  {"at_ms": 500, "kind": "worker_stall", "worker": 1, "duration_ms": 20},
  {"at_ms": 600, "kind": "ingress_drop", "probability": 0.1,
   "duration_ms": 100},
  {"at_ms": 600, "kind": "ingress_dup", "probability": 0.1,
   "duration_ms": 100},
  {"at_ms": 700, "kind": "ingress_delay", "probability": 0.2,
   "delay_ms": 1.5, "duration_ms": 100},
  {"at_ms": 800, "kind": "pool_exhaust", "duration_ms": 10}],
  "observed": [{"at_ms": 150, "note": "link \"if1\" dead"}]})";

/// Both parsers on one input: each returns or throws its documented
/// error type, nothing else.  True when the text is a valid plan.
bool parse_json_and_plan(const std::string& text) {
  try {
    (void)JsonValue::parse(text);
  } catch (const JsonError&) {
  }
  try {
    (void)fault::FaultPlan::parse_json(text);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

TEST(FuzzParse, RandomBytesNeverCrashTheJsonReader) {
  Rng rng(0x15A7);
  ASSERT_TRUE(parse_json_and_plan(kEveryKindPlan));
  for (int trial = 0; trial < 20'000; ++trial) {
    const auto bytes = random_bytes(rng, 200);
    const std::string text(reinterpret_cast<const char*>(bytes.data()),
                           bytes.size());
    EXPECT_FALSE(parse_json_and_plan(text));
  }
}

TEST(FuzzParse, MutatedFaultPlansNeverCrash) {
  Rng rng(0x9A7E);
  const std::string valid = kEveryKindPlan;
  int still_valid = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    std::string text = valid;
    const auto flips = rng.uniform_int(1, 4);
    for (std::int64_t f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      text[pos] = static_cast<char>(rng.uniform_int(0, 255));
    }
    if (parse_json_and_plan(text)) ++still_valid;
  }
  // Flips inside whitespace, digits and notes keep some plans valid, so
  // the schema checks behind the reader run too.
  EXPECT_GT(still_valid, 100);
}

TEST(FuzzParse, WrittenStringsAndDoublesReadBackExactly) {
  Rng rng(0x7E57);
  for (int trial = 0; trial < 10'000; ++trial) {
    const auto bytes = random_bytes(rng, 64);
    const std::string s(reinterpret_cast<const char*>(bytes.data()),
                        bytes.size());
    double d = 0.0;
    do {
      d = std::bit_cast<double>(rng.engine()());
    } while (!std::isfinite(d));
    JsonWriter w;
    w.begin_array().value(s).value(d).end_array();
    const JsonValue doc = JsonValue::parse(w.str());
    ASSERT_EQ(doc.as_array()[0].as_string(), s) << w.str();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(doc.as_array()[1].as_number()),
              std::bit_cast<std::uint64_t>(d))
        << w.str();
  }
}

}  // namespace
}  // namespace midrr
