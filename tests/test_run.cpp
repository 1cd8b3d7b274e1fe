// rt::run(), the one wall-clock run path behind midrr_rt: a small
// supervised, traced, pooled run in-process must close the conservation
// identities and the pool books, its JSON report must carry every key the
// CI gates read, and a declared SLO must burn under sustained overload.
#include "runtime/run.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "io/uring_api.hpp"
#include "util/json.hpp"

namespace {

using namespace midrr;
using namespace midrr::rt;

RunSpec small_spec() {
  RunSpec spec;
  spec.flows = 16;
  spec.ifaces = 2;
  spec.workers = 2;
  spec.duration_s = 0.3;
  spec.payload = LoadGeneratorOptions::PayloadMode::kPooled;
  spec.supervise = true;
  spec.stage_sample = 64;
  return spec;
}

JsonValue report_json(const RunReport& report) {
  JsonWriter w;
  write_json(w, report);
  return JsonValue::parse(w.str());
}

/// Follows a '/'-separated key path; nullptr when any key is absent.
const JsonValue* at(const JsonValue& doc, const std::string& path) {
  const JsonValue* v = &doc;
  std::istringstream keys(path);
  for (std::string key; v != nullptr && std::getline(keys, key, '/');) {
    v = v->is_object() ? v->find(key) : nullptr;
  }
  return v;
}

TEST(Run, PooledSupervisedRunClosesIdentitiesAndPoolBooks) {
  const RunReport r = run(small_spec());
  const RuntimeStats& s = r.stats;
  ASSERT_GT(s.offered, 0u);
  EXPECT_EQ(s.offered, s.dequeued + s.fanin_drops + s.tail_drops +
                           s.shed_drops + s.straggler_drops);
  EXPECT_EQ(s.dequeued, s.sent + s.io_drops + s.io_pending + s.io_inflight);
  EXPECT_EQ(s.io_pending, 0u);
  EXPECT_EQ(s.io_inflight, 0u);
  EXPECT_GT(r.pool.acquired, 0u);
  EXPECT_EQ(r.pool.acquired, r.pool.released);
  EXPECT_EQ(r.pool.outstanding, 0u);
  ASSERT_TRUE(r.stage.has_value());
  EXPECT_EQ(r.stage->sample_every, 64u);
  EXPECT_GT(r.stage->completed, 0u);
  EXPECT_EQ(r.stage->reconciliation_error, 0.0);
  ASSERT_TRUE(r.supervisor.has_value());
  EXPECT_EQ(r.supervisor->clustering_violations, 0u);
  ASSERT_TRUE(r.adapt.has_value());
  EXPECT_EQ(r.adapt->ifaces.size(), 2u);
  EXPECT_EQ(r.spec.shards, 2u);  // resolved from workers
  EXPECT_EQ(r.spec.egress, "sim");
}

TEST(Run, ReportCarriesEveryKeyTheCiGatesRead) {
  const std::string plan = ::testing::TempDir() + "run_test_plan.json";
  const std::string dump = ::testing::TempDir() + "run_test_flight.json";
  std::ofstream(plan) << R"({"seed": 7, "events": [
      {"at_ms": 50, "kind": "ingress_drop", "probability": 0.05,
       "duration_ms": 100}]})";
  RunSpec spec = small_spec();
  spec.fault_plan = plan;
  spec.flight_dump = dump;
  spec.slo = {"class=f0:p99_ms=5"};
  const JsonValue doc = report_json(run(spec));
  // chaos, replay, pool and loopback gates in ci/gates.py.
  for (const char* path :
       {"offered", "dequeued", "fanin_drops", "tail_drops", "shed_drops",
        "straggler_drops", "egress/backend", "egress/sent", "egress/io_drops",
        "egress/io_pending", "egress/io_inflight", "egress/send_errors",
        "egress/syscalls", "stage/completed", "stage/reconciliation_error",
        "pool/acquired", "pool/released", "pool/outstanding",
        "pool/cross_thread_returns", "flight/dumps", "fault/ingress_drops",
        "fault/ingress_dups", "fault/ingress_delays", "fault/pool_rejects",
        "fault/worker_stalls", "fault/iface_transitions",
        "supervisor/link_transitions", "supervisor/restarts_attempted",
        "supervisor/clustering_violations", "supervisor/verdict_sequence",
        "adapt/target_p99_ns", "adapt/updates", "adapt/shed_bytes",
        "adapt/shed_engages", "adapt/droop_enters", "slo/slos"}) {
    EXPECT_NE(at(doc, path), nullptr) << path;
  }
  EXPECT_EQ(at(doc, "egress/uring"), nullptr);  // sim backend
  EXPECT_EQ(at(doc, "flight/dumps")->as_number(), 1.0);  // shutdown snapshot
  EXPECT_TRUE(at(doc, "supervisor/verdict_sequence")->is_array());
}

TEST(Run, UringReportCarriesTheLoopbackGateKeys) {
  int probe_errno = 0;
  if (!io::uring_supported() || !io::uring_runtime_available(&probe_errno)) {
    GTEST_SKIP() << "io_uring not built or denied by the kernel";
  }
  RunSpec spec = small_spec();
  spec.supervise = false;
  spec.egress = "uring";
  spec.rate_bps = 50e6;
  spec.udp.base_port = 19730;  // nobody listens; unconnected sends succeed
  const RunReport r = run(spec);
  EXPECT_EQ(r.stats.dequeued, r.stats.sent + r.stats.io_drops);
  EXPECT_EQ(r.pool.acquired, r.pool.released);
  const JsonValue doc = report_json(r);
  EXPECT_EQ(at(doc, "egress/backend")->as_string(), "uring");
  for (const char* path :
       {"egress/uring/cq_overflows", "egress/uring/zerocopy_active",
        "egress/uring/registered_buffers", "egress/uring/fixed_sends"}) {
    EXPECT_NE(at(doc, path), nullptr) << path;
  }
}

// One interface paced at 200 Mb/s and offered twice that in 1000-byte
// packets: ~20 ms of queue residence against a 5 ms p99 objective must
// burn the error budget faster than allowed on both windows.  The 8 equal
// flows intern into one class, named after its first member.
TEST(Run, SloBurnsAboveOneUnderTwoXOverload) {
  RunSpec spec;
  spec.flows = 8;
  spec.ifaces = 1;
  spec.rate_bps = 200e6;
  spec.load_pps = 50000;
  spec.duration_s = 1.0;
  spec.slo = {"class=f0:p99_ms=5"};
  const RunReport r = run(spec);
  EXPECT_EQ(r.classes, 1u);
  const JsonValue doc = JsonValue::parse(r.slo_json);
  const JsonValue* slos = at(doc, "slos");
  ASSERT_NE(slos, nullptr);
  ASSERT_EQ(slos->as_array().size(), 1u);
  const JsonValue& row = slos->as_array().at(0);
  EXPECT_EQ(row.find("class")->as_string(), "f0");
  EXPECT_GT(row.find("samples")->as_number(), 0.0);  // the objective bound
  EXPECT_GT(row.find("burn_short")->as_number(), 1.0);
  EXPECT_GT(row.find("burn_long")->as_number(), 1.0);
}

TEST(Run, InvalidSpecsThrowNamingTheFlag) {
  const auto rejects = [](RunSpec spec, const std::string& flag) {
    try {
      validate(spec);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
      return;
    }
    ADD_FAILURE() << "accepted a bad " << flag;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  RunSpec spec;
  spec.duration_s = nan;
  EXPECT_THROW(run(spec), std::invalid_argument);
  rejects(spec, "--duration");
  spec.duration_s = 0.0;
  rejects(spec, "--duration");
  spec = RunSpec{};
  spec.rate_bps = inf;
  rejects(spec, "--rate");
  spec = RunSpec{};
  spec.load_pps = nan;
  rejects(spec, "--load-pps");
  spec = RunSpec{};
  spec.supervise = true;
  spec.shed_target_p99_ms = inf;
  rejects(spec, "--shed-target-p99-ms");
  spec = RunSpec{};
  spec.stage_sample = std::uint64_t{1} << 32;
  rejects(spec, "--stage-sample");
  spec.stage_sample = (std::uint64_t{1} << 32) - 1;
  EXPECT_NO_THROW(validate(spec));
  spec = RunSpec{};
  spec.telemetry_port = 70000;
  rejects(spec, "--telemetry");
  spec = RunSpec{};
  spec.shed_target_p99_ms = 5.0;  // without --supervise
  rejects(spec, "--shed-target-p99-ms");
  spec = RunSpec{};
  spec.egress = "dpdk";
  rejects(spec, "--egress");
}

}  // namespace
