#include "runtime/run.hpp"

#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "fault/adapt.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "fault/recorder.hpp"
#include "fault/supervisor.hpp"
#include "io/wire.hpp"
#include "telemetry/build_info.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/fairness_drift.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/slo.hpp"
#include "util/json.hpp"

namespace midrr::rt {

namespace {

void require(bool ok, const std::string& flag, const std::string& want) {
  if (!ok) throw std::invalid_argument(flag + " must be " + want);
}

AdaptReport snapshot(const fault::AdaptiveController& ad, const Runtime& rt) {
  AdaptReport r;
  r.target_p99_ns = ad.target_p99_ns();
  r.shed_bytes = rt.shed_bytes();
  r.shedding_active = ad.shed_active();
  r.windowed_p99_ns = ad.windowed_p99_ns();
  r.correction = ad.correction();
  r.updates = ad.updates();
  r.retunes = ad.retunes();
  r.shed_engages = ad.shed_engages();
  r.droop_enters = ad.droop_enters();
  r.droop_exits = ad.droop_exits();
  for (std::size_t j = 0; j < rt.iface_count(); ++j) {
    const auto id = static_cast<IfaceId>(j);
    r.ifaces.push_back({rt.iface_name(id), ad.drift_ratio(id), ad.drooped(id)});
  }
  return r;
}

void write_json(JsonWriter& w, const AdaptReport& a) {
  w.begin_object().field("target_p99_ns", a.target_p99_ns);
  w.field("shed_bytes", a.shed_bytes);
  w.field("shedding_active", a.shedding_active);
  w.field("windowed_p99_ns", a.windowed_p99_ns);
  w.field("correction", a.correction).field("updates", a.updates);
  w.field("retunes", a.retunes).field("shed_engages", a.shed_engages);
  w.field("droop_enters", a.droop_enters);
  w.field("droop_exits", a.droop_exits).key("ifaces").begin_array();
  for (const AdaptReport::Iface& i : a.ifaces) {
    w.begin_object().field("name", i.name);
    w.field("drift_ratio", i.drift_ratio);
    w.field("drooped", i.drooped).end_object();
  }
  w.end_array().end_object();
}

/// `--egress auto`: probe once and say which backend won and why.
std::string resolve_auto_egress(const RunSpec& spec) {
  int probe_errno = 0;
  if (io::uring_supported() && io::uring_runtime_available(&probe_errno)) {
    std::cerr << "egress: auto -> uring (io_uring_setup permitted)\n";
    return "uring";
  }
  const std::string why = !io::uring_supported()
                              ? "uring not built"
                              : std::string("io_uring_setup failed: ") +
                                    std::strerror(probe_errno);
  if (!spec.udp.dest_by_name.empty() || spec.udp.base_port != 0) {
    std::cerr << "egress: auto -> udp (" << why
              << "; udp destination configured)\n";
    return "udp";
  }
  std::cerr << "egress: auto -> sim (" << why << "; no udp destination)\n";
  return "sim";
}

/// Serves /healthz, /flows, /classes, /buildinfo, and /slo and /adapt
/// when those layers run.
void add_routes(telemetry::TelemetryServer& server, Runtime& runtime,
                fault::Supervisor* sup, fault::AdaptiveController* ad,
                telemetry::FairnessDriftSampler* drift,
                telemetry::SloEngine* slo, telemetry::FlightRecorder* fr,
                telemetry::FlightLog* health_log,
                const std::string& dump_path) {
  Runtime* rt = &runtime;
  // Health reflects supervision: 503 while any link is suspect or dead, so
  // orchestrators see degradation (and recovery) live.  The detail lines
  // always include the egress backend's view (syscalls, hard send errors)
  // -- sustained send errors are what drive the supervisor's suspect
  // verdicts under real I/O.  Degrade-edge latch: the post-mortem is
  // written on the healthy -> degraded TRANSITION, not on every probe of a
  // flapping state.
  auto was_degraded = std::make_shared<std::atomic<bool>>(false);
  server.handle("/healthz", [sup, ad, rt, fr, health_log, was_degraded,
                             dump_path](const http::HttpRequest&) {
    telemetry::HandlerResult r;
    std::ostringstream body;
    if (sup != nullptr) {
      for (std::size_t j = 0; j < rt->iface_count(); ++j) {
        const fault::LinkState state = sup->link_state(static_cast<IfaceId>(j));
        if (state != fault::LinkState::kHealthy) {
          r.status = 503;
          body << rt->iface_name(static_cast<IfaceId>(j)) << ": "
               << fault::to_string(state) << "\n";
        }
      }
    }
    const bool degraded_now = r.status != 200;
    if (fr != nullptr && degraded_now != was_degraded->exchange(degraded_now)) {
      const std::uint64_t t = static_cast<std::uint64_t>(rt->now_ns());
      if (health_log != nullptr) {
        health_log->log(t, telemetry::FlightCategory::kHealth,
                        degraded_now ? telemetry::FlightCode::kHealthDegraded
                                     : telemetry::FlightCode::kHealthRecovered);
      }
      if (degraded_now) fr->dump_to_file(dump_path, "healthz degraded", t);
    }
    const RuntimeStats s = rt->stats();
    std::ostringstream detail;
    detail << "egress: " << rt->egress().name() << " syscalls="
           << s.io_syscalls << " send_errors=" << s.io_send_errors;
    for (std::size_t j = 0; j < rt->iface_count(); ++j) {
      const std::uint64_t errs = rt->iface_send_errors(static_cast<IfaceId>(j));
      if (errs != 0) {
        detail << " " << rt->iface_name(static_cast<IfaceId>(j))
               << "_errors=" << errs;
      }
    }
    if (ad != nullptr) {
      // Shedding state rides along so orchestrators can tell "503 because
      // a link died" apart from "200 but actively shedding to hold the
      // latency target".
      detail << "\nshedding active=" << (ad->shed_active() ? 1 : 0)
             << " shed_bytes=" << rt->shed_bytes() << " target_p99_ms="
             << static_cast<double>(ad->target_p99_ns()) / 1e6;
    }
    r.body = (r.status == 200 ? "ok\n" : "degraded\n" + body.str()) +
             detail.str() + "\n";
    return r;
  });
  server.handle("/flows", [rt, drift](const http::HttpRequest&) {
    telemetry::HandlerResult r;
    r.content_type = "application/json";
    r.body = telemetry::flows_json(rt->fairness_sample(), drift->last());
    return r;
  });
  // The interned class table: one row per live class (the unit the control
  // plane publishes and the hierarchical scheduler serves).
  ControlPlane* control = &runtime.control();
  server.handle("/classes", [control](const http::HttpRequest&) {
    telemetry::HandlerResult r;
    r.content_type = "application/json";
    auto reader = control->reader();
    const auto guard = reader.lock();
    JsonWriter w;
    w.begin_object().field("classes", guard->live.size());
    w.field("flows", control->flow_count());
    w.field("version", guard->version).key("rows").begin_array();
    for (const ClassId id : guard->live) {
      const SnapshotClass& c = *guard->classes[id];
      w.begin_object().field("id", id).field(
          "name", c.name.empty() ? "class" + std::to_string(id) : c.name);
      w.field("weight", c.weight).field("members", c.members);
      w.field("quarantined", c.quarantined).key("willing").begin_array();
      for (const auto willing : c.willing) w.value(willing);
      w.end_array().key("shards").begin_array();
      for (const auto shard : c.shards) w.value(shard);
      w.end_array().end_object();
    }
    r.body = w.end_array().end_object().str();
    return r;
  });
  // Build facts plus the one runtime fact orchestrators ask for: which
  // egress backend `--egress auto` (or the operator) picked.
  const std::string egress_label = runtime.egress().name();
  server.handle("/buildinfo", [egress_label](const http::HttpRequest&) {
    telemetry::HandlerResult r;
    r.content_type = "application/json";
    JsonWriter w;
    telemetry::write_build_info(w.begin_object());
    r.body = w.field("egress", egress_label).end_object().str();
    return r;
  });
  if (slo != nullptr) {
    server.handle("/slo", [slo, rt](const http::HttpRequest&) {
      telemetry::HandlerResult r;
      r.content_type = "application/json";
      r.body = slo->json(static_cast<std::uint64_t>(rt->now_ns()));
      return r;
    });
  }
  if (ad != nullptr) {
    // Live view of the closed loop, plus the retune knob: GET
    // /adapt?target_p99_ms=X moves the latency target without a restart
    // (0 disarms adaptive shedding).
    server.handle("/adapt", [ad, rt](const http::HttpRequest& req) {
      telemetry::HandlerResult r;
      r.content_type = "application/json";
      const std::string key = "target_p99_ms=";
      const std::size_t query = req.target.find('?');
      if (query != std::string::npos) {
        const std::size_t at = req.target.find(key, query + 1);
        if (at != std::string::npos) {
          try {
            const double ms = std::stod(req.target.substr(at + key.size()));
            if (ms < 0.0 || !std::isfinite(ms)) throw std::out_of_range("");
            ad->set_target_p99_ns(static_cast<SimDuration>(ms * 1e6 + 0.5));
          } catch (const std::exception&) {
            r.status = 400;
            r.content_type = "text/plain";
            r.body = "bad target_p99_ms\n";
            return r;
          }
        }
      }
      JsonWriter w;
      write_json(w, snapshot(*ad, *rt));
      r.body = w.str();
      return r;
    });
  }
}

StageReport stage_report(const telemetry::StageTracer& tracer,
                         std::size_t ifaces) {
  StageReport r;
  r.sample_every = tracer.sample_every();
  r.started = tracer.started();
  r.completed = tracer.completed();
  r.lost = tracer.lost();
  r.dropped = tracer.dropped();
  r.reconciliation_error = tracer.reconciliation_error();
  LatencyHistogram merged[telemetry::kStageCount];
  LatencyHistogram e2e;
  for (std::size_t j = 0; j < ifaces; ++j) {
    for (std::size_t st = 0; st < telemetry::kStageCount; ++st) {
      merged[st].merge_from(tracer.stage_grid(
          static_cast<IfaceId>(j), static_cast<telemetry::Stage>(st)));
    }
    e2e.merge_from(tracer.e2e_grid(static_cast<IfaceId>(j)));
  }
  for (std::size_t st = 0; st < telemetry::kStageCount; ++st) {
    r.p50_ns[st] = merged[st].quantile(0.50);
    r.p99_ns[st] = merged[st].quantile(0.99);
  }
  r.e2e_p50_ns = e2e.quantile(0.50);
  r.e2e_p99_ns = e2e.quantile(0.99);
  return r;
}

UringReport uring_report(const io::UringBackend& uring, std::size_t ifaces) {
  UringReport r;
  r.zerocopy_active = uring.zerocopy_active();
  r.registered_buffers = uring.registered_buffers();
  r.cq_overflows = uring.cq_overflows();
  for (std::size_t j = 0; j < ifaces; ++j) {
    const auto id = static_cast<IfaceId>(j);
    r.fixed_sends += uring.fixed_sends(id);
    r.fallback_sends += uring.fallback_sends(id);
    r.cqe_requeues += uring.cqe_requeues(id);
    r.short_writes += uring.short_writes(id);
    r.zc_notifs += uring.zc_notifs(id);
    r.zc_copied += uring.zc_copied(id);
  }
  return r;
}

}  // namespace

void validate(const RunSpec& spec) {
  require(spec.flows > 0, "--flows", "> 0");
  require(spec.flows_per_class > 0, "--flows-per-class", "> 0");
  require(spec.ifaces > 0, "--ifaces", "> 0");
  require(std::isfinite(spec.duration_s) && spec.duration_s > 0.0,
          "--duration", "a finite number of seconds > 0");
  require(std::isfinite(spec.rate_bps) && spec.rate_bps >= 0.0, "--rate",
          "a finite rate >= 0");
  require(std::isfinite(spec.load_pps) && spec.load_pps >= 0.0, "--load-pps",
          "a finite rate >= 0");
  require(std::isfinite(spec.shed_target_p99_ms) &&
              spec.shed_target_p99_ms >= 0.0,
          "--shed-target-p99-ms", "a finite number of ms >= 0");
  require(spec.stage_sample <= std::numeric_limits<std::uint32_t>::max(),
          "--stage-sample", "at most 4294967295");
  require(spec.telemetry_port <= 65535, "--telemetry", "a port <= 65535");
  require(spec.egress == "sim" || spec.egress == "udp" ||
              spec.egress == "uring" || spec.egress == "auto",
          "--egress", "sim, udp, uring or auto");
  // The adaptive loop runs off the probe cadence; the recorder mirrors
  // supervisor verdicts.
  require(spec.shed_target_p99_ms == 0.0 || spec.supervise,
          "--shed-target-p99-ms", "paired with --supervise");
  require(spec.record_faults.empty() || spec.supervise, "--record-faults",
          "paired with --supervise");
}

RunReport run(const RunSpec& given) {
  using PayloadMode = LoadGeneratorOptions::PayloadMode;
  validate(given);
  RunReport report;
  RunSpec& spec = report.spec;
  spec = given;
  if (spec.shards == 0) spec.shards = spec.workers;
  // Burn rates and the adaptive loop's windowed p99 consume the tracer's
  // sampled latencies; without a tracer they would sit at 0 forever.
  if ((!spec.slo.empty() || spec.shed_target_p99_ms > 0.0) &&
      spec.stage_sample == 0) {
    spec.stage_sample = 64;
  }
  const bool pooled = spec.payload == PayloadMode::kPooled;

  RuntimeOptions options;
  options.policy = spec.policy;
  options.workers = spec.workers;
  options.shards = spec.shards;
  options.producers = spec.producers;
  if (spec.fanin_batch != 0) options.fanin_batch = spec.fanin_batch;
  if (spec.burst_bytes != 0) options.burst_bytes = spec.burst_bytes;
  // Flow ids are never reused, so the arena must cover every churn add
  // (one per ~1 ms of runtime) on top of the static flows.
  options.max_flows =
      spec.flows + 16 +
      (spec.churn ? static_cast<std::size_t>(spec.duration_s * 1200.0) + 64
                  : 0);
  options.backpressure_bytes = spec.backpressure_bytes;
  options.shed_bytes = spec.shed_bytes;
  options.stage_sample_every = static_cast<std::uint32_t>(spec.stage_sample);

  // The registry, injector, SLO engine, flight recorder and egress backend
  // outlive the runtime: its callbacks, fault seams, hot path and final
  // flush hold pointers into them.
  telemetry::MetricsRegistry registry;
  const bool telemetry_on = spec.telemetry_port >= 0 || !spec.trace_out.empty();
  if (telemetry_on) {
    options.metrics = &registry;
    telemetry::register_build_info(registry);
    if (!spec.trace_out.empty()) {
      options.trace_events = 64 * 1024;  // per shard
      options.trace_spans = 64 * 1024;   // per worker
    }
  }

  std::unique_ptr<fault::FaultInjector> injector;
  if (!spec.fault_plan.empty()) {
    std::ifstream plan_file(spec.fault_plan);
    if (!plan_file) throw std::runtime_error("cannot read " + spec.fault_plan);
    std::ostringstream plan_text;
    plan_text << plan_file.rdbuf();
    injector = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::parse_json(plan_text.str()));
    options.fault = injector.get();
  }

  std::unique_ptr<telemetry::SloEngine> slo;
  if (!spec.slo.empty()) {
    std::vector<telemetry::SloSpec> specs;
    for (const std::string& text : spec.slo) {
      telemetry::SloSpec s;
      if (!telemetry::parse_slo_spec(text, &s)) {
        throw std::runtime_error("bad --slo (want class=NAME:p99_ms=X): " +
                                 text);
      }
      specs.push_back(std::move(s));
    }
    slo = std::make_unique<telemetry::SloEngine>(std::move(specs),
                                                 options.max_flows);
    options.slo = slo.get();
  }
  // Every flight lane written outside the runtime is added here, before
  // start(): the runtime adds its worker lanes inside start(), and nothing
  // may add one after.
  std::unique_ptr<telemetry::FlightRecorder> flight;
  telemetry::FlightLog* health_flight = nullptr;      // server thread
  telemetry::FlightLog* run_flight = nullptr;         // this thread
  telemetry::FlightLog* supervisor_flight = nullptr;  // probe thread
  if (!spec.flight_dump.empty()) {
    flight = std::make_unique<telemetry::FlightRecorder>();
    run_flight = &flight->add_writer("tool");
    health_flight = &flight->add_writer("health");
    if (spec.supervise) supervisor_flight = &flight->add_writer("supervisor");
    options.flight = flight.get();
    if (!flight->arm_fatal_dump(spec.flight_dump + ".fatal")) {
      std::cerr << "warning: cannot arm fatal dump at " << spec.flight_dump
                << ".fatal\n";
    }
  }

  if (spec.egress == "auto") spec.egress = resolve_auto_egress(spec);
  // With no destination at all, pair with midrr_rx's defaults (iface j ->
  // 127.0.0.1:19000+j).
  io::UdpBackendOptions udp = spec.udp;
  if (udp.base_port == 0 && udp.dest_by_name.empty()) udp.base_port = 19000;
  std::unique_ptr<io::EgressBackend> egress;  // null = built-in sim backend
  io::UringBackend* uring = nullptr;          // set iff uring is live
  if (spec.egress == "udp") {
    egress = std::make_unique<io::UdpBackend>(udp);
  } else if (spec.egress == "uring") {
    if (!io::uring_supported()) {
      throw std::runtime_error(
          "io_uring egress backend not built: reconfigure with "
          "-DMIDRR_WITH_URING=ON");
    }
    io::UringBackendOptions uopts = spec.uring;
    uopts.dest_by_name = udp.dest_by_name;
    uopts.default_host = udp.default_host;
    uopts.base_port = udp.base_port;
    uopts.max_payload_bytes = udp.max_payload_bytes;
    // Concrete (not via the factory) so the generator's precarved slabs
    // can be handed to register_frame_pool below.
    auto backend = std::make_unique<io::UringBackend>(std::move(uopts));
    uring = backend.get();
    egress = std::move(backend);
  }
  options.egress = egress.get();

  Runtime runtime(options);
  for (std::size_t j = 0; j < spec.ifaces; ++j) {
    const std::string name = "if" + std::to_string(j);
    if (spec.rate_bps > 0.0) {
      runtime.add_interface(name, RateProfile(spec.rate_bps));
    } else {
      runtime.add_interface(name);
    }
  }
  // Each class is willing on two adjacent interfaces (wrap-around), the
  // minimal topology where miDRR's cross-interface coupling matters.  A
  // class registers as one batch: one class-delta publish, not one per
  // flow.
  for (std::size_t i = 0; i < spec.flows; i += spec.flows_per_class) {
    const std::size_t batch = std::min(spec.flows_per_class, spec.flows - i);
    const std::size_t group = i / spec.flows_per_class;
    RtFlowSpec fs;
    fs.weight = 1.0;
    fs.name = (spec.flows_per_class == 1 ? "f" : "c") + std::to_string(group);
    fs.willing.push_back(static_cast<IfaceId>(group % spec.ifaces));
    if (spec.ifaces > 1) {
      fs.willing.push_back(static_cast<IfaceId>((group + 1) % spec.ifaces));
    }
    runtime.control().add_members(fs, batch);
  }
  // Bind declared objectives to the classes registration interned.  A spec
  // naming no live class stays unbound (its burn rate reads 0); classes
  // created mid-run are deliberately not bound.
  if (slo != nullptr) {
    auto reader = runtime.control().reader();
    const auto guard = reader.lock();
    for (const ClassId id : guard->live) {
      const SnapshotClass& c = *guard->classes[id];
      slo->bind_class(id, c.name.empty() ? "class" + std::to_string(id)
                                         : c.name);
    }
  }

  runtime.start();

  // The supervisor probes after start() (worker slots exist only then).
  std::unique_ptr<fault::Supervisor> supervisor;
  std::unique_ptr<fault::AdaptiveController> adapt;
  std::unique_ptr<fault::FaultPlanRecorder> recorder;
  if (spec.supervise) {
    supervisor = std::make_unique<fault::Supervisor>(
        runtime, fault::SupervisorOptions{}, &runtime);
    if (supervisor_flight != nullptr) {
      supervisor->set_flight_log(supervisor_flight);
    }
    // The closed loop rides the probe cadence: each probe window feeds
    // measured drain rates into the controller, which re-lowers the
    // capacities fairness sampling sees and retunes the shed watermark.
    fault::AdaptOptions aopts;
    aopts.target_p99_ns =
        static_cast<SimDuration>(spec.shed_target_p99_ms * 1e6 + 0.5);
    adapt = std::make_unique<fault::AdaptiveController>(runtime, aopts);
    runtime.set_capacity_overlay(adapt.get());
    supervisor->set_adaptive(adapt.get());
    if (!spec.record_faults.empty()) {
      recorder = std::make_unique<fault::FaultPlanRecorder>(1);
      supervisor->set_recorder(recorder.get());
      adapt->set_recorder(recorder.get());
    }
    if (telemetry_on) {
      supervisor->register_metrics(registry);
      adapt->register_metrics(registry);
    }
    supervisor->start();
  }

  std::unique_ptr<telemetry::FairnessDriftSampler> sampler;
  std::unique_ptr<telemetry::TelemetryServer> server;
  if (telemetry_on) {
    sampler =
        std::make_unique<telemetry::FairnessDriftSampler>(runtime, registry);
    sampler->start();
  }
  if (spec.telemetry_port >= 0) {
    telemetry::TelemetryServer::Options sopts;
    sopts.port = static_cast<std::uint16_t>(spec.telemetry_port);
    server = std::make_unique<telemetry::TelemetryServer>(sopts);
    server->serve_registry(registry);
    add_routes(*server, runtime, supervisor.get(), adapt.get(), sampler.get(),
               slo.get(), flight.get(), health_flight, spec.flight_dump);
    server->start();
    std::cerr << "telemetry: http://127.0.0.1:" << server->port()
              << "/metrics\n";
  }

  LoadGeneratorOptions load;
  load.producers = spec.producers;
  load.packet_bytes = spec.packet_bytes;
  load.payload = spec.payload;
  load.rate_pps = spec.load_pps;
  load.pool = spec.pool;
  if (uring != nullptr && pooled) {
    // Zero-copy prerequisites: headroom so the wire header prepends in
    // place, and a frozen slab directory so every slab can be registered
    // as a fixed buffer exactly once, below.
    load.frame_headroom = io::kWireScratchBytes;
    load.pool.precarve = true;
  }
  LoadGenerator generator(runtime, load);
  if (telemetry_on) generator.register_pool_metrics(registry);
  if (uring != nullptr && spec.uring.zerocopy) {
    for (std::size_t p = 0; p < spec.producers; ++p) {
      if (const net::FramePool* fp = generator.frame_pool(p)) {
        uring->register_frame_pool(*fp);
      }
    }
  }

  const auto t0 = RunSpec::Clock::now();
  generator.start();
  const auto deadline =
      t0 + std::chrono::duration_cast<RunSpec::Clock::duration>(
               std::chrono::duration<double>(spec.duration_s));
  if (spec.while_running) {
    spec.while_running(runtime, deadline);
    spec.while_running = nullptr;  // the report keeps no caller captures
  } else {
    std::this_thread::sleep_until(deadline);
  }

  generator.stop();
  if (pooled) {
    // Let the workers drain everything the generator offered so every
    // pooled frame is released before the leak accounting is read
    // (acquired == released).  Bounded: unpaced drains in microseconds; a
    // paced run may legitimately time out with frames still queued.
    // Quiescent = the outer identity closes (nothing left in a ring or a
    // queue) and so does the egress split: dequeue is not terminal, a
    // frame stays live in an egress requeue stash or inside a
    // completion-driven backend.
    const auto drain_deadline = RunSpec::Clock::now() + std::chrono::seconds(2);
    while (RunSpec::Clock::now() < drain_deadline) {
      const RuntimeStats s = runtime.stats();
      if (s.offered == s.dequeued + s.fanin_drops + s.tail_drops +
                           s.shed_drops + s.straggler_drops &&
          s.dequeued == s.sent + s.io_drops) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (server != nullptr) server->stop();
  if (sampler != nullptr) sampler->stop();
  if (supervisor != nullptr) supervisor->stop();
  // Probing has stopped; close any droop episode still open so the
  // recorded plan carries its full span.
  if (adapt != nullptr) adapt->finalize(runtime.now_ns());
  if (recorder != nullptr) {
    if (recorder->write_file(spec.record_faults)) {
      std::cerr << "faults: " << recorder->event_count() << " events, "
                << recorder->note_count() << " notes -> "
                << spec.record_faults << "\n";
    } else {
      std::cerr << "warning: cannot write " << spec.record_faults << "\n";
    }
  }
  runtime.stop();
  if (flight != nullptr) {
    // stop() flushed or counted every parked egress tail, so the egress
    // split must close exactly; a mismatch is an accounting bug worth a
    // post-mortem.  Either way the run ends with a dump on disk -- the
    // quiescent timeline is the artifact CI archives.
    const RuntimeStats s = runtime.stats();
    const std::uint64_t now = static_cast<std::uint64_t>(runtime.now_ns());
    if (s.dequeued != s.sent + s.io_drops) {
      run_flight->log(now, telemetry::FlightCategory::kHealth,
                      telemetry::FlightCode::kConservationTrip, s.dequeued,
                      s.sent + s.io_drops);
      flight->dump_to_file(spec.flight_dump, "conservation identity tripped",
                           now);
      std::cerr << "flight: conservation identity tripped (dequeued="
                << s.dequeued << " != sent+io_drops=" << s.sent + s.io_drops
                << "), dump -> " << spec.flight_dump << "\n";
    } else {
      flight->dump_to_file(spec.flight_dump, "shutdown snapshot", now);
    }
  }
  if (!spec.trace_out.empty()) {
    telemetry::ChromeTraceBuilder builder;
    builder.set_process_name(1, "midrr_rt");
    runtime.export_trace(builder);
    if (injector != nullptr) {
      builder.set_process_name(2, "fault injector");
      injector->export_trace(builder, 2);
    }
    if (supervisor != nullptr) {
      builder.set_process_name(3, "supervisor");
      supervisor->export_trace(builder, 3);
    }
    std::ofstream trace_file(spec.trace_out);
    if (!trace_file) throw std::runtime_error("cannot write " + spec.trace_out);
    builder.write(trace_file);
    std::cerr << "trace: " << builder.event_count() << " events -> "
              << spec.trace_out << "\n";
  }
  report.duration_s =
      std::chrono::duration<double>(RunSpec::Clock::now() - t0).count();

  spec.egress = runtime.egress().name();
  report.classes = runtime.control().class_count();
  report.stats = runtime.stats();
  report.metrics_series = registry.series_count();
  report.pool = generator.pool_stats();
  if (uring != nullptr) report.uring = uring_report(*uring, spec.ifaces);
  if (const telemetry::StageTracer* tracer = runtime.stage_tracer()) {
    report.stage = stage_report(*tracer, spec.ifaces);
  }
  if (slo != nullptr) {
    report.slo_json = slo->json(static_cast<std::uint64_t>(runtime.now_ns()));
  }
  if (flight != nullptr) {
    report.flight = RunReport::Flight{flight->events_logged(), flight->dumps()};
  }
  if (injector != nullptr) {
    report.fault = FaultReport{
        injector->ingress_drops(),  injector->ingress_dups(),
        injector->ingress_delays(), injector->pool_rejects(),
        injector->stalls_entered(), injector->iface_transitions()};
  }
  if (supervisor != nullptr) {
    report.supervisor = SupervisorReport{
        supervisor->transitions(),          supervisor->restarts_attempted(),
        supervisor->restarts_succeeded(),   supervisor->restarts_refused(),
        supervisor->clustering_checks(),    supervisor->clustering_violations(),
        supervisor->verdict_sequence()};
  }
  if (adapt != nullptr) report.adapt = snapshot(*adapt, runtime);
  return report;
}

void write_json(JsonWriter& w, const RunReport& r) {
  const RunSpec& spec = r.spec;
  const RuntimeStats& stats = r.stats;
  w.begin_object().field("policy", to_string(spec.policy));
  w.field("flows", spec.flows).field("flows_per_class", spec.flows_per_class);
  w.field("classes", r.classes);
  w.field("ifaces", spec.ifaces).field("workers", spec.workers);
  w.field("shards", spec.shards).field("producers", spec.producers);
  w.field("duration_s", r.duration_s).field("offered", stats.offered);
  w.field("ring_rejects", stats.ring_rejects);
  w.field("enqueued", stats.enqueued).field("dequeued", stats.dequeued);
  w.field("dequeued_bytes", stats.dequeued_bytes);
  w.field("fanin_drops", stats.fanin_drops);
  w.field("tail_drops", stats.tail_drops);
  w.field("straggler_drops", stats.straggler_drops);
  w.field("shed_drops", stats.shed_drops);
  w.field("backpressure_rejects", stats.backpressure_rejects);
  w.field("quarantine_rejects", stats.quarantine_rejects);
  w.field("worker_restarts", stats.worker_restarts);
  w.field("churn_ops", r.churn_ops);
  w.field("metrics_series", r.metrics_series);
  w.key("egress").begin_object();
  w.field("backend", spec.egress).field("sent", stats.sent);
  w.field("sent_bytes", stats.sent_bytes);
  w.field("io_requeued", stats.io_requeued);
  w.field("io_drops", stats.io_drops).field("io_pending", stats.io_pending);
  w.field("io_inflight", stats.io_inflight);
  w.field("send_errors", stats.io_send_errors);
  w.field("syscalls", stats.io_syscalls);
  if (const auto& u = r.uring) {
    w.key("uring").begin_object();
    w.field("zerocopy_active", u->zerocopy_active);
    w.field("registered_buffers", u->registered_buffers);
    w.field("fixed_sends", u->fixed_sends);
    w.field("fallback_sends", u->fallback_sends);
    w.field("cqe_requeues", u->cqe_requeues);
    w.field("short_writes", u->short_writes);
    w.field("zc_notifs", u->zc_notifs).field("zc_copied", u->zc_copied);
    w.field("cq_overflows", u->cq_overflows).end_object();
  }
  w.end_object();
  if (const auto& st = r.stage) {
    w.key("stage").begin_object();
    w.field("sample_every", st->sample_every);
    w.field("started", st->started);
    w.field("completed", st->completed);
    w.field("lost", st->lost).field("dropped", st->dropped);
    w.field("reconciliation_error", st->reconciliation_error);
    for (std::size_t i = 0; i < telemetry::kStageCount; ++i) {
      const std::string name =
          telemetry::to_string(static_cast<telemetry::Stage>(i));
      w.field(name + "_p50_ns", st->p50_ns[i]);
      w.field(name + "_p99_ns", st->p99_ns[i]);
    }
    w.field("e2e_p50_ns", st->e2e_p50_ns);
    w.field("e2e_p99_ns", st->e2e_p99_ns).end_object();
  }
  if (!r.slo_json.empty()) w.key("slo").raw(r.slo_json);
  if (const auto& f = r.flight) {
    w.key("flight").begin_object();
    w.field("events", f->events).field("dumps", f->dumps);
    w.field("dump_path", spec.flight_dump).end_object();
  }
  if (const auto& f = r.fault) {
    w.key("fault").begin_object();
    w.field("ingress_drops", f->ingress_drops);
    w.field("ingress_dups", f->ingress_dups);
    w.field("ingress_delays", f->ingress_delays);
    w.field("pool_rejects", f->pool_rejects);
    w.field("worker_stalls", f->worker_stalls);
    w.field("iface_transitions", f->iface_transitions).end_object();
  }
  if (const auto& s = r.supervisor) {
    w.key("supervisor").begin_object();
    w.field("link_transitions", s->link_transitions);
    w.field("restarts_attempted", s->restarts_attempted);
    w.field("restarts_succeeded", s->restarts_succeeded);
    w.field("restarts_refused", s->restarts_refused);
    w.field("clustering_checks", s->clustering_checks);
    w.field("clustering_violations", s->clustering_violations);
    w.key("verdict_sequence").begin_array();
    for (const std::string& v : s->verdict_sequence) w.value(v);
    w.end_array().end_object();
  }
  if (r.adapt) write_json(w.key("adapt"), *r.adapt);
  if (spec.payload == LoadGeneratorOptions::PayloadMode::kPooled) {
    const PacketPoolStats& pool = r.pool;
    w.key("pool").begin_object();
    w.field("slabs", pool.slabs);
    w.field("capacity_slots", pool.capacity_slots);
    w.field("acquired", pool.acquired).field("released", pool.released);
    w.field("outstanding", pool.outstanding).field("misses", pool.misses);
    w.field("cross_thread_returns", pool.cross_thread_returns);
    w.field("overflow_returns", pool.overflow_returns).end_object();
  }
  w.field("pps", static_cast<double>(stats.dequeued) / r.duration_s);
  w.field("gbps", static_cast<double>(stats.dequeued_bytes) * 8.0 /
                      r.duration_s / 1e9);
  w.field("latency_p50_ns", stats.latency_p50_ns);
  w.field("latency_p90_ns", stats.latency_p90_ns);
  w.field("latency_p99_ns", stats.latency_p99_ns);
  w.field("latency_p999_ns", stats.latency_p999_ns);
  w.field("latency_mean_ns", stats.latency_mean_ns).end_object();
}

}  // namespace midrr::rt
