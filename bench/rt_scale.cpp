// rt_scale: the control plane's class-scale cell, behind ci/gates.py scale.
//
//   rt_scale [--out FILE]
//
// Registers 1000 classes at 10k and at 1M flows, then records per cell the
// registration time, the marginal resident bytes per flow, the p50 latency
// of a one-member publish against the loaded table, and the packets a
// one-second hierarchical-miDRR run dequeues.  Flows register in classes
// (one ClassSpec, one publish per batch), so the snapshot the control
// plane publishes is O(classes), not O(flows): at equal class counts the
// two cells' publish latencies must come out about equal, and
// `scale_publish_ratio` (1M / 10k) is the number the gate bounds.  RSS is read from /proc/self/statm around registration, so
// rss_bytes_per_flow is what a registered flow adds (directory slot,
// queue, class membership), not the process baseline.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/load_generator.hpp"
#include "runtime/runtime.hpp"
#include "util/json.hpp"

namespace {

using namespace midrr;
using namespace midrr::rt;
using Clock = std::chrono::steady_clock;

struct ScaleCell {
  std::size_t flows = 0;
  std::size_t flows_per_class = 0;
  std::size_t classes = 0;
  double register_s = 0;
  long long rss_delta_bytes = 0;
  double rss_bytes_per_flow = 0;
  double publish_p50_ns = 0;
  double pps = 0;
  std::uint64_t dequeued = 0;
  double duration_s = 0;
};

long long resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long long pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<long long>(sysconf(_SC_PAGESIZE));
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

ScaleCell run_scale_cell(std::size_t flows, std::size_t flows_per_class) {
  constexpr std::size_t kIfaces = 4;
  RuntimeOptions options;
  options.workers = 1;
  options.shards = 1;
  options.producers = 1;
  options.max_flows = flows + 128;  // headroom for the publish probes
  options.policy = Policy::kHierMiDrr;

  Runtime runtime(options);
  for (std::size_t j = 0; j < kIfaces; ++j) {
    runtime.add_interface("if" + std::to_string(j));
  }

  ScaleCell cell;
  cell.flows = flows;
  cell.flows_per_class = flows_per_class;

  const long long rss0 = resident_bytes();
  const auto reg0 = Clock::now();
  for (std::size_t i = 0; i < flows; i += flows_per_class) {
    const std::size_t batch = std::min(flows_per_class, flows - i);
    const std::size_t group = i / flows_per_class;
    ClassSpec spec;
    spec.name = std::string("c").append(std::to_string(group));
    spec.willing.push_back(static_cast<IfaceId>(group % kIfaces));
    spec.willing.push_back(static_cast<IfaceId>((group + 1) % kIfaces));
    // Classes intern by (weight, willing, queue capacity); a per-group
    // capacity keeps the 1000 groups from collapsing into 4 willing-pairs.
    spec.queue_capacity_bytes = 512 * 1024 + group;
    runtime.control().add_members(spec, batch);
  }
  cell.register_s = seconds_since(reg0);
  cell.rss_delta_bytes = resident_bytes() - rss0;
  cell.rss_bytes_per_flow =
      static_cast<double>(cell.rss_delta_bytes) / static_cast<double>(flows);
  cell.classes = runtime.control().class_count();

  // Publish latency for a one-member delta against the fully loaded
  // table: join an existing class (no new snapshot entry), then leave.
  ClassSpec probe;
  probe.name = "c0";
  probe.willing.push_back(0);
  probe.willing.push_back(1);
  std::vector<double> lat_ns;
  for (int i = 0; i < 33; ++i) {
    const auto t0 = Clock::now();
    const FlowId f = runtime.control().add_members(probe, 1);
    lat_ns.push_back(seconds_since(t0) * 1e9);
    runtime.control().remove_member(f);
  }
  std::sort(lat_ns.begin(), lat_ns.end());
  cell.publish_p50_ns = lat_ns[lat_ns.size() / 2];

  runtime.start();
  LoadGeneratorOptions load;
  load.producers = 1;
  load.packet_bytes = 1000;
  LoadGenerator generator(runtime, load);
  const auto t0 = Clock::now();
  generator.start();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  generator.stop();
  runtime.stop();
  cell.duration_s = seconds_since(t0);
  cell.dequeued = runtime.stats().dequeued;
  cell.pps = static_cast<double>(cell.dequeued) / cell.duration_s;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "scale.json";
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: rt_scale [--out FILE]\n";
      return 2;
    }
  }

  // The same 1000 classes at 10k and at 1M flows.
  std::vector<ScaleCell> cells;
  for (const auto& [flows, per_class] :
       std::vector<std::pair<std::size_t, std::size_t>>{{10'000, 10},
                                                        {1'000'000, 1'000}}) {
    std::cerr << "rt_scale: " << flows << " flows / " << per_class
              << " per class..." << std::flush;
    cells.push_back(run_scale_cell(flows, per_class));
    const ScaleCell& c = cells.back();
    std::cerr << " " << c.classes << " classes, register " << c.register_s
              << " s, publish p50 " << c.publish_p50_ns / 1e3
              << " us, rss/flow " << c.rss_bytes_per_flow << " B, "
              << c.pps / 1e6 << " Mpps\n";
  }

  JsonWriter w;
  w.begin_object().key("scale_sweep").begin_array();
  for (const ScaleCell& c : cells) {
    w.begin_object().field("flows", c.flows);
    w.field("flows_per_class", c.flows_per_class);
    w.field("classes", c.classes).field("register_s", c.register_s);
    w.field("rss_delta_bytes", c.rss_delta_bytes);
    w.field("rss_bytes_per_flow", c.rss_bytes_per_flow);
    w.field("publish_p50_ns", c.publish_p50_ns);
    w.field("pps", c.pps).field("dequeued", c.dequeued);
    w.field("duration_s", c.duration_s).end_object();
  }
  w.end_array().field("scale_publish_ratio",
                      cells[0].publish_p50_ns > 0
                          ? cells[1].publish_p50_ns / cells[0].publish_p50_ns
                          : 0.0);
  w.end_object();

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  out << w.str() << '\n';
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
