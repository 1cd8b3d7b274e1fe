#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace midrr::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kIfaceDown: return "iface_down";
    case FaultKind::kIfaceUp: return "iface_up";
    case FaultKind::kIfaceFlap: return "iface_flap";
    case FaultKind::kIfaceScale: return "iface_scale";
    case FaultKind::kWorkerStall: return "worker_stall";
    case FaultKind::kIngressDrop: return "ingress_drop";
    case FaultKind::kIngressDup: return "ingress_dup";
    case FaultKind::kIngressDelay: return "ingress_delay";
    case FaultKind::kPoolExhaust: return "pool_exhaust";
  }
  return "?";
}

namespace {

[[noreturn]] void fail(std::size_t index, const std::string& what) {
  throw std::runtime_error("fault plan: event " + std::to_string(index) +
                           ": " + what);
}

FaultKind parse_kind(std::size_t index, const std::string& name) {
  for (const FaultKind k :
       {FaultKind::kIfaceDown, FaultKind::kIfaceUp, FaultKind::kIfaceFlap,
        FaultKind::kIfaceScale, FaultKind::kWorkerStall,
        FaultKind::kIngressDrop, FaultKind::kIngressDup,
        FaultKind::kIngressDelay, FaultKind::kPoolExhaust}) {
    if (name == to_string(k)) return k;
  }
  fail(index, "unknown kind \"" + name + "\"");
}

/// Required fields per kind, beyond the universal at_ms/kind; everything
/// else present must come from the optional set.
struct FieldSpec {
  std::set<std::string> required;
  std::set<std::string> optional;
};

FieldSpec fields_for(FaultKind kind) {
  switch (kind) {
    case FaultKind::kIfaceDown: return {{"iface"}, {}};
    case FaultKind::kIfaceUp: return {{"iface"}, {}};
    case FaultKind::kIfaceFlap:
      return {{"iface", "period_ms", "duration_ms"}, {"duty"}};
    case FaultKind::kIfaceScale:
      return {{"iface", "scale", "duration_ms"}, {}};
    case FaultKind::kWorkerStall: return {{"worker", "duration_ms"}, {}};
    case FaultKind::kIngressDrop:
    case FaultKind::kIngressDup:
      return {{"probability", "duration_ms"}, {}};
    case FaultKind::kIngressDelay:
      return {{"probability", "delay_ms", "duration_ms"}, {}};
    case FaultKind::kPoolExhaust: return {{"duration_ms"}, {}};
  }
  return {};
}

/// Upper bound of every *_ms field, about 11.6 days.  Nanosecond counts
/// then stay below 2^51 (where the ms_field round trip is exact), and
/// sums such as at_ns + duration_ns stay far inside SimTime.
constexpr double kMaxMs = 1e9;
/// Bounds of the integer fields, checked before their casts.
constexpr double kMaxIface = static_cast<double>(kInvalidIface) - 1;
constexpr double kMaxWorker = std::numeric_limits<std::uint32_t>::max();
constexpr double kSeedLimit = 18446744073709551616.0;  // 2^64, exclusive

SimDuration ms_to_ns(double ms) {
  return static_cast<SimDuration>(ms * 1e6 + 0.5);
}

double number_field(const JsonValue& obj, std::size_t index,
                    const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) fail(index, "missing field \"" + key + "\"");
  try {
    return v->as_number();
  } catch (const std::exception&) {
    fail(index, "field \"" + key + "\" must be a number");
  }
}

/// `key`, a millisecond count in [0, kMaxMs] (> 0 unless `zero_ok`), in
/// nanoseconds.
SimDuration ms_field_ns(const JsonValue& obj, std::size_t index,
                        const std::string& key, bool zero_ok) {
  const double v = number_field(obj, index, key);
  if (zero_ok ? v < 0 : v <= 0) {
    fail(index, key + (zero_ok ? " must be >= 0" : " must be > 0"));
  }
  if (!(v <= kMaxMs)) fail(index, key + " must be <= 1e9 (about 11.6 days)");
  return ms_to_ns(v);
}

/// `key` as a whole number in [0, max].
double index_number(const JsonValue& obj, std::size_t index,
                    const std::string& key, double max) {
  const double v = number_field(obj, index, key);
  if (!(v >= 0 && v <= max) || v != std::floor(v)) {
    fail(index, key + " must be an index <= " +
                    std::to_string(static_cast<std::uint64_t>(max)));
  }
  return v;
}

/// Nanoseconds as milliseconds: integral values as integers so
/// hand-written plans ("at_ms": 100) survive a round trip, where the
/// shortest double form could switch to an exponent ("1e+05").
/// Fractional values print shortest-round-trip; ms_to_ns recovers the
/// exact nanosecond count because the absolute error of ns/1e6*1e6 is far
/// below the +0.5 rounding slack for any ns < 2^51.
JsonWriter& ms_field(JsonWriter& w, const char* key, SimDuration ns) {
  if (ns % 1'000'000 == 0) return w.field(key, ns / 1'000'000);
  return w.field(key, static_cast<double>(ns) / 1e6);
}

}  // namespace

SimTime FaultPlan::horizon_ns() const {
  SimTime horizon = 0;
  for (const FaultEvent& e : events) {
    if (e.kind == FaultKind::kIfaceDown) {
      // Open-ended unless a later iface_up revives this interface.
      const bool revived = std::any_of(
          events.begin(), events.end(), [&](const FaultEvent& later) {
            return later.kind == FaultKind::kIfaceUp &&
                   later.iface == e.iface && later.at_ns >= e.at_ns;
          });
      if (!revived) return kSimTimeMax;
    }
    horizon = std::max(horizon, e.at_ns + e.duration_ns);
  }
  return horizon;
}

FaultPlan FaultPlan::parse_json(std::string_view text) {
  const JsonValue doc = JsonValue::parse(text);
  if (!doc.is_object()) {
    throw std::runtime_error("fault plan: top level must be an object");
  }
  for (const std::string& key : doc.keys()) {
    if (key != "seed" && key != "events" && key != "observed") {
      throw std::runtime_error("fault plan: unknown top-level key \"" + key +
                               "\"");
    }
  }
  FaultPlan plan;
  if (const JsonValue* seed = doc.find("seed"); seed != nullptr) {
    const double s = seed->as_number();
    if (!(s >= 0 && s < kSeedLimit) || s != std::floor(s)) {
      throw std::runtime_error(
          "fault plan: seed must be a whole number in [0, 2^64)");
    }
    plan.seed = static_cast<std::uint64_t>(s);
  }
  const JsonValue* events = doc.find("events");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error("fault plan: missing \"events\" array");
  }
  std::size_t index = 0;
  for (const JsonValue& entry : events->as_array()) {
    if (!entry.is_object()) fail(index, "must be an object");
    const JsonValue* kind_v = entry.find("kind");
    if (kind_v == nullptr) fail(index, "missing field \"kind\"");
    FaultEvent e;
    e.kind = parse_kind(index, kind_v->as_string());
    const FieldSpec spec = fields_for(e.kind);
    for (const std::string& key : entry.keys()) {
      if (key == "kind" || key == "at_ms") continue;
      if (spec.required.count(key) == 0 && spec.optional.count(key) == 0) {
        fail(index, std::string("unknown field \"") + key + "\" for kind " +
                        to_string(e.kind));
      }
    }
    e.at_ns = ms_field_ns(entry, index, "at_ms", true);
    for (const std::string& key : spec.required) {
      if (entry.find(key) == nullptr) {
        fail(index, std::string("kind ") + to_string(e.kind) +
                        " requires field \"" + key + "\"");
      }
    }
    if (entry.find("iface") != nullptr) {
      e.iface =
          static_cast<IfaceId>(index_number(entry, index, "iface", kMaxIface));
    }
    if (entry.find("worker") != nullptr) {
      e.worker = static_cast<std::uint32_t>(
          index_number(entry, index, "worker", kMaxWorker));
    }
    if (entry.find("duration_ms") != nullptr) {
      e.duration_ns = ms_field_ns(entry, index, "duration_ms", false);
    }
    if (entry.find("period_ms") != nullptr) {
      e.period_ns = ms_field_ns(entry, index, "period_ms", false);
    }
    if (entry.find("delay_ms") != nullptr) {
      e.delay_ns = ms_field_ns(entry, index, "delay_ms", false);
    }
    if (entry.find("probability") != nullptr) {
      e.probability = number_field(entry, index, "probability");
      if (e.probability < 0.0 || e.probability > 1.0) {
        fail(index, "probability must be in [0, 1]");
      }
    }
    if (entry.find("scale") != nullptr) {
      e.scale = number_field(entry, index, "scale");
      if (e.scale < 0.0 || e.scale > 1.0) {
        fail(index, "scale must be in [0, 1] (use iface_up to restore)");
      }
    }
    if (entry.find("duty") != nullptr) {
      e.duty = number_field(entry, index, "duty");
      if (e.duty <= 0.0 || e.duty >= 1.0) {
        fail(index, "duty must be in (0, 1)");
      }
    }
    plan.events.push_back(e);
    ++index;
  }
  std::stable_sort(
      plan.events.begin(), plan.events.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at_ns < b.at_ns; });
  if (const JsonValue* observed = doc.find("observed"); observed != nullptr) {
    if (!observed->is_array()) {
      throw std::runtime_error("fault plan: \"observed\" must be an array");
    }
    std::size_t note_index = 0;
    for (const JsonValue& entry : observed->as_array()) {
      const auto note_fail = [&](const std::string& what) -> void {
        throw std::runtime_error("fault plan: observed " +
                                 std::to_string(note_index) + ": " + what);
      };
      if (!entry.is_object()) note_fail("must be an object");
      for (const std::string& key : entry.keys()) {
        if (key != "at_ms" && key != "note") {
          note_fail("unknown field \"" + key + "\"");
        }
      }
      const JsonValue* at = entry.find("at_ms");
      const JsonValue* note = entry.find("note");
      if (at == nullptr) note_fail("missing field \"at_ms\"");
      if (note == nullptr) note_fail("missing field \"note\"");
      const double at_ms = at->as_number();
      if (at_ms < 0) note_fail("at_ms must be >= 0");
      if (!(at_ms <= kMaxMs)) {
        note_fail("at_ms must be <= 1e9 (about 11.6 days)");
      }
      plan.observed.push_back(ObservedNote{ms_to_ns(at_ms), note->as_string()});
      ++note_index;
    }
    std::stable_sort(plan.observed.begin(), plan.observed.end(),
                     [](const ObservedNote& a, const ObservedNote& b) {
                       return a.at_ns < b.at_ns;
                     });
  }
  return plan;
}

std::string FaultPlan::to_json() const {
  std::vector<FaultEvent> sorted = events;
  std::stable_sort(
      sorted.begin(), sorted.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at_ns < b.at_ns; });
  std::vector<ObservedNote> notes = observed;
  std::stable_sort(notes.begin(), notes.end(),
                   [](const ObservedNote& a, const ObservedNote& b) {
                     return a.at_ns < b.at_ns;
                   });
  JsonWriter w;
  w.begin_object().field("seed", seed).key("events").begin_array();
  for (const FaultEvent& e : sorted) {
    ms_field(w.begin_object(), "at_ms", e.at_ns)
        .field("kind", to_string(e.kind));
    switch (e.kind) {
      case FaultKind::kIfaceDown:
      case FaultKind::kIfaceUp:
        w.field("iface", e.iface);
        break;
      case FaultKind::kIfaceFlap:
        ms_field(w.field("iface", e.iface), "period_ms", e.period_ns)
            .field("duty", e.duty);
        break;
      case FaultKind::kIfaceScale:
        w.field("iface", e.iface).field("scale", e.scale);
        break;
      case FaultKind::kWorkerStall:
        w.field("worker", e.worker);
        break;
      case FaultKind::kIngressDrop:
      case FaultKind::kIngressDup:
        w.field("probability", e.probability);
        break;
      case FaultKind::kIngressDelay:
        ms_field(w.field("probability", e.probability), "delay_ms", e.delay_ns);
        break;
      case FaultKind::kPoolExhaust:
        break;
    }
    if (e.kind != FaultKind::kIfaceDown && e.kind != FaultKind::kIfaceUp) {
      ms_field(w, "duration_ms", e.duration_ns);
    }
    w.end_object();
  }
  w.end_array();
  if (!notes.empty()) {
    w.key("observed").begin_array();
    for (const ObservedNote& n : notes) {
      ms_field(w.begin_object(), "at_ms", n.at_ns).field("note", n.note);
      w.end_object();
    }
    w.end_array();
  }
  return w.end_object().str();
}

void FaultPlan::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("fault plan: cannot write " + path);
  }
  out << to_json() << '\n';
  if (!out.flush()) {
    throw std::runtime_error("fault plan: write failed for " + path);
  }
}

FaultPlan FaultPlan::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("fault plan: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_json(buffer.str());
}

}  // namespace midrr::fault
