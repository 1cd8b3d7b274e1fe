// Flow classification for the virtual-interface bridge.
//
// The bridge must map every application packet to the flow whose user
// preferences govern it.  Classification is rule-based (match on any
// subset of protocol / ports / destination address, first match wins,
// e.g. "TCP dst-port 443 to netflix.example -> flow `netflix`") with an
// exact 5-tuple cache in front, mirroring how the paper's kernel module
// pins individual connections to policy classes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "flow/ids.hpp"
#include "net/packet.hpp"

namespace midrr::bridge {

/// Connection identity (host byte order).
struct FiveTuple {
  net::Ipv4Address src_ip;
  net::Ipv4Address dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  net::IpProto proto = net::IpProto::kTcp;

  friend bool operator==(const FiveTuple&, const FiveTuple&) = default;

  /// Extracts the 5-tuple from a parsed frame; nullopt for non-TCP/UDP.
  static std::optional<FiveTuple> from(const net::FrameView& view);
};

struct FiveTupleHash {
  std::size_t operator()(const FiveTuple& t) const;
};

/// One classification rule; unset fields match anything.
struct ClassifierRule {
  std::optional<net::IpProto> proto{};
  std::optional<std::uint16_t> src_port{};
  std::optional<std::uint16_t> dst_port{};
  std::optional<net::Ipv4Address> dst_ip{};
  FlowId flow = kInvalidFlow;

  bool matches(const FiveTuple& t) const;
};

class FlowClassifier {
 public:
  /// Appends a rule (evaluated in insertion order; first match wins).
  void add_rule(ClassifierRule rule);

  /// Pins a specific connection to a flow (consulted before the rules).
  void pin(const FiveTuple& tuple, FlowId flow);

  /// Flow for unmatched traffic; kInvalidFlow (default) = drop.
  void set_default_flow(FlowId flow) { default_flow_ = flow; }

  /// Classifies a connection; kInvalidFlow means "drop".
  FlowId classify(const FiveTuple& tuple) const;

  /// Forgets every pin and cache entry referring to `flow` (flow removal).
  void remove_flow(FlowId flow);

  std::size_t rule_count() const { return rules_.size(); }

 private:
  std::vector<ClassifierRule> rules_;
  std::unordered_map<FiveTuple, FlowId, FiveTupleHash> pinned_;
  FlowId default_flow_ = kInvalidFlow;
};

}  // namespace midrr::bridge
