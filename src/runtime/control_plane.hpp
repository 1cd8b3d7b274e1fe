// ControlPlane: the runtime's slow path, redesigned around FLOW CLASSES.
//
// Flows sharing one preference row Pi, one weight phi, and one queue bound
// are interned into a class (flow/class_table.hpp); the published
// configuration (RuntimeSnapshot) describes CLASSES, not flows.  Per-flow
// state shrinks to one lock-free directory word mapping FlowId -> ClassId;
// producers resolve a packet's route as flow -> class -> hosting shards.
//
// Mutations are CLASS DELTAS (ControlDelta): add members to a class, remove
// a member, move a member between classes, reweight a whole class.  Each
// delta applies its shard-side changes and then publishes ONE new snapshot;
// registering a million same-class flows via add_members(spec, 1'000'000)
// costs one publish.  The flow-level veneer (add_flow / remove_flow /
// set_weight / set_willing) is expressed in those deltas, so existing
// callers keep working while paying class-level publish costs.
//
// Cost model: a delta costs what it changes, not the size of the table.
//   * Snapshot class entries are immutable and shared between snapshots
//     (copy-on-write): a delta copies only the entries it edits, and a
//     publish copies one pointer per class plus the live list.  The
//     replaced versions are freed once the publish's grace period ends;
//     every other entry lives on in the new snapshot.
//   * Each class keeps an intrusive member list over the flow arena, so
//     members_of(), reweight_class and set_iface_down cost O(members) of
//     the classes involved, never a directory scan.
//   * A reweight takes each hosting shard's lock once for the whole member
//     span (ShardApplier::shard_set_weight).
//
// The paper's Section 4 requires that preference dynamics never disturb
// in-flight scheduling; here that translates to: producers and workers
// read a consistent class snapshot without blocking, and an update becomes
// visible as one atomic pointer swap -- a reader sees either the whole old
// configuration or the whole new one, never a torn mix.
//
// The control plane does not touch schedulers directly; it drives a
// ShardApplier (implemented by Runtime) so the registry/diff logic is unit
// testable without threads.  Shards keep PER-FLOW state (each member has
// its own queue there), so shard calls stay flow-grained.  Update ordering:
//   * member/coverage growth: apply to shards FIRST, then publish, then
//     point the directory at the class -- a producer can only route a
//     packet once the shard knows the flow AND the snapshot knows the
//     class.
//   * member/coverage shrink: clear the directory, publish, THEN drop the
//     flow from shards -- producers stop offering before a shard forgets
//     the flow; packets already sitting in ingress rings for a forgotten
//     flow are dropped by the fan-in stage (counted, never fatal).
// Writers are serialized by an internal mutex; readers never block.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "flow/class_table.hpp"
#include "flow/ids.hpp"
#include "runtime/rcu.hpp"

namespace midrr::rt {

/// Class identity + registration options for the runtime, with GLOBAL
/// interface ids (the runtime translates to per-shard scheduler ids).
/// Flows registered with equal (weight, willing, queue_capacity_bytes)
/// land in the same class; `name` labels the class (first writer wins) and
/// is not part of its identity.
struct ClassSpec {
  double weight = 1.0;
  std::vector<IfaceId> willing{};  ///< global interface ids
  std::string name{};
  std::uint64_t queue_capacity_bytes = 512 * 1024;  ///< per member per shard; 0 = unbounded
};

/// Flow-level registration is the same record: a flow is a one-member use
/// of its class.  Kept as an alias so shard-side code (which is per-flow)
/// and veneer callers share the type.
using RtFlowSpec = ClassSpec;

/// One class's entry in the published configuration.  Immutable once
/// published: snapshots share entries, and the control plane copies an
/// entry before a delta edits it.
struct SnapshotClass {
  ClassId id = kInvalidClass;
  bool live = false;  ///< has at least one member
  /// Live with a non-empty Pi row but no LIVE willing interface: members
  /// keep their preferences and ids, producers' offers are rejected and
  /// counted (never silently dropped), and the next revive re-steers the
  /// whole class back onto the data plane.
  bool quarantined = false;
  double weight = 1.0;              ///< per member
  std::uint64_t members = 0;
  std::vector<IfaceId> willing{};       ///< global iface ids, ascending
  std::vector<std::uint32_t> shards{};  ///< shards hosting the class, ascending
  std::string name{};
  std::uint64_t queue_capacity_bytes = 512 * 1024;
};

/// An immutable configuration snapshot.  Built by the control plane,
/// published via RCU, read lock-free by producers and workers.  O(classes),
/// never O(flows): flow membership lives in the control plane's directory
/// (ControlPlane::class_of), not here.  Class entries are owned by the
/// control plane and shared with the neighbouring snapshots; an entry
/// stays valid for as long as any snapshot pointing at it can be read.
struct RuntimeSnapshot {
  std::uint64_t version = 0;
  /// Indexed by ClassId; every minted id has an entry, live or not.
  std::vector<const SnapshotClass*> classes{};
  std::vector<ClassId> live{};  ///< live class ids, ascending
  std::size_t iface_count = 0;
  /// Administratively-dead interfaces (supervisor verdicts); empty means
  /// all up.  Indexed by global interface id when non-empty.
  std::vector<bool> iface_down{};

  const SnapshotClass* cls(ClassId id) const {
    return id < classes.size() && classes[id]->live ? classes[id] : nullptr;
  }
};

/// One mutation of the class configuration, reified.  apply() is the
/// single entry point scripts/tools drive the control plane through; the
/// named methods below are the same deltas with direct signatures.
struct ControlDelta {
  enum class Kind {
    kAddMembers,     ///< register `count` flows under `spec`'s class
    kRemoveMember,   ///< deregister flow `flow`
    kMoveMember,     ///< re-register flow `flow` under `spec`'s class
    kReweightClass,  ///< set class `cls`'s per-member weight to `weight`
  };
  Kind kind = Kind::kAddMembers;
  ClassSpec spec{};            ///< kAddMembers / kMoveMember: target class
  std::size_t count = 1;       ///< kAddMembers: number of flows to mint
  FlowId flow = kInvalidFlow;  ///< kRemoveMember / kMoveMember
  ClassId cls = kInvalidClass; ///< kReweightClass
  double weight = 1.0;         ///< kReweightClass
};

/// What the control plane needs from the data plane: apply one mutation to
/// one shard's scheduler (under that shard's lock, taken once per call).
/// Implemented by Runtime; mocked in tests.
class ShardApplier {
 public:
  virtual ~ShardApplier() = default;

  /// Registers `flow` in `shard` with the subset of `willing` hosted there.
  virtual void shard_add_flow(std::uint32_t shard, FlowId flow,
                              const RtFlowSpec& spec,
                              const std::vector<IfaceId>& willing_subset) = 0;
  virtual void shard_remove_flow(std::uint32_t shard, FlowId flow) = 0;
  /// Sets every flow of `flows` (all registered in `shard`) to `weight`.
  virtual void shard_set_weight(std::uint32_t shard,
                                std::span<const FlowId> flows,
                                double weight) = 0;
  virtual void shard_set_willing(std::uint32_t shard, FlowId flow,
                                 IfaceId iface, bool value) = 0;
};

class ControlPlane {
 public:
  /// `shard_of_iface[j]` maps global interface j to its shard.
  ControlPlane(ShardApplier& applier, std::vector<std::uint32_t> shard_of_iface,
               std::size_t max_flows);

  // --- Class deltas (any thread; serialized internally) -------------------

  /// Registers `count` flows as members of the class identified by `spec`
  /// (interned on first sight, revived if it had emptied).  Returns the
  /// first of `count` consecutive dense flow ids; ids are never reused
  /// (same contract as Preferences).  ONE publish regardless of `count`.
  FlowId add_members(const ClassSpec& spec, std::size_t count = 1);

  /// Deregisters one member; its queued packets in shards are discarded
  /// (counted as straggler drops at fan-in).  The class retires when its
  /// last member leaves and revives under the same id on a matching
  /// add_members.
  void remove_member(FlowId flow);

  /// Re-registers an existing member under `spec`'s class, preserving the
  /// flow id.  Shard coverage is diffed: queues survive on shards common
  /// to both classes; departed shards discard, new shards start empty.
  void move_member(FlowId flow, const ClassSpec& spec);

  /// Changes a whole class's per-member weight in one delta: every member
  /// moves to the class identified by the reweighted key (minted fresh, or
  /// MERGED into an existing class when the key collides).  Returns the
  /// members' new class id.  Shard queues survive (same Pi row, same
  /// hosting shards).
  ClassId reweight_class(ClassId cls, double weight);

  /// Applies one reified delta; returns the first minted flow id for
  /// kAddMembers, kInvalidFlow otherwise.
  FlowId apply(const ControlDelta& delta);

  // --- Flow-level veneer (the pre-class API, expressed as deltas) ---------

  /// Registers one flow (one-member delta).  Returns its global id.
  FlowId add_flow(const RtFlowSpec& spec) { return add_members(spec, 1); }

  void remove_flow(FlowId flow) { remove_member(flow); }

  /// phi update for ONE flow: moves it into the class with the new weight.
  void set_weight(FlowId flow, double weight);

  /// Pi update for ONE flow: moves it into the class with the edited row.
  void set_willing(FlowId flow, IfaceId iface, bool value);

  /// Marks a global interface administratively dead (or revives it) and
  /// re-steers every affected CLASS in ONE publish: hosting shards are
  /// recomputed over live willing interfaces only, newly-covered shards
  /// are registered (per member) before the publish, shards left without
  /// any live willing interface are dropped after it (their queued packets
  /// become counted straggler drops), and classes whose entire Pi row is
  /// dead are quarantined -- preferences kept, offers rejected upstream --
  /// until a revive re-steers them back.  Pi itself is never edited: the
  /// supervisor masks reality, the user still owns preferences (Section
  /// 4's contract).
  void set_iface_down(IfaceId iface, bool down);

  bool iface_down(IfaceId iface) const;

  /// Number of currently-quarantined live flows, i.e. summed members of
  /// quarantined classes (telemetry gauge; O(classes)).
  std::size_t quarantined_count() const;

  // --- Read side ---------------------------------------------------------

  /// The class a flow currently belongs to; kInvalidClass if the flow is
  /// not registered.  Lock-free (one acquire load of the directory word);
  /// safe from any thread, any rate.
  ClassId class_of(FlowId flow) const {
    if (flow >= max_flows_) return kInvalidClass;
    const std::uint32_t v = dir_[flow].load(std::memory_order_acquire);
    return v == 0 ? kInvalidClass : static_cast<ClassId>(v - 1);
  }

  /// Number of registered flows (lock-free gauge).
  std::size_t flow_count() const {
    return live_flows_.load(std::memory_order_relaxed);
  }

  /// Live flow ids, ascending.  O(max_flows) directory scan -- control
  /// path and epoch-change refreshes only, never per packet.
  std::vector<FlowId> live_flows() const;

  /// Members of one class, ascending.  O(members) walk of the class's
  /// member list under the writer lock (control path).
  std::vector<FlowId> members_of(ClassId cls) const;

  /// Claims a reader slot for the calling thread (hold one per thread,
  /// reuse it for every read).
  Rcu<RuntimeSnapshot>::Reader reader() { return Rcu<RuntimeSnapshot>::Reader(cell_); }

  std::uint64_t version() const;

  /// The RCU publication epoch (bumped once per publish).  One uncontended
  /// acquire load -- cheap enough to read per packet.  Producers key their
  /// per-flow route caches on this: a cached route tagged with the current
  /// epoch is as fresh as a snapshot read, up to the instant between the
  /// pointer swap and the epoch bump, where a reader can transiently act on
  /// the previous configuration -- indistinguishable from a packet that was
  /// already in flight, and absorbed by the same straggler-drop path.
  std::uint64_t epoch() const { return cell_.epoch(); }

  std::size_t max_flows() const { return max_flows_; }
  std::size_t iface_count() const { return shard_of_iface_.size(); }

  /// Classes with at least one member (telemetry gauge).
  std::size_t class_count() const;

  /// RCU epoch distance to the slowest in-flight reader (telemetry gauge).
  std::uint64_t max_reader_lag() const { return cell_.max_reader_lag(); }

 private:
  /// The published form of the writer state: shares every class entry
  /// (one pointer copy per class), copies the live list.
  std::unique_ptr<RuntimeSnapshot> clone_locked() const;
  /// Bumps the version, publishes clone_locked() and frees the entries the
  /// delta replaced (no reader can reach them once publish returns).
  void publish_locked();
  std::vector<std::uint32_t> shards_of(const std::vector<IfaceId>& willing) const;
  std::vector<IfaceId> willing_in_shard(const std::vector<IfaceId>& willing,
                                        std::uint32_t shard) const;
  std::vector<IfaceId> live_subset_locked(
      const std::vector<IfaceId>& willing) const;
  static RtFlowSpec spec_of(const SnapshotClass& entry);

  /// The writer's read-only view of class `cls`.
  const SnapshotClass& entry_locked(ClassId cls) const { return *classes_[cls]; }
  /// The writer's mutable view of class `cls`: the first edit after a
  /// publish copies the entry and retires the published one, so published
  /// entries never change.
  SnapshotClass& edit_locked(ClassId cls);

  /// Interns `spec`'s class, (re)initializing its entry if it is not
  /// currently live, and recomputing hosting shards.  Does not change
  /// member count and does not publish.
  ClassId intern_locked(const ClassSpec& spec);

  /// Bookkeeping after a membership change: live-list membership and
  /// quarantine state of one class.
  void refresh_liveness_locked(ClassId cls);

  /// Members of `cls` in join order, from its member list.
  std::vector<FlowId> members_locked(ClassId cls) const;

  /// Directory write, paired with the live-flow gauge and the member lists.
  void dir_store(FlowId flow, ClassId cls);
  void dir_clear(FlowId flow);
  void unlink_member(FlowId flow, ClassId cls);

  ShardApplier& applier_;
  std::vector<std::uint32_t> shard_of_iface_;
  std::size_t max_flows_;
  std::vector<bool> down_;  // guarded by mu_; empty until first set_iface_down

  // Writer state, guarded by mu_ (the source of truth the snapshots copy).
  mutable std::mutex mu_;
  std::uint64_t version_ = 0;
  /// Class entries by ClassId, each shared with the published snapshot
  /// unless edited since (edit_locked).  edited_in_[c] is the version
  /// entry c was last copied for; version_ + 1 means not yet published.
  std::vector<std::unique_ptr<SnapshotClass>> classes_;
  std::vector<std::uint64_t> edited_in_;
  /// Published entries replaced since the last publish.
  std::vector<std::unique_ptr<SnapshotClass>> replaced_;
  std::vector<ClassId> live_;  // live class ids, ascending
  ClassTable table_;           // ClassKey -> ClassId interning (global ids)
  FlowId next_flow_ = 0;
  /// Per-class member lists in join order, intrusive over the flow arena
  /// and kept equal to the directory by dir_store / dir_clear.
  struct MemberLink {
    FlowId prev = kInvalidFlow;
    FlowId next = kInvalidFlow;
  };
  struct MemberList {
    FlowId first = kInvalidFlow;
    FlowId last = kInvalidFlow;
  };
  std::vector<MemberLink> links_;    // by FlowId, sized next_flow_
  std::vector<MemberList> members_;  // by ClassId
  // flow -> class + 1; 0 = not registered.  Lock-free readers; writers
  // under mu_.  Sized max_flows once, so readers never race a reallocation.
  std::unique_ptr<std::atomic<std::uint32_t>[]> dir_;
  std::atomic<std::size_t> live_flows_{0};
  Rcu<RuntimeSnapshot> cell_;
};

}  // namespace midrr::rt
