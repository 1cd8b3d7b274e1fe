// ControlPlane + Rcu: class-delta registry logic against a mock
// ShardApplier (apply-vs-publish ordering, Pi-row interning and dedup,
// shard coverage growth and shrink, batch registration with one publish),
// and the snapshot-swap guarantee -- concurrent readers see a whole old or
// whole new configuration, never a torn mix.
#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "runtime/control_plane.hpp"
#include "runtime/rcu.hpp"
#include "util/assert.hpp"

namespace midrr::rt {
namespace {

/// Records every mutation, interleaved with the publish version at which it
/// arrived (so ordering relative to publication is checkable).
class RecordingApplier : public ShardApplier {
 public:
  struct Op {
    std::string kind;
    std::uint32_t shard;
    FlowId flow;
    std::vector<IfaceId> willing_subset;
    double weight = 0.0;  ///< "add" and "weight" ops
  };

  void shard_add_flow(std::uint32_t shard, FlowId flow, const RtFlowSpec& spec,
                      const std::vector<IfaceId>& willing_subset) override {
    ops.push_back({"add", shard, flow, willing_subset, spec.weight});
  }
  void shard_remove_flow(std::uint32_t shard, FlowId flow) override {
    ops.push_back({"remove", shard, flow, {}, 0.0});
  }
  void shard_set_weight(std::uint32_t shard, std::span<const FlowId> flows,
                        double weight) override {
    ++weight_calls;
    for (const FlowId flow : flows) {
      ops.push_back({"weight", shard, flow, {}, weight});
    }
  }
  void shard_set_willing(std::uint32_t shard, FlowId flow, IfaceId iface,
                         bool value) override {
    ops.push_back({value ? "willing+" : "willing-", shard, flow, {iface}, 0.0});
  }

  std::vector<Op> ops;
  std::size_t weight_calls = 0;  ///< shard_set_weight calls (shard locks)
};

// Topology for most tests: 4 interfaces on 2 shards (0,1,0,1).
std::vector<std::uint32_t> two_shards() { return {0, 1, 0, 1}; }

TEST(ControlPlane, AddFlowReachesEveryHostingShardWithLocalSubset) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  // Shard 0 hosts {0, 2}, shard 1 hosts {1}.
  RtFlowSpec spec{.willing = {0, 1, 2}};
  const FlowId f = cp.add_flow(spec);
  ASSERT_EQ(applier.ops.size(), 2u);
  EXPECT_EQ(applier.ops[0].kind, "add");
  EXPECT_EQ(applier.ops[0].shard, 0u);
  EXPECT_EQ(applier.ops[0].willing_subset, (std::vector<IfaceId>{0, 2}));
  EXPECT_EQ(applier.ops[1].shard, 1u);
  EXPECT_EQ(applier.ops[1].willing_subset, (std::vector<IfaceId>{1}));

  const ClassId cls = cp.class_of(f);
  ASSERT_NE(cls, kInvalidClass);
  auto reader = cp.reader();
  const auto guard = reader.lock();
  const SnapshotClass* entry = guard->cls(cls);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->shards, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(entry->members, 1u);
  EXPECT_EQ(guard->live, std::vector<ClassId>{cls});
}

TEST(ControlPlane, AddAppliesBeforeDirectoryRemoveClearsDirectoryBefore) {
  // The ordering invariant, observed through the applier: at the moment
  // shard_add_flow runs, producers must not yet resolve the flow (its
  // directory word is stored only after the publish); at the moment
  // shard_remove_flow runs the directory must ALREADY have dropped it.
  class OrderChecker : public ShardApplier {
   public:
    void shard_add_flow(std::uint32_t, FlowId flow, const RtFlowSpec&,
                        const std::vector<IfaceId>&) override {
      EXPECT_EQ(cp->class_of(flow), kInvalidClass)
          << "flow resolvable before the shard knew it";
    }
    void shard_remove_flow(std::uint32_t, FlowId flow) override {
      EXPECT_EQ(cp->class_of(flow), kInvalidClass)
          << "flow still resolvable after the shard forgot it";
    }
    void shard_set_weight(std::uint32_t, std::span<const FlowId>,
                          double) override {}
    void shard_set_willing(std::uint32_t, FlowId, IfaceId, bool) override {}
    ControlPlane* cp = nullptr;
  };

  OrderChecker applier;
  ControlPlane cp(applier, two_shards(), 16);
  applier.cp = &cp;
  RtFlowSpec spec{.willing = {0, 1}};
  const FlowId f = cp.add_flow(spec);
  EXPECT_NE(cp.class_of(f), kInvalidClass);
  cp.remove_flow(f);
  EXPECT_EQ(cp.class_of(f), kInvalidClass);
}

TEST(ControlPlane, EqualSpecsInternIntoOneClass) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec spec{.willing = {0, 1}};
  const FlowId a = cp.add_flow(spec);
  const FlowId b = cp.add_flow(spec);
  EXPECT_EQ(cp.class_of(a), cp.class_of(b));
  EXPECT_EQ(cp.class_count(), 1u);
  EXPECT_EQ(cp.flow_count(), 2u);

  RtFlowSpec heavier = spec;
  heavier.weight = 2.0;
  const FlowId c = cp.add_flow(heavier);
  EXPECT_NE(cp.class_of(c), cp.class_of(a)) << "weight is class identity";
  RtFlowSpec bounded = spec;
  bounded.queue_capacity_bytes = 1024;
  const FlowId d = cp.add_flow(bounded);
  EXPECT_NE(cp.class_of(d), cp.class_of(a)) << "queue bound is class identity";
  EXPECT_EQ(cp.class_count(), 3u);
  EXPECT_EQ(cp.members_of(cp.class_of(a)), (std::vector<FlowId>{a, b}));
}

TEST(ControlPlane, AddMembersRegistersABatchUnderOnePublish) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 64);
  const std::uint64_t v0 = cp.version();
  ClassSpec spec;
  spec.willing = {0, 1};
  const FlowId first = cp.add_members(spec, 40);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(cp.version(), v0 + 1) << "one publish for the whole batch";
  EXPECT_EQ(applier.ops.size(), 80u) << "40 members x 2 hosting shards";
  EXPECT_EQ(cp.flow_count(), 40u);
  const ClassId cls = cp.class_of(first);
  for (FlowId f = first; f < first + 40; ++f) {
    EXPECT_EQ(cp.class_of(f), cls) << "batch members land in one class";
  }
  auto reader = cp.reader();
  const auto guard = reader.lock();
  ASSERT_NE(guard->cls(cls), nullptr);
  EXPECT_EQ(guard->cls(cls)->members, 40u);
  EXPECT_EQ(guard->live.size(), 1u) << "snapshot size is O(classes)";
}

TEST(ControlPlane, ApplyDrivesEveryDeltaKind) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  ControlDelta add;
  add.kind = ControlDelta::Kind::kAddMembers;
  add.spec.willing = {0};
  add.count = 3;
  const FlowId first = cp.apply(add);
  EXPECT_EQ(cp.flow_count(), 3u);

  ControlDelta move;
  move.kind = ControlDelta::Kind::kMoveMember;
  move.flow = first;
  move.spec.willing = {1};
  EXPECT_EQ(cp.apply(move), kInvalidFlow);
  EXPECT_NE(cp.class_of(first), cp.class_of(first + 1));

  ControlDelta reweight;
  reweight.kind = ControlDelta::Kind::kReweightClass;
  reweight.cls = cp.class_of(first + 1);
  reweight.weight = 2.0;
  cp.apply(reweight);
  {
    auto reader = cp.reader();
    const auto guard = reader.lock();
    EXPECT_EQ(guard->cls(cp.class_of(first + 1))->weight, 2.0);
  }

  ControlDelta remove;
  remove.kind = ControlDelta::Kind::kRemoveMember;
  remove.flow = first + 2;
  cp.apply(remove);
  EXPECT_EQ(cp.flow_count(), 2u);
}

TEST(ControlPlane, ClassRetiresAndRevivesUnderTheSameId) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec spec{.willing = {0, 1}};
  const FlowId a = cp.add_flow(spec);
  const ClassId cls = cp.class_of(a);
  cp.remove_flow(a);
  EXPECT_EQ(cp.class_count(), 0u);
  {
    auto reader = cp.reader();
    EXPECT_EQ(reader.lock()->cls(cls), nullptr) << "emptied class retired";
  }
  const FlowId b = cp.add_flow(spec);
  EXPECT_EQ(cp.class_of(b), cls) << "matching key revives the same class id";
  EXPECT_EQ(b, a + 1) << "flow ids are never recycled";
}

TEST(ControlPlane, ReweightClassMovesEveryMemberInOnePublish) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  ClassSpec spec;
  spec.willing = {0, 1};
  const FlowId first = cp.add_members(spec, 3);
  const ClassId before = cp.class_of(first);
  applier.ops.clear();
  const std::uint64_t v = cp.version();

  const ClassId after = cp.reweight_class(before, 2.0);
  EXPECT_NE(after, before);
  EXPECT_EQ(cp.version(), v + 1) << "one publish for the whole class";
  EXPECT_EQ(applier.ops.size(), 6u) << "3 members x 2 hosting shards";
  EXPECT_EQ(applier.weight_calls, 2u) << "one shard lock per hosting shard";
  for (const auto& op : applier.ops) EXPECT_EQ(op.kind, "weight");
  for (FlowId f = first; f < first + 3; ++f) {
    EXPECT_EQ(cp.class_of(f), after);
  }
  auto reader = cp.reader();
  const auto guard = reader.lock();
  EXPECT_EQ(guard->cls(before), nullptr) << "source class retired";
  ASSERT_NE(guard->cls(after), nullptr);
  EXPECT_EQ(guard->cls(after)->members, 3u);
  EXPECT_EQ(guard->cls(after)->weight, 2.0);
}

TEST(ControlPlane, ReweightMergesIntoAnExistingClass) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  ClassSpec spec;
  spec.willing = {0};
  const FlowId light = cp.add_members(spec, 2);
  ClassSpec heavy = spec;
  heavy.weight = 2.0;
  const FlowId anchor = cp.add_flow(heavy);
  const ClassId target = cp.class_of(anchor);

  EXPECT_EQ(cp.reweight_class(cp.class_of(light), 2.0), target);
  EXPECT_EQ(cp.class_of(light), target);
  EXPECT_EQ(cp.class_count(), 1u);
  auto reader = cp.reader();
  EXPECT_EQ(reader.lock()->cls(target)->members, 3u);
}

TEST(ControlPlane, SetWillingGrowsAndShrinksShardCoverage) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec spec{.willing = {0}};  // shard 0 only
  const FlowId f = cp.add_flow(spec);
  applier.ops.clear();

  cp.set_willing(f, 1, true);  // first iface on shard 1: coverage grows
  ASSERT_EQ(applier.ops.size(), 1u);
  EXPECT_EQ(applier.ops[0].kind, "add");
  EXPECT_EQ(applier.ops[0].shard, 1u);
  EXPECT_EQ(applier.ops[0].willing_subset, std::vector<IfaceId>{1});

  cp.set_willing(f, 3, true);  // second iface on shard 1: plain flip
  ASSERT_EQ(applier.ops.size(), 2u);
  EXPECT_EQ(applier.ops[1].kind, "willing+");

  cp.set_willing(f, 1, false);  // shard 1 still hosts iface 3: plain flip
  ASSERT_EQ(applier.ops.size(), 3u);
  EXPECT_EQ(applier.ops[2].kind, "willing-");

  cp.set_willing(f, 3, false);  // last iface on shard 1: coverage shrinks
  ASSERT_EQ(applier.ops.size(), 4u);
  EXPECT_EQ(applier.ops[3].kind, "remove");
  EXPECT_EQ(applier.ops[3].shard, 1u);

  auto reader = cp.reader();
  const auto guard = reader.lock();
  const SnapshotClass* entry = guard->cls(cp.class_of(f));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->shards, std::vector<std::uint32_t>{0});
  EXPECT_EQ(entry->willing, std::vector<IfaceId>{0});
}

TEST(ControlPlane, MoveBetweenClassesPreservesTheFlowId) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec spec{.willing = {0, 1}};
  const FlowId f = cp.add_flow(spec);
  cp.add_flow(spec);  // keeps the source class alive after the move
  const ClassId before = cp.class_of(f);

  cp.set_weight(f, 3.0);
  const ClassId after = cp.class_of(f);
  EXPECT_NE(after, before);
  auto reader = cp.reader();
  const auto guard = reader.lock();
  EXPECT_EQ(guard->cls(before)->members, 1u);
  EXPECT_EQ(guard->cls(after)->members, 1u);
  EXPECT_EQ(guard->cls(after)->weight, 3.0);
}

TEST(ControlPlane, RedundantUpdatesAreNoOps) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec spec{.willing = {0}};
  const FlowId f = cp.add_flow(spec);
  const std::uint64_t v = cp.version();
  applier.ops.clear();
  cp.set_willing(f, 0, true);   // already willing
  cp.set_willing(f, 1, false);  // already not
  cp.set_weight(f, 1.0);        // same weight: same class identity
  cp.reweight_class(cp.class_of(f), 1.0);
  EXPECT_TRUE(applier.ops.empty());
  EXPECT_EQ(cp.version(), v);
}

TEST(ControlPlane, RejectsBadInputs) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 2);
  EXPECT_THROW(cp.add_flow({.weight = 0.0}), PreconditionError);
  EXPECT_THROW(cp.remove_flow(0), PreconditionError);
  RtFlowSpec bad{.willing = {9}};  // unknown interface
  EXPECT_THROW(cp.add_flow(bad), PreconditionError);
  RtFlowSpec ok{.willing = {0}};
  const FlowId f = cp.add_flow(ok);
  cp.add_flow(ok);
  EXPECT_THROW(cp.add_flow(ok), PreconditionError) << "arena bound";
  EXPECT_THROW(cp.set_weight(f, -1.0), PreconditionError);
  EXPECT_THROW(cp.reweight_class(kInvalidClass, 2.0), PreconditionError);
  EXPECT_THROW(cp.add_members(ok, 0), PreconditionError);
  cp.remove_flow(f);
  EXPECT_THROW(cp.set_weight(f, 1.0), PreconditionError) << "dead flow";
}

TEST(ControlPlane, FlowIdsAreDenseAndNeverReused) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 8);
  RtFlowSpec spec{.willing = {0}};
  const FlowId a = cp.add_flow(spec);
  const FlowId b = cp.add_flow(spec);
  cp.remove_flow(a);
  const FlowId c = cp.add_flow(spec);
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(c, b + 1) << "removing a flow must not recycle its id";
}

TEST(ControlPlane, IfaceDownReSteersAndQuarantinesInOnePublish) {
  // Kill interface 0 under two classes: x{0, 1} survives on interface 1
  // (so its member must LEAVE shard 0), y{0} has nowhere to go (so the
  // class is quarantined: still live, still holding its preferences, but
  // routing nowhere).
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec x_spec{.willing = {0, 1}};
  const FlowId x = cp.add_flow(x_spec);
  RtFlowSpec y_spec{.willing = {0}};
  const FlowId y = cp.add_flow(y_spec);
  applier.ops.clear();
  const std::uint64_t v = cp.version();

  cp.set_iface_down(0, true);
  EXPECT_TRUE(cp.iface_down(0));
  EXPECT_EQ(cp.version(), v + 1) << "one publish for the whole transition";
  EXPECT_EQ(cp.quarantined_count(), 1u);
  ASSERT_EQ(applier.ops.size(), 2u);
  EXPECT_EQ(applier.ops[0].kind, "remove");  // x leaves shard 0
  EXPECT_EQ(applier.ops[0].shard, 0u);
  EXPECT_EQ(applier.ops[0].flow, x);
  EXPECT_EQ(applier.ops[1].kind, "remove");  // y leaves its only shard
  EXPECT_EQ(applier.ops[1].flow, y);
  {
    auto reader = cp.reader();
    const auto guard = reader.lock();
    const SnapshotClass* xc = guard->cls(cp.class_of(x));
    const SnapshotClass* yc = guard->cls(cp.class_of(y));
    ASSERT_NE(xc, nullptr);
    ASSERT_NE(yc, nullptr);
    EXPECT_EQ(xc->shards, std::vector<std::uint32_t>{1});
    EXPECT_FALSE(xc->quarantined);
    EXPECT_EQ(xc->willing, (std::vector<IfaceId>{0, 1}))
        << "preferences are reality-masked, not edited";
    EXPECT_TRUE(yc->shards.empty());
    EXPECT_TRUE(yc->quarantined);
    EXPECT_EQ(guard->live.size(), 2u)
        << "quarantined classes stay live (their offers are counted rejects)";
    ASSERT_EQ(guard->iface_down.size(), 4u);
    EXPECT_TRUE(guard->iface_down[0]);
  }

  applier.ops.clear();
  cp.set_iface_down(0, false);
  EXPECT_FALSE(cp.iface_down(0));
  EXPECT_EQ(cp.quarantined_count(), 0u);
  // Both members are re-registered on shard 0 (with the interface-0 subset)
  // BEFORE the publish that re-opens routing to it.
  ASSERT_EQ(applier.ops.size(), 2u);
  EXPECT_EQ(applier.ops[0].kind, "add");
  EXPECT_EQ(applier.ops[0].shard, 0u);
  EXPECT_EQ(applier.ops[0].flow, x);
  EXPECT_EQ(applier.ops[0].willing_subset, std::vector<IfaceId>{0});
  EXPECT_EQ(applier.ops[1].kind, "add");
  EXPECT_EQ(applier.ops[1].flow, y);
  auto reader = cp.reader();
  const auto guard = reader.lock();
  EXPECT_EQ(guard->cls(cp.class_of(x))->shards,
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_FALSE(guard->cls(cp.class_of(y))->quarantined);
}

TEST(ControlPlane, IfaceDownFlipsWillingOnAStillHostingShard) {
  // Class {0, 2}: both interfaces live on shard 0.  Killing interface 0
  // must not drop the shard (interface 2 still hosts the class there) but
  // MUST clear the dead interface's willing bit in the shard scheduler --
  // otherwise miDRR keeps granting turns to a dead link.
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec spec{.willing = {0, 2}};
  const FlowId f = cp.add_flow(spec);
  applier.ops.clear();

  cp.set_iface_down(0, true);
  ASSERT_EQ(applier.ops.size(), 1u);
  EXPECT_EQ(applier.ops[0].kind, "willing-");
  EXPECT_EQ(applier.ops[0].shard, 0u);
  EXPECT_EQ(applier.ops[0].willing_subset, std::vector<IfaceId>{0});
  {
    auto reader = cp.reader();
    const auto guard = reader.lock();
    EXPECT_EQ(guard->cls(cp.class_of(f))->shards,
              std::vector<std::uint32_t>{0});
  }

  applier.ops.clear();
  cp.set_iface_down(0, false);
  ASSERT_EQ(applier.ops.size(), 1u);
  EXPECT_EQ(applier.ops[0].kind, "willing+");
  EXPECT_EQ(applier.ops[0].willing_subset, std::vector<IfaceId>{0});
}

TEST(ControlPlane, IfaceDownIsIdempotentAndValidated) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec spec{.willing = {0}};
  cp.add_flow(spec);
  EXPECT_THROW(cp.set_iface_down(9, true), PreconditionError);
  cp.set_iface_down(0, true);
  const std::uint64_t v = cp.version();
  applier.ops.clear();
  cp.set_iface_down(0, true);  // already down: no publish, no ops
  EXPECT_TRUE(applier.ops.empty());
  EXPECT_EQ(cp.version(), v);
}

TEST(ControlPlane, FlowsAddedWhileIfaceIsDownRouteAroundIt) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  cp.set_iface_down(0, true);
  RtFlowSpec spec{.willing = {0, 1}};
  const FlowId f = cp.add_flow(spec);
  ASSERT_EQ(applier.ops.size(), 1u);
  EXPECT_EQ(applier.ops[0].kind, "add");
  EXPECT_EQ(applier.ops[0].shard, 1u) << "dead interface's shard is skipped";
  auto reader = cp.reader();
  const auto guard = reader.lock();
  EXPECT_EQ(guard->cls(cp.class_of(f))->shards, std::vector<std::uint32_t>{1});
}

TEST(ControlPlane, LiveFlowsScansTheDirectory) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec spec{.willing = {0}};
  const FlowId a = cp.add_flow(spec);
  const FlowId b = cp.add_flow(spec);
  const FlowId c = cp.add_flow(spec);
  cp.remove_flow(b);
  EXPECT_EQ(cp.live_flows(), (std::vector<FlowId>{a, c}));
  EXPECT_EQ(cp.flow_count(), 2u);
}

// --- Seeded ControlDelta sequences against a from-scratch model ----------

/// What the model knows about a flow: its class identity.
struct ModelKey {
  double weight = 1.0;
  std::vector<IfaceId> willing;  ///< ascending
  auto operator<=>(const ModelKey&) const = default;
};

/// One flow's registration in one shard, as the applier's ops left it.
struct ShardEntry {
  double weight = 0.0;
  std::vector<IfaceId> willing;  ///< ascending
  bool operator==(const ShardEntry&) const = default;
};

bool same_entry(const SnapshotClass& a, const SnapshotClass& b) {
  return a.id == b.id && a.live == b.live && a.quarantined == b.quarantined &&
         a.weight == b.weight && a.members == b.members &&
         a.willing == b.willing && a.shards == b.shards && a.name == b.name &&
         a.queue_capacity_bytes == b.queue_capacity_bytes;
}

class ControlDeltaModel {
 public:
  explicit ControlDeltaModel(std::vector<std::uint32_t> shard_of_iface)
      : shard_of_iface_(std::move(shard_of_iface)),
        down_(shard_of_iface_.size(), false) {}

  std::map<FlowId, ModelKey> flows;

  void set_down(IfaceId iface, bool down) { down_[iface] = down; }
  bool down(IfaceId iface) const { return down_[iface]; }

  std::vector<IfaceId> live_willing(const ModelKey& key) const {
    std::vector<IfaceId> out;
    for (const IfaceId j : key.willing) {
      if (!down_[j]) out.push_back(j);
    }
    return out;
  }

  std::vector<std::uint32_t> shards(const ModelKey& key) const {
    std::set<std::uint32_t> out;
    for (const IfaceId j : live_willing(key)) out.insert(shard_of_iface_[j]);
    return {out.begin(), out.end()};
  }

  /// Members grouped by class identity, rebuilt from the flow map.
  std::map<ModelKey, std::vector<FlowId>> groups() const {
    std::map<ModelKey, std::vector<FlowId>> out;
    for (const auto& [flow, key] : flows) out[key].push_back(flow);
    return out;
  }

  /// The shard-side registrations every live flow must have.
  std::map<std::pair<std::uint32_t, FlowId>, ShardEntry> shard_state() const {
    std::map<std::pair<std::uint32_t, FlowId>, ShardEntry> out;
    for (const auto& [flow, key] : flows) {
      for (const IfaceId j : live_willing(key)) {
        ShardEntry& e = out[{shard_of_iface_[j], flow}];
        e.weight = key.weight;
        e.willing.push_back(j);
      }
    }
    return out;
  }

 private:
  std::vector<std::uint32_t> shard_of_iface_;
  std::vector<bool> down_;
};

/// Folds applier ops into the shard-side registrations they describe,
/// failing on any op that addresses a registration in the wrong state.
void fold_ops(const std::vector<RecordingApplier::Op>& ops, std::size_t from,
              std::map<std::pair<std::uint32_t, FlowId>, ShardEntry>& state) {
  for (std::size_t i = from; i < ops.size(); ++i) {
    const RecordingApplier::Op& op = ops[i];
    const auto key = std::make_pair(op.shard, op.flow);
    if (op.kind == "add") {
      ASSERT_EQ(state.count(key), 0u) << "double add of flow " << op.flow;
      state[key] = ShardEntry{op.weight, op.willing_subset};
      continue;
    }
    ASSERT_EQ(state.count(key), 1u)
        << op.kind << " of flow " << op.flow << " unknown to shard "
        << op.shard;
    ShardEntry& e = state[key];
    if (op.kind == "remove") {
      state.erase(key);
    } else if (op.kind == "weight") {
      e.weight = op.weight;
    } else {
      const IfaceId j = op.willing_subset.at(0);
      const auto at = std::lower_bound(e.willing.begin(), e.willing.end(), j);
      const bool has = at != e.willing.end() && *at == j;
      if (op.kind == "willing+" && !has) e.willing.insert(at, j);
      if (op.kind == "willing-" && has) e.willing.erase(at);
    }
  }
}

TEST(ControlPlaneProperty, SeededDeltaSequencesMatchAFromScratchModel) {
  // Random add_members / remove_member / move_member / reweight_class /
  // set_iface_down sequences over a small key space (3 weights x 6 Pi
  // rows), so classes merge, retire and revive often.  After every delta:
  //   * the published snapshot equals the model rebuilt from scratch (live
  //     list, per-class members / weight / willing / shards / quarantine,
  //     class_of, ascending members_of);
  //   * the applier's ops leave every shard holding exactly the model's
  //     registrations (weights and willing subsets included);
  //   * every class entry whose content the delta did not change is the
  //     SAME object as in the previous snapshot (copy-on-write publishes
  //     copy only edited entries), and every changed one is a new object
  //     (edits never write through a published entry).
  const std::vector<std::uint32_t> topology = {0, 1, 0, 1, 2};
  const std::vector<std::vector<IfaceId>> rows = {
      {0}, {1}, {0, 2}, {1, 3}, {0, 1, 4}, {0, 1, 2, 3, 4}};
  const double weights[] = {1.0, 2.0, 3.0};
  std::size_t merges = 0;
  std::size_t revivals = 0;
  std::size_t shared_checks = 0;

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    RecordingApplier applier;
    ControlPlane cp(applier, topology, 1024);
    ControlDeltaModel model(topology);
    std::map<std::pair<std::uint32_t, FlowId>, ShardEntry> shards;
    std::set<ModelKey> seen;  // keys that have had members
    auto reader = cp.reader();

    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      // The previous snapshot's entries and deep copies of their contents.
      // A copied entry is allocated while its original is still alive, so
      // within one delta a new address never equals the entry it replaces.
      std::vector<const SnapshotClass*> before;
      std::vector<SnapshotClass> before_values;
      {
        const auto guard = reader.lock();
        before = guard->classes;
        for (const auto& e : before) before_values.push_back(*e);
      }
      const auto groups_before = model.groups();
      const std::size_t ops_before = applier.ops.size();
      const std::size_t weight_calls_before = applier.weight_calls;
      std::size_t expected_weight_calls = 0;

      ModelKey key{weights[pick(3)], rows[pick(rows.size())]};
      ClassSpec spec;
      spec.weight = key.weight;
      spec.willing = key.willing;
      const std::size_t roll = pick(100);
      std::vector<FlowId> live;
      for (const auto& [f, k] : model.flows) live.push_back(f);

      if (roll < 25 || live.empty()) {
        const std::size_t count = 1 + pick(3);
        if (cp.flow_count() + count > 1024) break;
        const FlowId first = cp.add_members(spec, count);
        for (std::size_t k = 0; k < count; ++k) {
          model.flows[first + static_cast<FlowId>(k)] = key;
        }
      } else if (roll < 40) {
        const FlowId f = live[pick(live.size())];
        cp.remove_member(f);
        model.flows.erase(f);
      } else if (roll < 65) {
        const FlowId f = live[pick(live.size())];
        const ModelKey from = model.flows[f];
        if (from != key && from.weight != key.weight) {
          // One single-flow call per shard hosting both classes.
          const std::vector<std::uint32_t> old_shards = model.shards(from);
          for (const std::uint32_t sh : model.shards(key)) {
            if (std::binary_search(old_shards.begin(), old_shards.end(), sh)) {
              ++expected_weight_calls;
            }
          }
        }
        cp.move_member(f, spec);
        model.flows[f] = key;
      } else if (roll < 85) {
        const FlowId anchor = live[pick(live.size())];
        const ModelKey from = model.flows[anchor];
        const ClassId cls = cp.class_of(anchor);
        ModelKey to = from;
        to.weight = key.weight;
        if (to != from) {
          if (groups_before.count(to) != 0) ++merges;
          expected_weight_calls = model.shards(from).size();
        }
        cp.reweight_class(cls, key.weight);
        for (auto& [f, k] : model.flows) {
          if (k == from) k = to;
        }
      } else {
        const IfaceId j = static_cast<IfaceId>(pick(topology.size()));
        const bool down = pick(2) == 0;
        cp.set_iface_down(j, down);
        model.set_down(j, down);
      }
      EXPECT_EQ(applier.weight_calls - weight_calls_before,
                expected_weight_calls)
          << "a delta takes each shard's lock once for its weight changes";

      // Model rebuilt from scratch vs the published snapshot.
      const auto groups = model.groups();
      for (const auto& [k, members] : groups) {
        if (groups_before.count(k) == 0 && seen.count(k) != 0) ++revivals;
        seen.insert(k);
      }
      const auto guard = reader.lock();
      EXPECT_EQ(guard->version, cp.version());
      EXPECT_EQ(cp.flow_count(), model.flows.size());
      EXPECT_EQ(cp.class_count(), groups.size());
      std::vector<ClassId> live_ids;
      std::size_t quarantined = 0;
      for (const auto& [k, members] : groups) {
        const ClassId cid = cp.class_of(members.front());
        live_ids.push_back(cid);
        for (const FlowId f : members) EXPECT_EQ(cp.class_of(f), cid);
        EXPECT_EQ(cp.members_of(cid), members) << "ascending member list";
        const SnapshotClass* entry = guard->cls(cid);
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(entry->id, cid);
        EXPECT_EQ(entry->members, members.size());
        EXPECT_EQ(entry->weight, k.weight);
        EXPECT_EQ(entry->willing, k.willing);
        EXPECT_EQ(entry->shards, model.shards(k));
        EXPECT_EQ(entry->quarantined, model.shards(k).empty());
        if (entry->quarantined) quarantined += members.size();
      }
      std::sort(live_ids.begin(), live_ids.end());
      EXPECT_EQ(guard->live, live_ids) << "one live class per model group";
      EXPECT_EQ(cp.quarantined_count(), quarantined);
      for (FlowId f = 0; f < 1024; ++f) {
        if (model.flows.count(f) == 0) {
          EXPECT_EQ(cp.class_of(f), kInvalidClass);
        }
      }
      for (std::size_t c = 0; c < guard->classes.size(); ++c) {
        ASSERT_NE(guard->classes[c], nullptr) << "class " << c;
        if (!std::binary_search(live_ids.begin(), live_ids.end(), c)) {
          EXPECT_FALSE(guard->classes[c]->live) << "class " << c;
          EXPECT_EQ(cp.members_of(static_cast<ClassId>(c)),
                    std::vector<FlowId>{});
        }
      }

      // Shard-side registrations.
      fold_ops(applier.ops, ops_before, shards);
      EXPECT_EQ(shards, model.shard_state());

      // Copy-on-write: an entry whose content the delta left alone is the
      // same object; a changed one is a new object (an in-place write to a
      // published entry would show as changed content at the old address).
      for (std::size_t c = 0; c < before.size(); ++c) {
        if (same_entry(*guard->classes[c], before_values[c])) {
          ++shared_checks;
          EXPECT_EQ(guard->classes[c], before[c])
              << "class " << c << " was copied although the delta left it";
        } else {
          EXPECT_NE(guard->classes[c], before[c])
              << "published entry of class " << c << " was written in place";
        }
      }
      if (::testing::Test::HasFailure()) return;  // first failure is enough
    }
  }
  EXPECT_GT(merges, 0u) << "the sequences must exercise reweight merges";
  EXPECT_GT(revivals, 0u) << "the sequences must exercise class revivals";
  EXPECT_GT(shared_checks, 1000u);
}

TEST(ControlPlaneSwap, ReadersNeverSeeATornConfiguration) {
  // The writer cycles one flow (1, {0}) -> (2, {0}) -> (2, {0, 1}) ->
  // (2, {0}) -> (1, {0}), one control-plane call per step; each step moves
  // the flow between interned classes.  Even rounds drive the flow-level
  // veneer (set_weight / set_willing), odd rounds the class deltas
  // (reweight_class / move_member).  Every PUBLISHED snapshot therefore
  // contains exactly one populated class, and its (weight, willing,
  // shards) triple is one of the three published states -- the state
  // (1, {0, 1}) never exists.  Reader threads continuously validate
  // whichever snapshot they hold, dereferencing every class entry (shared
  // between snapshots, and copied on write by each delta); seeing the
  // never-published mix, a live class without members, or more than one
  // populated class means a torn read.  Under TSan this doubles as the
  // data-race check on the RCU cell and on the shared entries' lifetime.
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 4);
  RtFlowSpec spec;
  spec.weight = 1.0;
  spec.willing = {0};
  const FlowId f = cp.add_flow(spec);

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      auto reader = cp.reader();
      while (!stop.load(std::memory_order_acquire)) {
        const auto guard = reader.lock();
        std::size_t live_entries = 0;
        for (const auto& entry : guard->classes) live_entries += entry->live;
        if (guard->live.size() != 1 || live_entries != 1) {
          ++torn;  // exactly one class holds the flow in every published state
          continue;
        }
        const SnapshotClass& entry = *guard->classes[guard->live[0]];
        if (!entry.live || entry.members != 1) {
          ++torn;
          continue;
        }
        const bool narrow =  // willing {0}: weight may be mid-cycle 1 or 2
            entry.willing == std::vector<IfaceId>{0} &&
            entry.shards == std::vector<std::uint32_t>{0} &&
            (entry.weight == 1.0 || entry.weight == 2.0);
        const bool wide =    // willing {0, 1} only ever published with 2
            entry.weight == 2.0 &&
            entry.willing == (std::vector<IfaceId>{0, 1}) &&
            entry.shards == (std::vector<std::uint32_t>{0, 1});
        if (!(narrow || wide)) ++torn;
      }
    });
  }

  RtFlowSpec narrow_light = spec;
  RtFlowSpec wide_heavy = spec;
  wide_heavy.weight = 2.0;
  wide_heavy.willing = {0, 1};
  RtFlowSpec narrow_heavy = spec;
  narrow_heavy.weight = 2.0;
  for (int i = 0; i < 100; ++i) {
    if (i % 2 == 0) {
      cp.set_weight(f, 2.0);
      cp.set_willing(f, 1, true);   // now (2.0, {0, 1})
      cp.set_willing(f, 1, false);
      cp.set_weight(f, 1.0);        // back to (1.0, {0})
    } else {
      cp.reweight_class(cp.class_of(f), 2.0);
      cp.move_member(f, wide_heavy);
      cp.move_member(f, narrow_heavy);
      cp.reweight_class(cp.class_of(f), 1.0);
    }
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(cp.class_of(f), cp.class_of(cp.add_flow(narrow_light)))
      << "the cycle ends where it started";
}

TEST(ControlPlaneSwap, TornWindowExistsMidUpdate) {
  // Sanity check OF THE TEST ABOVE: between set_weight and set_willing the
  // intermediate (2.0, {0}) configuration IS visible -- the atomicity unit
  // is one control-plane call, not a transaction.  This pins the published
  // intermediate state so the previous test is known to be discriminating.
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 4);
  RtFlowSpec spec;
  spec.weight = 1.0;
  spec.willing = {0};
  const FlowId f = cp.add_flow(spec);
  cp.set_weight(f, 2.0);
  auto reader = cp.reader();
  const auto guard = reader.lock();
  const SnapshotClass* entry = guard->cls(cp.class_of(f));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->weight, 2.0);
  EXPECT_EQ(entry->willing, std::vector<IfaceId>{0});
}

TEST(Rcu, PublishWaitsForInCriticalSectionReader) {
  // A reader inside a critical section pins the old snapshot: publish()
  // from another thread must not return (and must not delete the old
  // value) until the guard drops.
  Rcu<int> cell(std::make_unique<int>(1));
  auto reader = Rcu<int>::Reader(cell);
  std::atomic<bool> published{false};

  auto guard = std::make_unique<Rcu<int>::Reader::Guard>(reader.lock());
  EXPECT_EQ(**guard, 1);
  std::thread writer([&] {
    cell.publish(std::make_unique<int>(2));
    published.store(true, std::memory_order_release);
  });
  // The writer must be stuck in the grace period while we hold the guard.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(published.load(std::memory_order_acquire));
  EXPECT_EQ(**guard, 1) << "old snapshot must stay valid while pinned";
  guard.reset();  // leave the critical section
  writer.join();
  EXPECT_TRUE(published.load());
  EXPECT_EQ(*reader.lock(), 2);
}

TEST(Rcu, SlotsAreReclaimedWhenReadersRetire) {
  Rcu<int> cell(std::make_unique<int>(0));
  for (std::size_t round = 0; round < 3; ++round) {
    std::vector<Rcu<int>::Reader> readers;
    for (std::size_t i = 0; i < Rcu<int>::kMaxReaders; ++i) {
      readers.emplace_back(cell);  // would throw if slots leaked
    }
    EXPECT_THROW(Rcu<int>::Reader extra(cell), PreconditionError);
  }
}

}  // namespace
}  // namespace midrr::rt
