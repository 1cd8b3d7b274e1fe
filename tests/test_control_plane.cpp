// ControlPlane + Rcu: class-delta registry logic against a mock
// ShardApplier (apply-vs-publish ordering, Pi-row interning and dedup,
// shard coverage growth and shrink, batch registration with one publish),
// and the snapshot-swap guarantee -- concurrent readers see a whole old or
// whole new configuration, never a torn mix.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
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
  };

  void shard_add_flow(std::uint32_t shard, FlowId flow, const RtFlowSpec&,
                      const std::vector<IfaceId>& willing_subset) override {
    ops.push_back({"add", shard, flow, willing_subset});
  }
  void shard_remove_flow(std::uint32_t shard, FlowId flow) override {
    ops.push_back({"remove", shard, flow, {}});
  }
  void shard_set_weight(std::uint32_t shard, FlowId flow, double) override {
    ops.push_back({"weight", shard, flow, {}});
  }
  void shard_set_willing(std::uint32_t shard, FlowId flow, IfaceId iface,
                         bool value) override {
    ops.push_back({value ? "willing+" : "willing-", shard, flow, {iface}});
  }

  std::vector<Op> ops;
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
    void shard_set_weight(std::uint32_t, FlowId, double) override {}
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

TEST(ControlPlaneSwap, ReadersNeverSeeATornConfiguration) {
  // The writer cycles one flow (1, {0}) -> (2, {0}) -> (2, {0, 1}) ->
  // (2, {0}) -> (1, {0}), one control-plane call per step; each step moves
  // the flow between interned classes.  Every PUBLISHED snapshot therefore
  // contains exactly one populated class, and its (weight, willing) pair is
  // one of the three published states -- the state (1, {0, 1}) never
  // exists.  Reader threads continuously validate whichever snapshot they
  // hold; seeing the never-published mix, a live class without members, or
  // more than one populated class means a torn read.  Under TSan this
  // doubles as the data-race check on the RCU cell.
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
        if (guard->live.size() != 1) {
          ++torn;  // exactly one class holds the flow in every published state
          continue;
        }
        const SnapshotClass& entry = guard->classes[guard->live[0]];
        if (!entry.live || entry.members != 1) {
          ++torn;
          continue;
        }
        const bool narrow =  // willing {0}: weight may be mid-cycle 1 or 2
            entry.willing == std::vector<IfaceId>{0} &&
            (entry.weight == 1.0 || entry.weight == 2.0);
        const bool wide =    // willing {0, 1} only ever published with 2
            entry.weight == 2.0 &&
            entry.willing == (std::vector<IfaceId>{0, 1});
        if (!(narrow || wide)) ++torn;
      }
    });
  }

  for (int i = 0; i < 100; ++i) {
    cp.set_weight(f, 2.0);
    cp.set_willing(f, 1, true);   // now (2.0, {0, 1})
    cp.set_willing(f, 1, false);
    cp.set_weight(f, 1.0);        // back to (1.0, {0})
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
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
