// Property tests pinning the SoA multi-walk kernel to RouteSession — the
// single-walk path stays the executable specification, and the arena must
// match it step for step: identical transmission counts, identical
// positions after every granted budget, identical verdicts.
#include "core/multi_walk.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/route.h"
#include "explore/degree_reduce.h"
#include "explore/sequence.h"
#include "graph/generators.h"

namespace uesr::core {
namespace {

using explore::ReducedGraph;
using graph::NodeId;

/// The engine's slot-grant loop over the scalar reference: steps until the
/// budget is spent or the session finished (free steps use no budget).
void grant(RouteSession& s, std::uint64_t budget) {
  std::uint64_t used = 0;
  std::uint64_t calls = 2 * budget + 8;
  while (!s.finished() && used < budget && calls-- > 0) {
    const std::uint64_t before = s.transmissions();
    s.step();
    used += s.transmissions() - before;
  }
}

/// Asserts the arena walk and the reference session are in the same state.
void expect_lockstep(const MultiWalkArena& arena, std::size_t w,
                     const RouteSession& ref, const char* where) {
  ASSERT_EQ(arena.transmissions(w), ref.transmissions()) << where;
  ASSERT_EQ(arena.finished(w), ref.finished()) << where;
  ASSERT_EQ(arena.target_reached(w), ref.target_reached()) << where;
  ASSERT_EQ(arena.current_original(w), ref.current_original()) << where;
  if (ref.finished()) {
    ASSERT_EQ(arena.delivered(w), ref.status() == net::Status::kSuccess)
        << where;
  }
}

TEST(MultiWalk, SingleWalkLockstepEveryTransmission) {
  const graph::Graph g = graph::random_connected_regular(24, 3, 42);
  const ReducedGraph net = explore::reduce_to_cubic(g);
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 7);
  for (NodeId s = 0; s < 6; ++s)
    for (NodeId t = 6; t < 10; ++t) {
      MultiWalkArena arena(net, *seq);
      RouteSession ref(net, *seq, s, t);
      const std::size_t w = arena.admit(s, t);
      std::uint64_t guard = 10'000'000;
      while (!ref.finished() && guard-- > 0) {
        arena.step_walk(w, 1);
        grant(ref, 1);
        expect_lockstep(arena, w, ref, "budget-1 lockstep");
      }
      ASSERT_TRUE(ref.finished());
      ASSERT_TRUE(arena.finished(w));
    }
}

TEST(MultiWalk, IrregularBudgetPatternMatchesReference) {
  // Budgets that straddle turn-around and terminate ticks in every phase
  // relation: the grant partition must never be observable.
  const graph::Graph g = graph::lollipop(7, 9);
  const ReducedGraph net = explore::reduce_to_cubic(g);
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 3);
  const std::uint64_t budgets[] = {1, 3, 64, 7, 2, 128, 5, 1, 31};
  for (NodeId t : {NodeId{3}, NodeId{12}, NodeId{15}}) {
    MultiWalkArena arena(net, *seq);
    RouteSession ref(net, *seq, 0, t);
    const std::size_t w = arena.admit(0, t);
    std::size_t b = 0;
    std::uint64_t guard = 10'000'000;
    while (!ref.finished() && guard-- > 0) {
      const std::uint64_t budget = budgets[b++ % std::size(budgets)];
      arena.step_walk(w, budget);
      grant(ref, budget);
      expect_lockstep(arena, w, ref, "irregular budgets");
    }
    ASSERT_TRUE(arena.finished(w));
  }
}

TEST(MultiWalk, FullBlockMatchesSixtyFourReferenceSessions) {
  // One arena block of 64 concurrent walks vs 64 scalar sessions: block
  // stepping (slot-major, prefetched, shared symbol windows) must be
  // invisible in every per-walk outcome.
  const graph::Graph g = graph::random_connected_regular(32, 3, 9);
  const ReducedGraph net = explore::reduce_to_cubic(g);
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 5);
  MultiWalkArena arena(net, *seq);
  std::vector<RouteSession> refs;
  std::vector<std::size_t> walks;
  for (std::size_t i = 0; i < 64; ++i) {
    const NodeId s = static_cast<NodeId>(i % 32);
    const NodeId t = static_cast<NodeId>((i * 7 + 5) % 32);
    if (s == t) continue;
    refs.emplace_back(net, *seq, s, t);
    walks.push_back(arena.admit(s, t));
  }
  bool all_done = false;
  std::uint64_t guard = 1'000'000;
  while (!all_done && guard-- > 0) {
    arena.step_block(walks.data(), walks.size(), 64);
    all_done = true;
    for (std::size_t i = 0; i < walks.size(); ++i) {
      grant(refs[i], 64);
      expect_lockstep(arena, walks[i], refs[i], "block of 64");
      all_done = all_done && refs[i].finished();
    }
  }
  ASSERT_TRUE(all_done);
}

TEST(MultiWalk, PartitionIntoBlocksIsInvisible) {
  // Stepping a walk set as one step_block call, as per-walk calls, or in
  // arbitrary sub-blocks yields bit-identical per-walk outcomes — the
  // property shard-count invariance rests on.
  const graph::Graph g = graph::petersen();
  const ReducedGraph net = explore::reduce_to_cubic(g);
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 1);
  auto make = [&](MultiWalkArena& a, std::vector<std::size_t>& w) {
    for (NodeId s = 0; s < 10; ++s)
      w.push_back(a.admit(s, (s + 4) % 10));
  };
  MultiWalkArena whole(net, *seq), split(net, *seq);
  std::vector<std::size_t> ww, sw;
  make(whole, ww);
  make(split, sw);
  for (int round = 0; round < 2000; ++round) {
    whole.step_block(ww.data(), ww.size(), 16);
    split.step_block(sw.data(), 3, 16);            // ids 0..2
    split.step_block(sw.data() + 3, 4, 16);        // ids 3..6
    for (std::size_t i = 7; i < sw.size(); ++i) split.step_walk(sw[i], 16);
  }
  for (std::size_t i = 0; i < ww.size(); ++i) {
    EXPECT_EQ(whole.transmissions(ww[i]), split.transmissions(sw[i])) << i;
    EXPECT_EQ(whole.finished(ww[i]), split.finished(sw[i])) << i;
    EXPECT_EQ(whole.delivered(ww[i]), split.delivered(sw[i])) << i;
    EXPECT_TRUE(whole.finished(ww[i])) << i;  // petersen walks are short
  }
}

TEST(MultiWalk, PerWalkBudgetsMatchSoloWalksAndReference) {
  // One step_block call with budgets mixed inside each 64-lane block —
  // idle lanes, one-slot lanes, lanes that stop one short of a full
  // block and lanes that outlast it — must leave every walk exactly where
  // stepping it alone, or the scalar reference, leaves it.
  const graph::Graph g = graph::random_connected_regular(40, 3, 17);
  const ReducedGraph net = explore::reduce_to_cubic(g);
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 13);
  MultiWalkArena block(net, *seq);
  MultiWalkArena solo(net, *seq);
  std::vector<RouteSession> refs;
  std::vector<std::size_t> bw;
  std::vector<std::size_t> sw;
  for (std::size_t i = 0; i < 150; ++i) {
    const NodeId s = static_cast<NodeId>(i % 40);
    const NodeId t = static_cast<NodeId>((i * 13 + 7) % 40);
    if (s == t) continue;
    refs.emplace_back(net, *seq, s, t);
    bw.push_back(block.admit(s, t));
    sw.push_back(solo.admit(s, t));
  }
  const std::uint64_t kBudgets[] = {0, 1, 3, 63, 64, 200};
  std::vector<std::uint64_t> budgets(bw.size());
  bool all_done = false;
  for (std::size_t call = 0; !all_done && call < 100'000; ++call) {
    for (std::size_t i = 0; i < budgets.size(); ++i)
      budgets[i] = kBudgets[(i * 5 + call) % std::size(kBudgets)];
    block.step_block(bw.data(), budgets.data(), bw.size());
    all_done = true;
    for (std::size_t i = 0; i < bw.size(); ++i) {
      solo.step_walk(sw[i], budgets[i]);
      grant(refs[i], budgets[i]);
      expect_lockstep(block, bw[i], refs[i], "per-walk budgets");
      ASSERT_EQ(block.transmissions(bw[i]), solo.transmissions(sw[i])) << i;
      ASSERT_EQ(block.index(bw[i]), solo.index(sw[i])) << i;
      ASSERT_EQ(block.current_original(bw[i]), solo.current_original(sw[i]))
          << i;
      ASSERT_EQ(block.finished(bw[i]), solo.finished(sw[i])) << i;
      ASSERT_EQ(block.delivered(bw[i]), solo.delivered(sw[i])) << i;
      all_done = all_done && refs[i].finished();
    }
  }
  ASSERT_TRUE(all_done);
}

TEST(MultiWalk, FailureCertificateOnDisconnectedTarget) {
  // Two disjoint clusters: cross-cluster walks must exhaust the sequence
  // and come back failure-certified, exactly like the reference.
  const graph::Graph g = graph::disjoint_copies(graph::k4(), 2);
  const ReducedGraph net = explore::reduce_to_cubic(g);
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 11);
  MultiWalkArena arena(net, *seq);
  const std::size_t w = arena.admit(0, 5);  // cluster 0 -> cluster 1
  RouteSession ref(net, *seq, 0, 5);
  while (!ref.finished()) ref.step();
  arena.step_walk(w, ref.transmissions() + 8);
  ASSERT_TRUE(arena.finished(w));
  EXPECT_FALSE(arena.delivered(w));
  EXPECT_FALSE(ref.status() == net::Status::kSuccess);
  EXPECT_EQ(arena.transmissions(w), ref.transmissions());
}

TEST(MultiWalk, RejectsDegenerateAndOutOfRange) {
  const ReducedGraph net = explore::reduce_to_cubic(graph::k4());
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 1);
  MultiWalkArena arena(net, *seq);
  EXPECT_THROW(arena.admit(1, 1), std::invalid_argument);
  EXPECT_THROW(arena.admit(4, 0), std::invalid_argument);
  EXPECT_THROW(arena.admit(0, 4), std::invalid_argument);
}

TEST(MultiWalk, WalkStateStaysLean) {
  const ReducedGraph net = explore::reduce_to_cubic(graph::petersen());
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 1);
  MultiWalkArena arena(net, *seq);
  for (int i = 0; i < 1000; ++i) arena.admit(0, 5);
  // 26 B per walk: 2x u32 + 2x u8 + 2x u64 (the §2.13 budget).
  EXPECT_LE(arena.walk_state_bytes() / arena.size(), 40u);
}

TEST(MultiWalk, CapacityStopsBelowTheSentinel) {
  // A reduction that large cannot be built in a test; the constructor's
  // check is pinned on synthetic node counts instead.
  const std::uint64_t sentinel = ~graph::NodeId{0};
  EXPECT_NO_THROW(MultiWalkArena::check_capacity(0));
  EXPECT_NO_THROW(MultiWalkArena::check_capacity(sentinel - 1));
  EXPECT_THROW(MultiWalkArena::check_capacity(sentinel), std::length_error);
  EXPECT_THROW(MultiWalkArena::check_capacity(3 * sentinel),
               std::length_error);
}

}  // namespace
}  // namespace uesr::core
