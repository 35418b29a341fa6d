// The degree reduction writes the packed cubic layout directly, in chunks
// over a ThreadPool.  These tests pin it against a reference built the
// straightforward way (an 8-byte HalfEdge rotation map handed to the flat
// from_rotation), for every pool size, and pin the cubic adopt path's
// validation: validate()'s three checks, the lowest-index violation
// reported whatever the chunking, and the NodeId boundary of the gadget
// layout.
#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "explore/degree_reduce.h"
#include "graph/generators.h"
#include "util/parallel.h"

namespace uesr::explore {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::HalfEdge;
using graph::NodeId;
using graph::Port;

const unsigned kPoolSizes[] = {1, 2, 4};

/// The reduction of paper Fig. 1 spelled out: a CSR HalfEdge array with
/// port 0 -> predecessor, port 1 -> successor, port 2 -> the original
/// edge (or a padding half-loop), installed through from_rotation.
ReducedGraph reference_reduce(const Graph& g) {
  ReducedGraph r;
  const NodeId n = g.num_nodes();
  r.first_gadget.resize(n);
  r.gadget_count.resize(n);
  NodeId total = 0;
  for (NodeId v = 0; v < n; ++v) {
    r.first_gadget[v] = total;
    r.gadget_count[v] = std::max<NodeId>(g.degree(v), 3);
    total += r.gadget_count[v];
  }
  r.original_of.resize(total);
  std::vector<HalfEdge> half(3 * static_cast<std::size_t>(total));
  for (NodeId v = 0; v < n; ++v) {
    const NodeId base = r.first_gadget[v];
    const NodeId c = r.gadget_count[v];
    for (NodeId j = 0; j < c; ++j) {
      const NodeId cur = base + j;
      const NodeId nxt = base + (j + 1) % c;
      r.original_of[cur] = v;
      half[3 * static_cast<std::size_t>(cur) + 1] = {nxt, 0};
      half[3 * static_cast<std::size_t>(nxt) + 0] = {cur, 1};
      half[3 * static_cast<std::size_t>(cur) + 2] = {cur, 2};
    }
    for (Port p = 0; p < g.degree(v); ++p) {
      const HalfEdge far = g.rotate(v, p);
      half[3 * static_cast<std::size_t>(base + p) + 2] = {
          r.first_gadget[far.node] + far.port, 2};
    }
  }
  std::vector<std::size_t> offsets(static_cast<std::size_t>(total) + 1);
  for (std::size_t i = 0; i < offsets.size(); ++i) offsets[i] = 3 * i;
  r.cubic = graph::from_rotation(std::move(offsets), std::move(half));
  return r;
}

std::vector<Graph> zoo() {
  std::vector<Graph> z = {
      GraphBuilder(0).build(),  // empty: must come out as Graph(), with
                                // no PackedArray storage at all
      GraphBuilder(1).build(),  // one isolated vertex
      GraphBuilder(5).build(),  // isolated vertices only
      graph::path(2),
      graph::path(9),
      graph::cycle(5),
      graph::star(7),
      graph::complete(6),
      graph::complete_bipartite(2, 5),
      graph::grid(3, 4),
      graph::torus(4, 5),
      graph::hypercube(4),
      graph::binary_tree(12),
      graph::lollipop(5, 4),
      graph::barbell(4, 3),
      graph::petersen(),
      graph::k4(),
      graph::moebius_kantor(),
      graph::random_tree(30, 5),
      graph::random_cubic_multigraph(24, 9),
      // Full loops and parallel edges, in crossed port orders.
      graph::from_edges(4, {{0, 0}, {0, 1}, {1, 0}, {1, 2}, {2, 2}, {2, 2}}),
  };
  // Half-loops (rotation-map fixed points) beside ordinary edges.
  GraphBuilder b(4);
  b.add_half_loop(0);
  b.add_edge(0, 1);
  b.add_half_loop(1);
  b.add_half_loop(1);
  b.add_edge(2, 3);
  b.add_half_loop(3);
  z.push_back(std::move(b).build());
  // Sparse random graphs leave isolated vertices and low degrees.
  for (std::uint64_t seed = 0; seed < 8; ++seed)
    z.push_back(graph::gnp(40, 0.05 + 0.04 * static_cast<double>(seed), seed));
  // Large enough that the fills and the validation scan split into many
  // chunks: the workload's cluster shape, and high degrees.
  z.push_back(
      graph::disjoint_copies(graph::connected_gnp(8, 0.45, 211), 4096));
  z.push_back(graph::gnp(3000, 0.004, 17));
  return z;
}

void expect_same_reduction(const ReducedGraph& a, const ReducedGraph& b,
                           const std::string& what) {
  EXPECT_TRUE(a.cubic == b.cubic) << what;
  EXPECT_EQ(a.original_of, b.original_of) << what;
  EXPECT_EQ(a.first_gadget, b.first_gadget) << what;
  EXPECT_EQ(a.gadget_count, b.gadget_count) << what;
}

TEST(CubicReduction, MatchesFlatReferenceOnZooForAnyPoolSize) {
  const std::vector<Graph> graphs = zoo();
  for (std::size_t k = 0; k < graphs.size(); ++k) {
    const Graph& g = graphs[k];
    const ReducedGraph ref = reference_reduce(g);
    const std::string what = "zoo[" + std::to_string(k) + "] " +
                             graph::describe(g);
    expect_same_reduction(reduce_to_cubic(g), ref, what + " serial");
    for (unsigned threads : kPoolSizes) {
      util::ThreadPool pool(threads);
      expect_same_reduction(reduce_to_cubic(g, &pool), ref,
                            what + " threads=" + std::to_string(threads));
    }
  }
}

// ---- the cubic adopt path ---------------------------------------------

struct Layout {
  std::vector<NodeId> far;
  util::PackedArray ports;
};

Layout layout_of(const Graph& cubic) {
  Layout l;
  const std::size_t m = 3 * static_cast<std::size_t>(cubic.num_nodes());
  l.far.assign(cubic.far_node_data(), cubic.far_node_data() + m);
  l.ports = cubic.far_ports();
  return l;
}

std::string adopt_error(Layout l, util::ThreadPool* pool) {
  try {
    graph::from_cubic_rotation(std::move(l.far), std::move(l.ports), pool);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

const std::string kNodeRange = "Graph::validate: endpoint node out of range";
const std::string kPortRange = "Graph::validate: endpoint port out of range";
const std::string kInvolution =
    "Graph::validate: rotation map is not an involution";

TEST(CubicAdopt, ValidLayoutRoundTrips) {
  for (const Graph& g : {graph::k4(), graph::petersen(),
                         graph::random_cubic_multigraph(30, 4)}) {
    Layout l = layout_of(g);
    util::ThreadPool pool(2);
    EXPECT_TRUE(graph::from_cubic_rotation(l.far, l.ports, &pool) == g)
        << graph::describe(g);
    EXPECT_TRUE(graph::from_cubic_rotation(l.far, l.ports) == g);
  }
}

// Each negative case corrupts half-edge (0, 0), the first one scanned, so
// the error it causes at its partner comes later and cannot mask it.
TEST(CubicAdopt, RejectsFarNodeOutOfRange) {
  Layout l = layout_of(graph::petersen());
  l.far[0] = 10;
  EXPECT_EQ(adopt_error(l, nullptr), kNodeRange);
}

TEST(CubicAdopt, RejectsFarPortThree) {
  Layout l = layout_of(graph::petersen());
  l.ports.set(0, 3);
  EXPECT_EQ(adopt_error(l, nullptr), kPortRange);
}

TEST(CubicAdopt, RejectsBrokenInvolution) {
  // (0, 0) names an in-range far half-edge that does not name it back.
  Layout l = layout_of(graph::petersen());
  const std::uint64_t q = l.ports.get(0);
  NodeId x = 1;
  while (l.far[3 * x + q] == 0) ++x;
  l.far[0] = x;
  EXPECT_EQ(adopt_error(l, nullptr), kInvolution);
}

TEST(CubicAdopt, RejectsMalformedShapes) {
  Layout l = layout_of(graph::k4());
  std::vector<NodeId> short_far(l.far.begin(), l.far.end() - 1);
  EXPECT_THROW(graph::from_cubic_rotation(short_far, l.ports),
               std::invalid_argument);
  EXPECT_THROW(graph::from_cubic_rotation(l.far, util::PackedArray(2, 3)),
               std::invalid_argument);
  EXPECT_THROW(
      graph::from_cubic_rotation(l.far, util::PackedArray(3, l.far.size())),
      std::invalid_argument);
  EXPECT_TRUE(graph::from_cubic_rotation({}, util::PackedArray(2, 0)) ==
              Graph());
}

TEST(CubicAdopt, ReportsTheLowestViolationAcrossChunks) {
  // ~98k cubic vertices: the scan splits into several chunks at every pool
  // size above 1.  Two violations of different kinds sit far apart; the
  // lower one must be reported whichever kind it is and however the
  // chunks are scheduled.
  const Graph g = reduce_to_cubic(graph::disjoint_copies(graph::k4(), 8192))
                      .cubic;
  const NodeId n = g.num_nodes();
  ASSERT_GE(n, 90000u);
  // Port 1 of a gadget 0 (every K4 vertex has gadgets 3k..3k+2): its
  // partner, port 0 of gadget 1, is scanned after it.
  const auto port1_of_gadget0 = [](NodeId original) {
    return 3 * (3 * static_cast<std::size_t>(original)) + 1;
  };
  const std::size_t lo = port1_of_gadget0(n / 15);
  const std::size_t hi = port1_of_gadget0(4 * (n / 15));
  for (bool node_first : {true, false}) {
    Layout l = layout_of(g);
    l.far[node_first ? lo : hi] = n;       // far node out of range
    l.ports.set(node_first ? hi : lo, 3);  // far port 3
    const std::string want = node_first ? kNodeRange : kPortRange;
    EXPECT_EQ(adopt_error(l, nullptr), want);
    for (unsigned threads : kPoolSizes) {
      util::ThreadPool pool(threads);
      EXPECT_EQ(adopt_error(l, &pool), want) << "threads=" << threads;
    }
  }
}

// ---- the NodeId boundary of the gadget layout ---------------------------

TEST(LayOutGadgets, GuardsTheNodeIdBoundary) {
  constexpr std::uint64_t kMax = std::numeric_limits<NodeId>::max();
  std::vector<NodeId> first;
  // Σ = 2^32 - 1: the largest total a NodeId can count.
  EXPECT_EQ(lay_out_gadgets({NodeId{1} << 31, (NodeId{1} << 31) - 1}, first),
            kMax);
  EXPECT_EQ(first, (std::vector<NodeId>{0, NodeId{1} << 31}));
  // One more gadget would wrap the ids.
  EXPECT_THROW(lay_out_gadgets({NodeId{1} << 31, NodeId{1} << 31}, first),
               std::length_error);
  // Totals far past 2^32 are caught, not reduced mod 2^32.
  EXPECT_THROW(lay_out_gadgets({0xffffffffu, 0xffffffffu, 2u}, first),
               std::length_error);
  EXPECT_EQ(lay_out_gadgets({3, 5, 3}, first), 11u);
  EXPECT_EQ(first, (std::vector<NodeId>{0, 3, 8}));
  EXPECT_EQ(lay_out_gadgets({}, first), 0u);
  EXPECT_TRUE(first.empty());
}

}  // namespace
}  // namespace uesr::explore
