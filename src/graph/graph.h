// Port-labelled undirected multigraph.
//
// This is the graph model of the paper (§2): every vertex v assigns its
// incident edge-ends ("ports") the labels 0..deg(v)-1 in an arbitrary way,
// and the labels at the two ends of an edge need not match.  Formally the
// structure is a *rotation map*: an involution over half-edges
//     rot(v, p) = (w, q)   with   rot(w, q) = (v, p).
// Self-loops are supported in both conventions:
//   * full loop  — occupies two ports of v: rot(v,p) = (v,q), p != q;
//   * half loop  — a fixed point rot(v,p) = (v,p) (Reingold's convention);
//     walking out of port p re-enters v on port p.
// Parallel edges are allowed.
//
// Storage is CSR-style: one flat half-edge array plus per-vertex offsets,
// so rotate(v, p) is a single load from half_edges_[offsets_[v] + p] —
// no per-vertex vector indirection on the walk hot path.  The ubiquitous
// 3-regular case (every ReducedGraph.cubic) is specialized further: a
// cubic graph stores no offsets and no 8-byte HalfEdge array at all —
// index 3*v + p selects a 4-byte far-node entry plus a 2-bit far-port
// entry in a util::PackedArray, shrinking per-half-edge cost from
// 8 B (+ 8 B/vertex of offsets) to 4.25 B so million-gadget reduced
// graphs step at cache speed (see rotate3/is_cubic/far_node_data).
// Degree reduction writes that packed layout directly and hands it over
// through from_cubic_rotation, so no 8-byte intermediate exists.  The
// layout is an internal detail — the public API is unchanged and
// observationally identical to the former vector<vector<HalfEdge>>
// representation (pinned by property tests).
//
// A Graph is immutable after construction (build it with GraphBuilder);
// relabelling — the operation universality quantifies over — produces a new
// Graph.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bitpack.h"
#include "util/rng.h"

namespace uesr::util {
class ThreadPool;
}

namespace uesr::graph {

using NodeId = std::uint32_t;
using Port = std::uint32_t;

/// One end of an edge: the (vertex, port) pair.
struct HalfEdge {
  NodeId node = 0;
  Port port = 0;

  friend auto operator<=>(const HalfEdge&, const HalfEdge&) = default;
};

class Graph;

/// Mutable construction interface; `build()` validates and freezes.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes);

  NodeId num_nodes() const { return static_cast<NodeId>(adj_.size()); }

  /// Adds a node, returns its id.
  NodeId add_node();

  /// Adds an undirected edge using the next free port on each endpoint.
  /// Returns the two half-edges created.  u == v creates a full loop.
  std::pair<HalfEdge, HalfEdge> add_edge(NodeId u, NodeId v);

  /// Adds a half-loop (rotation-map fixed point) on v; returns its half-edge.
  HalfEdge add_half_loop(NodeId v);

  Port degree(NodeId v) const;

  /// Validates the rotation map and produces the immutable Graph.
  Graph build() &&;

 private:
  std::vector<std::vector<HalfEdge>> adj_;
  void check_node(NodeId v, const char* who) const;
};

class Graph {
 public:
  Graph() = default;

  NodeId num_nodes() const { return num_nodes_; }

  /// Number of edges; a loop (full or half) counts as one edge.
  std::size_t num_edges() const { return num_edges_; }

  Port degree(NodeId v) const {
    return cubic_ ? 3 : static_cast<Port>(offsets_[v + 1] - offsets_[v]);
  }
  Port max_degree() const;
  Port min_degree() const;
  bool is_regular(Port d) const;

  /// True if every vertex has degree exactly 3 — the regime every
  /// ReducedGraph.cubic lives in.  Enables the offset-free rotate3 path.
  bool is_cubic() const { return cubic_; }

  /// The rotation map: the half-edge at the far end of (v, p).
  /// For a half-loop this is (v, p) itself.
  HalfEdge rotate(NodeId v, Port p) const {
    return cubic_ ? rotate3(v, p) : half_edges_[offsets_[v] + p];
  }

  /// rotate() specialized for 3-regular graphs: port arithmetic is 3*v + p
  /// with no offset load — a 4-byte far-node load plus a 2-bit packed port
  /// read.  Precondition: is_cubic().
  HalfEdge rotate3(NodeId v, Port p) const {
    const std::size_t i = 3 * static_cast<std::size_t>(v) + p;
    return {far_nodes_[i], static_cast<Port>(far_ports_.get(i))};
  }

  /// Raw CSR half-edge array (length = sum of degrees), for perf-critical
  /// consumers that cache the pointer across millions of steps: entry
  /// offsets_[v] + p is rotate(v, p).  Non-cubic graphs only — a cubic
  /// graph stores no HalfEdge array (nullptr is returned); its consumers
  /// use the packed pair far_node_data()/far_ports() instead.
  /// Invalidated by destroying/assigning the graph, like vector::data.
  const HalfEdge* half_edge_data() const {
    return cubic_ ? nullptr : half_edges_.data();
  }

  /// The 3-regular packed rotation map: far_node_data()[3*v + p] is
  /// rotate(v, p).node and far_ports().get(3*v + p) its far port.  The two
  /// arrays are the whole cubic storage — 4 B + 2 bit per half-edge — and
  /// what the multi-walk stepping kernel prefetches.  Precondition:
  /// is_cubic(); invalidated like vector::data.
  const NodeId* far_node_data() const { return far_nodes_.data(); }
  const util::PackedArray& far_ports() const { return far_ports_; }

  /// Dense number of the half-edge (v, p) in [0, num_half_edges()), in
  /// (vertex, port) order: 3*v + p on a cubic graph, the CSR offset
  /// offsets_[v] + p otherwise — the same number either way, since a cubic
  /// graph's offsets would be 3*v.  Per-half-edge side tables (EventSim's
  /// link flags and channel-stream keys) index by it instead of keeping a
  /// second copy of the offsets.  Precondition: v < n, p < degree(v).
  std::size_t half_edge_index(NodeId v, Port p) const {
    return cubic_ ? 3 * static_cast<std::size_t>(v) + p : offsets_[v] + p;
  }
  /// Sum of the degrees: twice num_edges() minus the half-loops.
  std::size_t num_half_edges() const {
    return cubic_ ? far_nodes_.size() : half_edges_.size();
  }

  /// The vertex reached when leaving v through port p.
  NodeId neighbor(NodeId v, Port p) const { return rotate(v, p).node; }

  bool is_half_loop(NodeId v, Port p) const {
    return rotate(v, p) == HalfEdge{v, p};
  }

  /// Any port of v whose far end is u; throws if u is not adjacent to v.
  /// With parallel edges the lowest such port is returned.
  Port port_to(NodeId v, NodeId u) const;

  /// True if some edge joins v and u (including v == u loops).
  bool adjacent(NodeId v, NodeId u) const;

  /// Distinct neighbours of v (excluding v itself unless it has a loop).
  std::vector<NodeId> neighbors(NodeId v) const;

  /// Checks the rotation-map involution; throws std::logic_error on
  /// violation.  Called by GraphBuilder::build; public for tests.
  void validate() const;

  /// Returns a graph with ports renumbered: at each vertex v, old port p
  /// becomes perms[v][p].  perms[v] must be a permutation of 0..deg(v)-1.
  /// The edge set is unchanged — this is exactly the "any labelling" a
  /// universal exploration sequence must survive.
  Graph relabeled(const std::vector<std::vector<Port>>& perms) const;

  /// Relabels every vertex with an independent uniformly random permutation.
  Graph randomly_relabeled(util::Pcg32& rng) const;

  friend bool operator==(const Graph&, const Graph&) = default;

 private:
  friend class GraphBuilder;
  friend Graph from_rotation(std::vector<std::vector<HalfEdge>> adj);
  friend Graph from_rotation(std::vector<std::size_t> offsets,
                             std::vector<HalfEdge> half_edges);
  friend Graph from_cubic_rotation(std::vector<NodeId> far_nodes,
                                   util::PackedArray far_ports,
                                   util::ThreadPool* pool);

  /// Installs a nested rotation map, flattening it to CSR form.
  void adopt(std::vector<std::vector<HalfEdge>> adj);
  /// Installs an already-flat rotation map (offsets.size() == n + 1); a
  /// 3-regular one is repacked and installed through adopt_cubic.
  void adopt_flat(std::vector<std::size_t> offsets,
                  std::vector<HalfEdge> half_edges);
  /// Installs the packed cubic layout as is; one pass (chunked over
  /// `pool`) validates it and counts the edges.
  void adopt_cubic(std::vector<NodeId> far_nodes, util::PackedArray far_ports,
                   util::ThreadPool* pool);
  void recount_edges();

  NodeId num_nodes_ = 0;
  bool cubic_ = false;
  /// Generic storage: offsets_[v]..offsets_[v+1] delimit v's half-edges
  /// (size n + 1; empty for the default zero-node graph).  Cubic graphs
  /// leave BOTH vectors empty and use the packed pair below instead.
  std::vector<std::size_t> offsets_;
  std::vector<HalfEdge> half_edges_;
  /// Cubic storage: entry 3*v + p is rotate(v, p) split into a 4-byte far
  /// node and a 2-bit far port.  Deterministically derived from the
  /// rotation map, so the defaulted operator== stays observational.
  std::vector<NodeId> far_nodes_;
  util::PackedArray far_ports_;
  std::size_t num_edges_ = 0;
};

/// Convenience: build a graph from an explicit edge list over n nodes.
/// Ports are assigned in list order.  Accepts loops (u == v, full loops).
Graph from_edges(NodeId num_nodes,
                 const std::vector<std::pair<NodeId, NodeId>>& edges);

/// Build a graph from a fully explicit rotation map: adj[v][p] is the far
/// half-edge of (v, p).  Validates the involution.  This is the only way to
/// construct rotation maps that sequential port assignment cannot express
/// (e.g. parallel edges with crossed port orders).
Graph from_rotation(std::vector<std::vector<HalfEdge>> adj);

/// Flat-form overload: the rotation map already in CSR layout —
/// half_edges[offsets[v] + p] is the far half-edge of (v, p).  Requires
/// offsets.size() >= 1, offsets.front() == 0, offsets monotone and
/// offsets.back() == half_edges.size().  Lets bulk producers (Reingold
/// rotation maps, relabelling) hand over storage without building n
/// per-vertex vectors first.  A 3-regular map is repacked into the cubic
/// layout; degree reduction skips that step through from_cubic_rotation.
Graph from_rotation(std::vector<std::size_t> offsets,
                    std::vector<HalfEdge> half_edges);

/// Cubic form: the storage a 3-regular Graph keeps, handed over as is —
/// far_nodes[3*v + p] is rotate(v, p).node and far_ports.get(3*v + p) its
/// far port.  Requires far_nodes.size() to be a multiple of 3 and
/// far_ports to hold as many 2-bit entries (std::invalid_argument
/// otherwise).  One pass over the arrays makes validate()'s checks and
/// counts the half-loops; it runs in chunks over `pool` when one is given
/// and serially otherwise.  A violation throws validate()'s
/// std::logic_error for the lowest offending half-edge, for any pool size.
/// Empty arrays give the zero-node Graph.
Graph from_cubic_rotation(std::vector<NodeId> far_nodes,
                          util::PackedArray far_ports,
                          util::ThreadPool* pool = nullptr);

/// Human-readable one-line summary ("n=8 m=12 deg=[3,3]").
std::string describe(const Graph& g);

}  // namespace uesr::graph
