// Degree reduction to 3-regular graphs (paper Fig. 1, after Koucký).
//
// Every vertex v of G becomes a cycle of c(v) = max(deg(v), 3) gadget
// vertices in G'; gadget j carries the original's j-th port as its
// "external" connection.  Port convention at every gadget vertex:
//
//     port 0 — cycle predecessor
//     port 1 — cycle successor
//     port 2 — external edge (the original edge), or a half-loop when the
//              original vertex had degree < 3 (padding)
//
// The result is exactly 3-regular, preserves connectivity component-wise,
// and its size is Σ max(deg v, 3) <= 2|E| + 3|V| — linear in the input and
// in particular "at most squaring" as the paper remarks.
//
// The reduction writes G' straight into the packed cubic storage of
// graph::Graph (4-byte far nodes plus 2-bit far ports, entry 3*gv + port;
// see graph::from_cubic_rotation): with the port convention above every
// gadget's far ports read (1, 0, 2), so the port array is a repeating word
// pattern and only the far nodes are computed per gadget.  The per-vertex
// fills and the validation pass run in chunks over a caller's ThreadPool;
// the result is identical (operator==) for any pool size, and without one.
//
// Routing operates on G'; the maps below translate between the two worlds
// (a message reaches original t when it reaches *any* gadget of t).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace uesr::util {
class ThreadPool;
}

namespace uesr::explore {

struct ReducedGraph {
  graph::Graph cubic;  ///< the 3-regular graph G'

  /// gadget vertex -> its original vertex.
  std::vector<graph::NodeId> original_of;
  /// original vertex -> id of its gadget 0.
  std::vector<graph::NodeId> first_gadget;
  /// original vertex -> number of gadget vertices (cycle length).
  std::vector<graph::NodeId> gadget_count;

  /// The gadget vertex of original v that carries v's original port p.
  graph::NodeId gadget(graph::NodeId v, graph::Port p) const;

  /// Any canonical gadget for v (gadget 0) — where routing starts/ends.
  graph::NodeId entry_gadget(graph::NodeId v) const;

  /// True if gadget vertex gv belongs to original v.
  bool belongs_to(graph::NodeId gv, graph::NodeId v) const;
};

/// Builds G' from G.  Works for any multigraph including loops.  With a
/// `pool` the per-vertex work runs in chunks over its lanes; without one,
/// serially.  Throws std::length_error when G' would have more vertices
/// than a NodeId can name.
ReducedGraph reduce_to_cubic(const graph::Graph& g,
                             util::ThreadPool* pool = nullptr);

/// Lays the gadget cycles out back to back: first[v] becomes
/// Σ_{u<v} count[u], summed in 64 bits, and the total is returned.  Throws
/// std::length_error when the total does not fit a NodeId (the vertex ids
/// of G' would wrap).
graph::NodeId lay_out_gadgets(const std::vector<graph::NodeId>& count,
                              std::vector<graph::NodeId>& first);

}  // namespace uesr::explore
