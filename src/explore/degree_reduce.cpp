#include "explore/degree_reduce.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/parallel.h"

namespace uesr::explore {

using graph::HalfEdge;
using graph::NodeId;
using graph::Port;

NodeId ReducedGraph::gadget(NodeId v, Port p) const {
  if (v >= first_gadget.size())
    throw std::invalid_argument("ReducedGraph::gadget: bad vertex");
  if (p >= gadget_count[v])
    throw std::invalid_argument("ReducedGraph::gadget: bad port");
  return first_gadget[v] + p;
}

NodeId ReducedGraph::entry_gadget(NodeId v) const {
  if (v >= first_gadget.size())
    throw std::invalid_argument("ReducedGraph::entry_gadget: bad vertex");
  return first_gadget[v];
}

bool ReducedGraph::belongs_to(NodeId gv, NodeId v) const {
  if (gv >= original_of.size())
    throw std::invalid_argument("ReducedGraph::belongs_to: bad gadget");
  return original_of[gv] == v;
}

graph::NodeId lay_out_gadgets(const std::vector<NodeId>& count,
                              std::vector<NodeId>& first) {
  first.resize(count.size());
  std::uint64_t total = 0;
  for (std::size_t v = 0; v < count.size(); ++v) {
    first[v] = static_cast<NodeId>(total);  // only kept when total fits
    total += count[v];
  }
  if (total > std::numeric_limits<NodeId>::max())
    throw std::length_error("reduce_to_cubic: gadget ids overflow NodeId");
  return static_cast<NodeId>(total);
}

ReducedGraph reduce_to_cubic(const graph::Graph& g, util::ThreadPool* pool) {
  ReducedGraph r;
  const NodeId n = g.num_nodes();
  r.gadget_count.resize(n);
  for (NodeId v = 0; v < n; ++v)
    r.gadget_count[v] = std::max<NodeId>(g.degree(v), 3);
  const NodeId total = lay_out_gadgets(r.gadget_count, r.first_gadget);
  r.original_of.resize(total);

  // Far nodes of the packed cubic layout: gadget vertex gv's half-edges
  // live at far[3*gv + port].  Each original vertex writes only its own
  // gadgets' entries, so chunks of vertices are disjoint writers.
  const std::size_t half_edges = 3 * static_cast<std::size_t>(total);
  std::vector<NodeId> far(half_edges);
  util::ThreadPool serial(1);
  util::ThreadPool& lanes = pool ? *pool : serial;
  util::parallel_for(
      lanes, n, util::default_chunk(n, lanes.size(), 1 << 12),
      [&](const util::ChunkRange& c) {
        for (auto v = static_cast<NodeId>(c.begin); v < c.end; ++v) {
          const NodeId base = r.first_gadget[v];
          const NodeId count = r.gadget_count[v];
          const Port d = g.degree(v);
          for (NodeId j = 0; j < count; ++j) {
            const NodeId cur = base + j;
            NodeId* out = far.data() + 3 * static_cast<std::size_t>(cur);
            // Gadget cycle: port 0 meets the predecessor's port 1, port 1
            // the successor's port 0.
            out[0] = base + (j == 0 ? count - 1 : j - 1);
            out[1] = base + (j + 1 == count ? 0 : j + 1);
            // External edge: original port j of v is carried by gadget j's
            // port 2 and meets port 2 of the far side's gadget; unused
            // ports are padded with half-loops.
            if (j < d) {
              const HalfEdge e = g.rotate(v, j);
              out[2] = r.first_gadget[e.node] + e.port;
            } else {
              out[2] = cur;
            }
            r.original_of[cur] = v;
          }
        }
      });
  r.cubic = graph::from_cubic_rotation(
      std::move(far), util::PackedArray::repeating(2, half_edges, {1, 0, 2}),
      pool);
  return r;
}

}  // namespace uesr::explore
