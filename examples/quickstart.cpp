// Quickstart: guaranteed routing on an ad hoc network in ~20 lines.
//
//   $ ./quickstart [--nodes=24] [--p=0.12] [--seed=7]
//
// A malformed or out-of-range flag prints its message and exits 2.
//
// Builds a random connected network, routes a message between the two
// most distant nodes with the UES router (Theorem 1), then shows that a
// failure really is a certificate by asking for an unreachable target.
#include <cstdint>
#include <iostream>
#include <stdexcept>

#include "core/api.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  uesr::util::Cli cli(argc, argv);
  uesr::graph::NodeId n = 0;
  double p = 0.0;
  std::uint64_t seed = 0;
  try {
    const std::int64_t nodes = cli.get_int("nodes", 24);
    if (nodes < 2 || nodes > (1 << 16))
      throw std::invalid_argument("flag --nodes must be in [2, 65536]");
    n = static_cast<uesr::graph::NodeId>(nodes);
    p = cli.get_double("p", 0.12);
    if (!(p > 0.0 && p <= 1.0))
      throw std::invalid_argument("flag --p must be in (0, 1]");
    seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  } catch (const std::invalid_argument& e) {
    std::cerr << "quickstart: " << e.what() << "\n";
    return 2;
  }

  // An ad hoc network nobody has a map of: random topology, anonymous
  // ports, no routing tables.
  uesr::graph::Graph g = uesr::graph::connected_gnp(n, p, seed);
  std::cout << "network: " << uesr::graph::describe(g) << "\n";

  uesr::core::AdHocNetwork net(g);
  std::cout << "reduced to 3-regular G': "
            << uesr::graph::describe(net.reduced().cubic) << "\n\n";

  // Route between the endpoints of a BFS-diameter pair.
  auto dist = uesr::graph::bfs_distances(g, 0);
  uesr::graph::NodeId far = 0;
  for (uesr::graph::NodeId v = 0; v < n; ++v)
    if (dist[v] != uesr::graph::kUnreachable && dist[v] > dist[far]) far = v;

  auto r = net.route(0, far);
  std::cout << "route 0 -> " << far << " (BFS distance " << dist[far]
            << "):\n"
            << "  delivered:      " << (r.delivered ? "yes" : "no") << "\n"
            << "  forward steps:  " << r.forward_steps << "\n"
            << "  transmissions:  " << r.total_transmissions << "\n"
            << "  header size:    " << r.header_bits << " bits (O(log n))\n\n";

  // Add an unreachable island and show the failure certificate.
  uesr::graph::GraphBuilder b(g.num_nodes() + 2);
  for (uesr::graph::NodeId v = 0; v < g.num_nodes(); ++v)
    for (uesr::graph::Port q = 0; q < g.degree(v); ++q) {
      auto far_end = g.rotate(v, q);
      if (uesr::graph::HalfEdge{v, q} < far_end) b.add_edge(v, far_end.node);
    }
  b.add_edge(n, n + 1);  // the island
  uesr::graph::Graph g2 = std::move(b).build();
  uesr::core::AdHocNetwork net2(g2);
  auto fail = net2.route(0, n);
  std::cout << "route 0 -> " << n << " (disconnected island):\n"
            << "  delivered: " << (fail.delivered ? "yes" : "no")
            << "  — the walk exhausted T_n and returned a certified"
               " failure after "
            << fail.total_transmissions << " transmissions\n";

  // No prior knowledge of the network size either (§4):
  auto adaptive = net.route_adaptive(0, far);
  std::cout << "\nadaptive route (CountNodes first): census says |Cs|="
            << adaptive.census.original_count << " originals, delivered="
            << (adaptive.route.delivered ? "yes" : "no") << "\n";
  return 0;
}
