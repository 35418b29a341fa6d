// Route tracing & visualization: watch the stateless walker work, then
// export the network and the successful route to Graphviz DOT.
//
//   $ ./route_trace_viz [--nodes=12] [--p=0.25] [--seed=4] [--dot=route.dot]
//
// The DOT file colours the source green, the target red, and every node
// the message visited in grey — render with `dot -Tsvg route.dot`.
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/route.h"
#include "explore/degree_reduce.h"
#include "explore/sequence.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  uesr::util::Cli cli(argc, argv);
  uesr::graph::NodeId n = 0;
  double p = 0.0;
  std::uint64_t seed = 0;
  try {
    n = static_cast<uesr::graph::NodeId>(cli.get_int("nodes", 12));
    p = cli.get_double("p", 0.25);
    seed = static_cast<std::uint64_t>(cli.get_int("seed", 4));
  } catch (const std::invalid_argument& e) {
    std::cerr << "route_trace_viz: " << e.what() << "\n";
    return 2;
  }
  const std::string dot_path = cli.get("dot", "route.dot");

  uesr::graph::Graph g = uesr::graph::connected_gnp(n, p, seed);
  uesr::explore::ReducedGraph red = uesr::explore::reduce_to_cubic(g);
  auto seq = uesr::explore::standard_ues(red.cubic.num_nodes());

  const uesr::graph::NodeId s = 0, t = n - 1;
  uesr::core::RouteSession session(red, *seq, s, t);

  std::vector<bool> visited(n, false);
  visited[s] = true;
  std::cout << "walk (first 40 original-node arrivals): " << s;
  int printed = 1;
  std::uint64_t turn_step = 0;
  while (!session.finished()) {
    session.step();
    if (session.finished()) break;
    uesr::graph::NodeId at = session.current_original();
    if (!visited[at] && printed < 40) {
      std::cout << " -> " << at;
      ++printed;
    }
    visited[at] = true;
    if (session.target_reached() && turn_step == 0)
      turn_step = session.transmissions();
  }
  std::cout << "\n\nreached " << t << " after " << session.first_hit_step()
            << " forward steps (" << turn_step
            << " transmissions); confirmation returned to " << s
            << " after " << session.transmissions()
            << " total transmissions; status = "
            << (session.status() == uesr::net::Status::kSuccess ? "success"
                                                                : "failure")
            << "\n";

  // DOT export with route colouring.
  std::ostringstream os;
  os << "graph route {\n  overlap=false;\n";
  for (uesr::graph::NodeId v = 0; v < n; ++v) {
    os << "  " << v << " [style=filled,fillcolor="
       << (v == s ? "green" : v == t ? "red" : visited[v] ? "gray80" : "white")
       << "];\n";
  }
  for (uesr::graph::NodeId v = 0; v < n; ++v)
    for (uesr::graph::Port q = 0; q < g.degree(v); ++q) {
      auto far = g.rotate(v, q);
      if (uesr::graph::HalfEdge{v, q} < far)
        os << "  " << v << " -- " << far.node << ";\n";
    }
  os << "}\n";
  std::ofstream out(dot_path);
  out << os.str();
  std::cout << "\nwrote " << dot_path
            << " (render: dot -Tsvg " << dot_path << " -o route.svg)\n";
  return 0;
}
