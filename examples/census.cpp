// Census scenario: a node wakes up in an unknown network and must learn
// how big its world is — with O(log n) memory and no cooperation beyond
// stateless forwarding (paper §4, Algorithm CountNodes).
//
//   $ ./census [--nodes=18] [--p=0.14] [--seed=11] [--faithful]
//
// Shows the doubling epochs, the neighbourhood-closure certificate, and
// the exact message bill.  --faithful executes every probe hop by hop
// (O(L^3) messages — the price of statelessness); the default fast mode
// reports identical numbers from a central replay.  A malformed flag
// value prints its message and exits 2.
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
  bool faithful = false;
  try {
    n = static_cast<uesr::graph::NodeId>(cli.get_int("nodes", 18));
    p = cli.get_double("p", 0.14);
    seed = static_cast<std::uint64_t>(cli.get_int("seed", 11));
    faithful = cli.get_bool("faithful", false);
  } catch (const std::invalid_argument& e) {
    std::cerr << "census: " << e.what() << "\n";
    return 2;
  }

  // A graph with several components: each census sees only its own world.
  uesr::graph::Graph g = uesr::graph::gnp(n, p, seed);
  std::cout << "network: " << uesr::graph::describe(g) << " with "
            << uesr::graph::num_components(g) << " components\n\n";

  uesr::core::AdHocNetwork net(g);
  auto mode = faithful ? uesr::core::CountMode::kFaithful
                       : uesr::core::CountMode::kFast;

  for (uesr::graph::NodeId s : {uesr::graph::NodeId{0},
                                static_cast<uesr::graph::NodeId>(n / 2),
                                static_cast<uesr::graph::NodeId>(n - 1)}) {
    auto truth = uesr::graph::component_of(g, s).size();
    auto c = net.count_component(s, mode);
    std::cout << "census from node " << s << ":\n"
              << "  learned |Cs| = " << c.original_count
              << " (ground truth " << truth << ")"
              << (c.original_count == truth ? "  [exact]" : "  [MISMATCH]")
              << "\n"
              << "  gadget vertices |Cs'| = " << c.gadget_count << "\n"
              << "  doubling epochs = " << c.epochs
              << " (closure at bound 2^" << c.epochs << " = "
              << c.final_bound << ")\n"
              << "  probes = " << c.probes
              << ", transmissions = " << c.transmissions
              << (faithful ? " (every hop really sent)" : " (exact replay)")
              << "\n\n";
  }
  std::cout << "Each node along the way stored nothing; the coordinator "
               "held two names and a counter.\n";
  return 0;
}
