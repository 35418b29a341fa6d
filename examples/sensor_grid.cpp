// Sensor-field scenario: a 2D unit-disk network of battery-powered motes.
//
//   $ ./sensor_grid [--motes=80] [--radius=0.22] [--seed=3] [--pairs=12]
//
// Compares, on the same field:
//   * greedy geographic forwarding (needs GPS; dies in voids),
//   * GPSR-style greedy+face on the Gabriel planarization (needs GPS +
//     planarization; guaranteed in 2D),
//   * the UES router (needs NOTHING: no positions, no tables, no state),
// and runs a sink broadcast with the same walker.
#include <iostream>
#include <stdexcept>

#include "baselines/geo.h"
#include "core/api.h"
#include "graph/algorithms.h"
#include "graph/geometric.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  uesr::util::Cli cli(argc, argv);
  uesr::graph::NodeId motes = 0;
  double radius = 0.0;
  std::uint64_t seed = 0;
  int pairs = 0;
  try {
    const std::int64_t count = cli.get_int("motes", 80);
    if (count < 1 || count > (1 << 16))
      throw std::invalid_argument("flag --motes must be in [1, 65536]");
    motes = static_cast<uesr::graph::NodeId>(count);
    radius = cli.get_double("radius", 0.22);
    if (!(radius > 0.0))
      throw std::invalid_argument("flag --radius must be > 0");
    seed = static_cast<std::uint64_t>(cli.get_int("seed", 3));
    pairs = static_cast<int>(cli.get_int("pairs", 12));
  } catch (const std::invalid_argument& e) {
    std::cerr << "sensor_grid: " << e.what() << "\n";
    return 2;
  }

  auto field = uesr::graph::connected_unit_disk_2d(motes, radius, seed);
  auto planar = uesr::graph::gabriel_subgraph(field);
  std::cout << "sensor field: " << uesr::graph::describe(field.graph)
            << "  (gabriel subgraph: " << planar.graph.num_edges()
            << " edges)\n\n";

  uesr::core::AdHocNetwork net(field.graph);
  uesr::util::Pcg32 rng(seed ^ 0xfeed);

  uesr::util::Table table({"pair", "greedy", "gpsr(hops)", "ues(hops)",
                           "ues fwd steps"});
  int greedy_ok = 0, gpsr_ok = 0, ues_ok = 0;
  for (int i = 0; i < pairs; ++i) {
    uesr::graph::NodeId s = rng.next_below(motes);
    uesr::graph::NodeId t = rng.next_below(motes);
    if (s == t) t = (t + 1) % motes;
    auto greedy = uesr::baselines::greedy_route_2d(field, s, t);
    auto gpsr = uesr::baselines::gpsr_route(planar, s, t);
    auto ues = net.route(s, t);
    greedy_ok += greedy.delivered;
    gpsr_ok += gpsr.delivered;
    ues_ok += ues.delivered;
    table.row()
        .cell(std::to_string(s) + "->" + std::to_string(t))
        .cell(greedy.delivered
                  ? std::to_string(greedy.transmissions)
                  : std::string("stuck"))
        .cell(gpsr.delivered ? std::to_string(gpsr.transmissions)
                             : std::string("fail"))
        .cell(ues.total_transmissions)
        .cell(ues.forward_steps);
  }
  table.print(std::cout);
  std::cout << "\ndelivery: greedy " << greedy_ok << "/" << pairs << ", gpsr "
            << gpsr_ok << "/" << pairs << ", ues " << ues_ok << "/" << pairs
            << "\n";

  // Sink broadcast: node 0 disseminates a configuration update.
  auto b = net.broadcast(0);
  std::cout << "\nbroadcast from sink 0: reached " << b.distinct_visited
            << "/" << motes << " motes in " << b.total_transmissions
            << " transmissions (stateless token, no duplicate tables)\n";
  return 0;
}
