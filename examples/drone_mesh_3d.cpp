// Drone-swarm scenario: a 3D unit-ball mesh, the regime where
// position-based guarantees evaporate.
//
//   $ ./drone_mesh_3d [--drones=70] [--radius=0.34] [--seed=5] [--pairs=15]
//
// In 2D, greedy + face routing on a planarized subgraph guarantees
// delivery.  In 3D there is no planarization and no face to follow —
// Durocher, Kirkpatrick and Narayanan (the paper's reference [2]) proved
// no deterministic local position-based algorithm can guarantee delivery.
// Greedy still works while the mesh is dense; in sparse meshes it dies in
// voids.  The UES router ignores geometry entirely and delivers anyway —
// this is the concrete gap Theorem 1 closes.
#include <iostream>
#include <stdexcept>

#include "baselines/geo.h"
#include "core/api.h"
#include "graph/geometric.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  uesr::util::Cli cli(argc, argv);
  uesr::graph::NodeId drones = 0;
  double radius = 0.0;
  std::uint64_t seed = 0;
  int pairs = 0;
  try {
    drones = static_cast<uesr::graph::NodeId>(cli.get_int("drones", 70));
    radius = cli.get_double("radius", 0.34);
    seed = static_cast<std::uint64_t>(cli.get_int("seed", 5));
    pairs = static_cast<int>(cli.get_int("pairs", 15));
  } catch (const std::invalid_argument& e) {
    std::cerr << "drone_mesh_3d: " << e.what() << "\n";
    return 2;
  }

  auto mesh = uesr::graph::connected_unit_disk_3d(drones, radius, seed);
  std::cout << "3D mesh: " << uesr::graph::describe(mesh.graph) << "\n\n";

  uesr::core::AdHocNetwork net(mesh.graph);
  uesr::util::Pcg32 rng(seed ^ 0xd12);

  uesr::util::Table table({"pair", "greedy-3d", "ues delivered",
                           "ues transmissions"});
  int greedy_ok = 0, ues_ok = 0;
  for (int i = 0; i < pairs; ++i) {
    uesr::graph::NodeId s = rng.next_below(drones);
    uesr::graph::NodeId t = rng.next_below(drones);
    if (s == t) t = (t + 1) % drones;
    auto greedy = uesr::baselines::greedy_route_3d(mesh, s, t);
    auto ues = net.route(s, t);
    greedy_ok += greedy.delivered;
    ues_ok += ues.delivered;
    table.row()
        .cell(std::to_string(s) + "->" + std::to_string(t))
        .cell(greedy.delivered ? std::to_string(greedy.transmissions)
                               : std::string(greedy.stuck ? "void!" : "fail"))
        .cell(ues.delivered)
        .cell(ues.total_transmissions);
  }
  table.print(std::cout);
  std::cout << "\ndelivery: greedy-3d " << greedy_ok << "/" << pairs
            << " (no face-routing rescue exists in 3D), ues " << ues_ok
            << "/" << pairs << " — guaranteed, geometry-free\n";
  return 0;
}
