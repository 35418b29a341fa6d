// Mobile-swarm scenario: random-waypoint drones whose radio graph is
// re-derived every epoch while messages are in flight.
//
//   $ ./mobile_swarm [--drones=40] [--dim=3] [--radius=0.36] [--speed=0.05]
//                    [--seed=9] [--pairs=12] [--period=48] [--epochs=24]
//
// This is the regime the paper's title is about: no planarization survives
// motion (and none exists in 3D at all), and any route computed against
// yesterday's topology is stale.  Algorithm Route needs nothing but the
// epoch stamp: when the swarm moves mid-walk the session restarts from s
// against the new snapshot — stateless nodes have nothing to forget — and
// every verdict it returns is exact for the topology it completed on.
#include <iostream>
#include <stdexcept>
#include <string>

#include "baselines/churn.h"
#include "graph/churn.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  uesr::util::Cli cli(argc, argv);
  uesr::graph::NodeId drones = 0;
  int dim = 0;
  double radius = 0.0;
  double speed = 0.0;
  std::uint64_t seed = 0;
  int pairs = 0;
  std::uint64_t period = 0;
  std::uint64_t epochs = 0;
  try {
    drones = static_cast<uesr::graph::NodeId>(cli.get_int("drones", 40));
    dim = static_cast<int>(cli.get_int("dim", 3));
    radius = cli.get_double("radius", 0.36);
    speed = cli.get_double("speed", 0.05);
    seed = static_cast<std::uint64_t>(cli.get_int("seed", 9));
    pairs = static_cast<int>(cli.get_int("pairs", 12));
    period = static_cast<std::uint64_t>(cli.get_int("period", 48));
    epochs = static_cast<std::uint64_t>(cli.get_int("epochs", 24));
  } catch (const std::invalid_argument& e) {
    std::cerr << "mobile_swarm: " << e.what() << "\n";
    return 2;
  }

  uesr::graph::WaypointScenario swarm(drones, dim, radius, speed, seed);
  std::cout << "mobile swarm: " << swarm.name() << ", " << drones
            << " drones, epoch every " << period << " transmissions, "
            << epochs << " epochs before the swarm holds still\n\n";

  uesr::baselines::ChurnRouter router(swarm, period, epochs);
  uesr::util::Pcg32 rng(seed ^ 0x54a3);
  uesr::util::Table table({"pair", "ues", "epochs crossed", "restarts",
                           "ues tx", "greedy", "rand-walk"});
  int ues_ok = 0, greedy_ok = 0, rw_ok = 0;
  const std::uint64_t ttl = 40ULL * drones * drones;
  for (int i = 0; i < pairs; ++i) {
    uesr::graph::NodeId s = rng.next_below(drones);
    uesr::graph::NodeId t = rng.next_below(drones);
    if (s == t) t = (t + 1) % drones;
    const auto ues = router.route_ues(s, t);
    const auto greedy = router.route_greedy(s, t);
    const auto walk =
        router.route_random_walk(s, t, ttl, uesr::util::counter_hash(seed, i));
    ues_ok += ues.delivered;
    greedy_ok += greedy.delivered;
    rw_ok += walk.delivered;
    table.row()
        .cell(std::to_string(s) + "->" + std::to_string(t))
        .cell(ues.delivered ? "delivered"
                            : (ues.failure_certified ? "certified-fail"
                                                     : "?"))
        .cell(ues.ticks)
        .cell(ues.restarts)
        .cell(ues.transmissions)
        .cell(greedy.delivered ? std::to_string(greedy.transmissions)
                               : std::string("void!"))
        .cell(walk.delivered ? std::to_string(walk.transmissions)
                             : std::string("ttl"));
  }
  table.print(std::cout);
  std::cout << "\ndelivery: ues " << ues_ok << "/" << pairs
            << " (rest are epoch-exact failure certificates), greedy "
            << greedy_ok << "/" << pairs << ", random walk " << rw_ok << "/"
            << pairs << " — motion breaks geometry, not the UES walk\n";
  return 0;
}
