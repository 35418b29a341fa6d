// Busy-network scenario: one mesh, many users talking at once.
//
//   $ ./busy_network [--nodes=40] [--sessions=200] [--workload=poisson]
//                    [--interarrival=2.0] [--sink=0] [--ttl=4096]
//                    [--seed=7] [--churn] [--period=64] [--epochs=32]
//                    [--threads=N]
//
// A malformed flag value prints its message and exits 2.
//
// Everything else in examples/ routes one message at a time; a deployed
// network serves a crowd.  The traffic engine admits a whole workload —
// Poisson arrivals, a hotspot sink, all-pairs gossip, or a mixed blend of
// route/hybrid/broadcast sessions — over one shared topology and one
// shared transmission clock, steps every in-flight session concurrently,
// and completes each with its exact Theorem-1 verdict.  With --churn the
// same crowd routes while the topology changes under it on a single
// shared schedule: deliveries and failure certificates stay exact per
// session, stamped with the epoch they completed against.
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "baselines/workload.h"
#include "graph/churn.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/table.h"

int main(int argc, char** argv) {
  uesr::util::Cli cli(argc, argv);
  uesr::graph::NodeId nodes = 0;
  int sessions = 0;
  const std::string kind = cli.get("workload", "poisson");
  double interarrival = 0.0;
  uesr::graph::NodeId sink = 0;
  std::uint64_t ttl = 0;
  std::uint64_t seed = 0;
  bool churn = false;
  std::uint64_t period = 0;
  std::uint64_t epochs = 0;
  unsigned threads = 0;
  try {
    nodes = static_cast<uesr::graph::NodeId>(cli.get_int("nodes", 40));
    sessions = static_cast<int>(cli.get_int("sessions", 200));
    interarrival = cli.get_double("interarrival", 2.0);
    sink = static_cast<uesr::graph::NodeId>(cli.get_int("sink", 0));
    ttl = static_cast<std::uint64_t>(cli.get_int("ttl", 4096));
    seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
    churn = cli.get_bool("churn", false);
    period = static_cast<std::uint64_t>(cli.get_int("period", 64));
    epochs = static_cast<std::uint64_t>(cli.get_int("epochs", 32));
    threads = uesr::util::resolve_threads(
        static_cast<unsigned>(cli.get_int("threads", 0)));
  } catch (const std::invalid_argument& e) {
    std::cerr << "busy_network: " << e.what() << "\n";
    return 2;
  }

  uesr::baselines::Workload w;
  if (kind == "poisson") {
    w = uesr::baselines::poisson_workload(nodes, sessions, interarrival,
                                          seed);
  } else if (kind == "hotspot") {
    w = uesr::baselines::hotspot_workload(nodes, sessions, sink,
                                          interarrival, seed);
  } else if (kind == "allpairs") {
    w = uesr::baselines::all_pairs_workload(nodes);
  } else if (kind == "mixed") {
    w = uesr::baselines::mixed_workload(nodes, sessions, interarrival, ttl,
                                        seed);
  } else {
    std::cerr << "unknown --workload (poisson|hotspot|allpairs|mixed)\n";
    return 1;
  }

  uesr::baselines::TrafficCell cell;
  std::string topology;
  if (churn) {
    uesr::graph::NodeChurnScenario sc(
        uesr::graph::connected_gnp(nodes, 0.16, seed ^ 0x11), 0.08, 0.5,
        seed ^ 0x22);
    topology = sc.name();
    cell = uesr::baselines::traffic_experiment(sc, period, epochs, w,
                                               0x5eed0001, threads);
  } else {
    uesr::graph::Graph g =
        uesr::graph::connected_gnp(nodes, 0.16, seed ^ 0x11);
    topology = "connected-gnp(" + std::to_string(nodes) + ")";
    cell = uesr::baselines::traffic_experiment(g, w, 0x5eed0001, threads);
  }

  std::cout << "busy network: " << w.name << " over " << topology << ", "
            << threads << " worker lanes\n\n";
  uesr::util::Table t({"sessions", "delivered", "cert-fail", "exhausted",
                       "p50 tx", "p99 tx", "restarts", "drained at tick"});
  t.row()
      .cell(cell.sessions)
      .cell(cell.delivered)
      .cell(cell.certified)
      .cell(cell.exhausted)
      .cell(cell.p50_tx, 0)
      .cell(cell.p99_tx, 0)
      .cell(cell.restarts)
      .cell(cell.final_clock);
  t.print(std::cout);
  std::cout << "\nevery session ended with its exact verdict — delivery, "
               "failure certificate"
            << (churn ? " (epoch-exact under the shared churn schedule)"
                      : "")
            << ", or a hybrid give-up — while sharing one clock; rerun "
               "with --threads=1 to see the same table from a serial "
               "engine\n";
  return 0;
}
