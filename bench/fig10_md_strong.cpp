// Fig. 10 — Strong scaling of MD with 3.2e10 atoms, 97.5k -> 6.24M
// master+slave cores. Paper: 26.4x speedup over a 64x core increase (41.3%
// parallel efficiency), degrading gradually from communication overhead.
//
// Live runs at 1..8 in-process ranks on a fixed box supply the measured
// per-rank compute rate and counted traffic; the 1-rank run's profile is
// projected across the paper's core counts on the platform model.

#include <mutex>

#include "bench_common.h"
#include "md/engine.h"
#include "util/timer.h"

using namespace mmd;

int main() {
  bench::title("Fig. 10", "MD strong scaling (3.2e10 atoms in the paper)");

  md::MdConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 12;
  cfg.temperature = 600.0;
  cfg.table_segments = 2000;
  const int steps = 5;

  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff), cfg.table_segments);

  std::printf("\n  Live measurement (fixed %d^3-cell box, %lld atoms):\n",
              cfg.nx, static_cast<long long>(2ll * cfg.nx * cfg.ny * cfg.nz));
  std::printf("  %8s %14s %14s %14s %12s\n", "ranks", "step [ms]",
              "compute [ms]", "comm [ms]", "speedup");

  double base_time = 0.0;
  perf::TraceStats profile;
  for (const int nranks : {1, 2, 4, 8}) {
    const md::MdSetup setup(cfg, nranks);
    double step_ms = 0.0, comp_ms = 0.0, comm_ms = 0.0;
    comm::RankTraffic traffic;
    std::mutex m;
    comm::World world(nranks);
    world.run([&](comm::Comm& comm) {
      md::MdEngine engine(cfg, setup.geo, setup.dd, tables, comm.rank());
      engine.initialize(comm);
      const comm::RankTraffic before = comm.my_traffic();
      util::Timer t;
      engine.run(comm, steps);
      const double wall = comm.allreduce_max(t.elapsed());
      const double comp = comm.allreduce_max(engine.computation_seconds());
      const double cms = comm.allreduce_max(engine.communication_seconds());
      std::lock_guard lk(m);
      traffic += bench::traffic_since(before, comm.my_traffic());
      if (comm.rank() == 0) {
        step_ms = 1e3 * wall / steps;
        comp_ms = 1e3 * comp / steps;
        comm_ms = 1e3 * cms / steps;
      }
    });
    if (nranks == 1) {
      base_time = step_ms;
      profile = bench::traffic_profile(traffic, nranks, steps,
                                       2.0 * cfg.nx * cfg.ny * cfg.nz,
                                       comp_ms / 1e3);
    }
    std::printf("  %8d %14.2f %14.2f %14.2f %12.2fx\n", nranks, step_ms, comp_ms,
                comm_ms, base_time / step_ms);
  }

  bench::project_and_print(perf::Curve::kMdStrong, profile);
  std::printf("\n  Shape check vs paper Fig. 10: near-ideal at small scale,\n"
              "  efficiency decaying toward ~40%% at 64x cores as ghost exchange\n"
              "  and contention dominate the shrinking subdomains.\n");
  return 0;
}
