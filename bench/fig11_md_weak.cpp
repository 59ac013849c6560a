// Fig. 11 — Weak scaling of MD, 3.9e7 atoms per core group, 104k -> 6.656M
// master+slave cores; computation time stays flat while communication grows
// slowly; 85% parallel efficiency at 4e12 atoms on 6.656M cores.
//
// Live runs keep the per-rank box fixed while the rank count grows; the
// 8-rank run's counted per-rank traffic is projected to the paper's core
// counts on the platform model.

#include <mutex>

#include "bench_common.h"
#include "md/engine.h"
#include "util/timer.h"

using namespace mmd;

int main() {
  bench::title("Fig. 11", "MD weak scaling (3.9e7 atoms per core group in the paper)");

  md::MdConfig base_cfg;
  base_cfg.temperature = 600.0;
  base_cfg.table_segments = 2000;
  const int per_rank_cells = 8;  // 8^3 cells = 1024 atoms per rank
  const int steps = 5;

  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(base_cfg.lattice_constant, base_cfg.cutoff),
      base_cfg.table_segments);

  std::printf("\n  Live weak-scaling measurement (%d^3 cells per rank):\n",
              per_rank_cells);
  std::printf("  %8s %14s %14s %14s %12s\n", "ranks", "step [ms]",
              "compute [ms]", "comm [ms]", "efficiency");

  double base_time = 0.0;
  perf::TraceStats profile;
  for (const int nranks : {1, 2, 4, 8}) {
    md::MdConfig cfg = base_cfg;
    // Grow the box so each rank keeps the same subdomain.
    cfg.nx = per_rank_cells * (nranks >= 2 ? 2 : 1);
    cfg.ny = per_rank_cells * (nranks >= 4 ? 2 : 1);
    cfg.nz = per_rank_cells * (nranks >= 8 ? 2 : 1);
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
    if (nranks == 1) base_time = step_ms;
    if (nranks == 8) {
      profile = bench::traffic_profile(
          traffic, nranks, steps,
          2.0 * per_rank_cells * per_rank_cells * per_rank_cells,
          comp_ms / 1e3);
    }
    std::printf("  %8d %14.2f %14.2f %14.2f %11.1f%%\n", nranks, step_ms, comp_ms,
                comm_ms, 100.0 * base_time / step_ms);
  }

  bench::project_and_print(perf::Curve::kMdWeak, profile);
  std::printf("\n  Shape check vs paper Fig. 11: computation flat across core\n"
              "  counts; communication creeps up with contention; efficiency\n"
              "  stays in the 80-95%% band out to 6.656M cores / 4e12 atoms.\n");
  std::printf("\n  Memory argument (in-text): the lattice neighbor list's\n"
              "  per-atom footprint lets 4e12 atoms fit where a Verlet-list\n"
              "  code manages ~8e11 — see tab_memory_footprint.\n");
  return 0;
}
