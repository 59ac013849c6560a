// Fig. 15 — Weak scaling of KMC, 1e7 sites per master core, 1.6k -> 102.4k
// cores, C_v = 2e-6. Paper: computation flat, communication creeping up from
// the time-synchronization collectives; 74% efficiency at 102.4k cores.
//
// Live runs keep the per-rank box fixed; the 8-rank run's counted per-rank
// traffic is projected to the paper's core counts on the platform model.

#include <mutex>

#include "bench_common.h"
#include "kmc/engine.h"
#include "util/timer.h"

using namespace mmd;

int main() {
  bench::title("Fig. 15", "KMC weak scaling (1e7 sites per core in the paper)");

  kmc::KmcConfig base_cfg;
  base_cfg.table_segments = 500;
  base_cfg.dt_scale = 2.0;
  const int per_rank_cells = 12;
  const double conc = 2e-6 * 500;  // scaled so the tiny box still hosts events
  const int cycles = 3;

  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(base_cfg.lattice_constant, base_cfg.cutoff),
      base_cfg.table_segments);

  std::printf("\n  Live weak-scaling measurement (%d^3 cells per rank):\n",
              per_rank_cells);
  std::printf("  %8s %14s %14s %14s %12s\n", "ranks", "cycle [ms]",
              "compute [ms]", "comm [ms]", "efficiency");
  double base_ms = 0.0;
  perf::TraceStats profile;
  for (const int nranks : {1, 2, 4, 8}) {
    kmc::KmcConfig cfg = base_cfg;
    cfg.nx = per_rank_cells * (nranks >= 2 ? 2 : 1);
    cfg.ny = per_rank_cells * (nranks >= 4 ? 2 : 1);
    cfg.nz = per_rank_cells * (nranks >= 8 ? 2 : 1);
    const kmc::KmcSetup setup(cfg, nranks);
    double cyc_ms = 0.0, comp_ms = 0.0, comm_ms = 0.0;
    comm::RankTraffic traffic;
    std::mutex m;
    comm::World world(nranks);
    world.run([&](comm::Comm& comm) {
      kmc::KmcEngine engine(cfg, setup.geo, setup.dd, tables, comm.rank(),
                            kmc::GhostStrategy::OnDemandOneSided);
      engine.initialize_random(comm, conc);
      const comm::RankTraffic before = comm.my_traffic();
      util::Timer t;
      engine.run_cycles(comm, cycles);
      const double wall = comm.allreduce_max(t.elapsed());
      const double comp = comm.allreduce_max(engine.computation_seconds());
      const double cms = comm.allreduce_max(engine.communication_seconds());
      std::lock_guard lk(m);
      traffic += bench::traffic_since(before, comm.my_traffic());
      if (comm.rank() == 0) {
        cyc_ms = 1e3 * wall / cycles;
        comp_ms = 1e3 * comp / cycles;
        comm_ms = 1e3 * cms / cycles;
      }
    });
    if (nranks == 1) base_ms = cyc_ms;
    if (nranks == 8) {
      profile = bench::traffic_profile(
          traffic, nranks, cycles,
          2.0 * per_rank_cells * per_rank_cells * per_rank_cells,
          comp_ms / 1e3);
    }
    std::printf("  %8d %14.2f %14.2f %14.2f %11.1f%%\n", nranks, cyc_ms, comp_ms,
                comm_ms, 100.0 * base_ms / cyc_ms);
  }

  bench::project_and_print(perf::Curve::kKmcWeak, profile);
  std::printf("\n  Shape check vs paper Fig. 15: compute constant; the growing\n"
              "  term is the collective time synchronization, pulling weak\n"
              "  efficiency from ~97%% down toward ~74%% at 102.4k cores.\n");
  return 0;
}
