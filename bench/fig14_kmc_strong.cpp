// Fig. 14 — Strong scaling of KMC with 3.2e10 sites, 1.5k -> 48k master
// cores; paper: 18.5x speedup at 32x cores (58.2% efficiency), with a
// super-linear region between 3k and 12k cores where the per-core dataset
// starts fitting in the master core's L2 cache.
//
// Live runs at 1..8 ranks on a fixed box give the compute rate and counted
// traffic; the 8-rank profile (a single rank sends nothing) is projected to
// the paper's range on the platform model, with the cache boost of the rows
// whose per-core site array fits the master core's caches.

#include <mutex>

#include "bench_common.h"
#include "kmc/engine.h"
#include "util/timer.h"

using namespace mmd;

int main() {
  bench::title("Fig. 14", "KMC strong scaling (3.2e10 sites in the paper)");

  kmc::KmcConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 20;
  cfg.table_segments = 500;
  cfg.dt_scale = 2.0;
  const double conc = 1e-3;
  const int cycles = 3;

  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff), cfg.table_segments);

  std::printf("\n  Live measurement (fixed %d^3-cell box, %lld sites):\n", cfg.nx,
              2ll * cfg.nx * cfg.ny * cfg.nz);
  std::printf("  %8s %16s %16s %12s\n", "ranks", "cycle [ms]", "compute [ms]",
              "speedup");
  double base_ms = 0.0;
  perf::TraceStats profile;
  for (const int nranks : {1, 2, 4, 8}) {
    const kmc::KmcSetup setup(cfg, nranks);
    double cyc_ms = 0.0, comp_ms = 0.0;
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
      std::lock_guard lk(m);
      traffic += bench::traffic_since(before, comm.my_traffic());
      if (comm.rank() == 0) {
        cyc_ms = 1e3 * wall / cycles;
        comp_ms = 1e3 * comp / cycles;
      }
    });
    if (nranks == 1) base_ms = cyc_ms;
    if (nranks == 8) {
      profile = bench::traffic_profile(traffic, nranks, cycles,
                                       2.0 * cfg.nx * cfg.ny * cfg.nz / nranks,
                                       comp_ms / 1e3);
    }
    std::printf("  %8d %16.2f %16.2f %12.2fx\n", nranks, cyc_ms, comp_ms,
                base_ms / cyc_ms);
  }

  bench::project_and_print(perf::Curve::kKmcStrong, profile);
  std::printf("\n  Shape check vs paper Fig. 14: super-linear stretch while the\n"
              "  dataset shrinks into cache, then communication-bound decay to\n"
              "  ~58%% efficiency at 48k cores.\n");
  return 0;
}
