// Fig. 9 — Performance comparison of the MD slave-core optimizations:
// TraditionalTable -> CompactedTable -> +DataReuse -> +DoubleBuffer,
// 2e7 atoms on 65..1040 master+slave cores in the paper.
//
// Here the four strategies run LIVE on the simulated core group; measured
// per-step wall time (BenchHarness: warmup + repeated timed steps, robust
// stats), DMA op/byte counters, and the alpha-beta-modeled Sunway time are
// reported per strategy, then projected across the paper's core counts
// (strong scaling of a fixed 2e7-atom box). Paper result to match in shape:
// compacted tables ~54.7% faster (geo-mean), data reuse ~+4%, double buffer
// ~no further gain. Emits BENCH_fig09_md_table_opts.json.

#include <array>
#include <vector>

#include "bench_common.h"
#include "harness.h"
#include "md/engine.h"
#include "md/slave_force.h"
#include "util/stats.h"
#include "util/timer.h"

using namespace mmd;

int main() {
  bench::title("Fig. 9", "MD table-optimization ladder on the simulated core group");
  bench::BenchHarness h("fig09_md_table_opts");

  md::MdConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 8;
  cfg.temperature = 400.0;
  cfg.table_segments = 5000;  // authentic 39 KB / 273 KB table sizes
  const md::MdSetup setup(cfg, 1);
  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff), cfg.table_segments);

  constexpr std::array kStrategies = {
      md::AccelStrategy::TraditionalTable, md::AccelStrategy::CompactedTable,
      md::AccelStrategy::CompactedReuse, md::AccelStrategy::CompactedReuseDouble};
  constexpr std::array kKeys = {"traditional", "compacted", "compacted_reuse",
                                "compacted_reuse_double"};

  struct Result {
    std::vector<double> wall_ms;  // per timed step
    double modeled_s = 0.0;       // per step, alpha-beta DMA + compute
    sw::DmaStats dma;             // per timed run
    int steps = 0;
  };
  std::array<Result, 4> results;
  const int warm = std::max(1, h.options().warmup);
  const int reps = h.options().repeats;

  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    for (std::size_t s = 0; s < kStrategies.size(); ++s) {
      md::MdEngine engine(cfg, setup.geo, setup.dd, tables, comm.rank());
      sw::SlaveCorePool pool(64);
      md::SlaveForceCompute kernel(tables, pool, kStrategies[s]);
      // The paper's ladder stages exactly one table per force sweep; keep the
      // two-pass shape so each rung measures what Fig. 9 measured. The fused
      // sweep is compared separately below.
      kernel.set_fused(false);
      engine.use_slave_kernel(&kernel);
      engine.initialize(comm);
      engine.run(comm, warm);
      kernel.reset_stats();
      for (int r = 0; r < reps; ++r) {
        util::Timer t;
        engine.run(comm, 1);
        results[s].wall_ms.push_back(1e3 * t.elapsed());
      }
      results[s].steps = reps;
      results[s].modeled_s = kernel.modeled_time() / reps;
      results[s].dma = kernel.dma_stats();
    }
  });

  for (std::size_t s = 0; s < kStrategies.size(); ++s) {
    h.add_samples(std::string(kKeys[s]) + "_wall_ms_per_step", "ms",
                  results[s].wall_ms);
    h.add_value(std::string(kKeys[s]) + "_modeled_ms_per_step", "ms",
                1e3 * results[s].modeled_s);
    h.add_value(std::string(kKeys[s]) + "_dma_ops_per_step", "ops",
                static_cast<double>(results[s].dma.total_ops()) /
                    results[s].steps);
    h.add_value(std::string(kKeys[s]) + "_dma_mb_per_step", "MB",
                static_cast<double>(results[s].dma.total_bytes()) /
                    results[s].steps / 1e6);
  }

  std::printf("\n  %-40s %12s %14s %14s %14s\n", "strategy", "wall [ms]",
              "DMA ops/step", "DMA MB/step", "modeled [ms]");
  for (std::size_t s = 0; s < kStrategies.size(); ++s) {
    const auto& r = results[s];
    std::printf("  %-40s %12.2f %14.3g %14.2f %14.3f\n",
                md::to_string(kStrategies[s]).c_str(), util::median(r.wall_ms),
                static_cast<double>(r.dma.total_ops()) / r.steps,
                static_cast<double>(r.dma.total_bytes()) / r.steps / 1e6,
                1e3 * r.modeled_s);
  }

  // The paper's runtimes are dominated by per-op DMA latency on the real
  // SW26010; on a host CPU the simulated DMA is a cheap memcpy, so the
  // Sunway-shaped comparison is the MODELED column (measured compute +
  // alpha-beta DMA cost), with wall time reported for transparency.
  const double speedup =
      (results[0].modeled_s - results[1].modeled_s) / results[0].modeled_s;
  const double reuse_gain =
      (results[1].modeled_s - results[2].modeled_s) / results[1].modeled_s;
  const double dbl_gain =
      (results[2].modeled_s - results[3].modeled_s) / results[2].modeled_s;
  const double wall2 = util::median(results[2].wall_ms);
  const double wall3 = util::median(results[3].wall_ms);
  std::printf("\n");
  bench::note("compacted vs traditional : %+.1f%% modeled  (paper: +54.7%% geo-mean)",
              100.0 * speedup);
  bench::note("+ data reuse             : %+.1f%% modeled  (paper: +4%% on average)",
              100.0 * reuse_gain);
  bench::note("+ double buffer          : %+.1f%% modeled; wall %+.1f%% "
              "(paper: no obvious gain)",
              100.0 * dbl_gain, 100.0 * (wall2 - wall3) / wall2);
  bench::note("DMA op reduction         : %.0fx",
              static_cast<double>(results[0].dma.total_ops()) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, results[1].dma.total_ops())));
  bench::note("(the split between the table terms depends on the assumed per-op");
  bench::note(" DMA latency, 0.25 us here; the ordering does not)");
  h.add_value("compacted_vs_traditional_modeled_gain", "ratio", speedup,
              /*lower_is_better=*/false);

  // Project the modeled per-core-group time over the paper's core counts
  // (strong scaling of a fixed 2e7-atom box, 65 cores per group).
  std::printf("\n  Projected total runtime over the paper's core counts "
              "(modeled, fixed 2e7 atoms):\n");
  std::printf("  %10s", "cores");
  for (const auto& s : kStrategies) {
    std::printf(" %23s", md::to_string(s).substr(0, 23).c_str());
  }
  std::printf("\n");
  const double atoms_per_group_ref =
      static_cast<double>(setup.geo.num_sites());
  for (const std::uint64_t cores : {65u, 130u, 260u, 520u, 1040u}) {
    const auto groups = static_cast<double>(cores) / 65.0;
    const double atoms_per_group = 2.0e7 / groups;
    const double scale = atoms_per_group / atoms_per_group_ref;
    std::printf("  %10s", bench::cores_str(cores).c_str());
    for (std::size_t s = 0; s < kStrategies.size(); ++s) {
      // Per-step modeled time scales with the per-group atom count; ~100
      // steps, as a nominal cascade segment.
      std::printf(" %23.1f", results[s].modeled_s * scale * 100.0);
    }
    std::printf("\n");
  }
  std::printf("\n  Shape check vs paper Fig. 9: Traditional slowest by a wide\n"
              "  margin at every core count; Compacted captures nearly all of\n"
              "  the gain; Reuse adds a little; DoubleBuffer adds ~nothing.\n");

  // Beyond the paper's ladder: the fused single-sweep force kernel walks the
  // block window once per force evaluation instead of twice. Measured at a
  // table size where BOTH compact tables stay resident (1500 segments ->
  // 2 x 12 KB), on the reuse strategy. Counters cover the whole step (rho +
  // force), so the printed cut understates the force-phase-only reduction;
  // the >= 40% force-phase bar is asserted in tests/test_slave_force.cpp.
  std::printf("\n  Fused force sweep vs two-pass (CompactedReuse, 1500-segment "
              "tables):\n");
  md::MdConfig fcfg = cfg;
  fcfg.table_segments = 1500;
  const md::MdSetup fsetup(fcfg, 1);
  const auto ftables = pot::EamTableSet::build(
      pot::EamModel::iron(fcfg.lattice_constant, fcfg.cutoff),
      fcfg.table_segments);
  struct FusedResult {
    double modeled_s = 0.0;
    sw::DmaStats dma;
  };
  std::array<FusedResult, 2> fres;  // [two_pass, fused]
  world.run([&](comm::Comm& comm) {
    for (int fused = 0; fused < 2; ++fused) {
      md::MdEngine engine(fcfg, fsetup.geo, fsetup.dd, ftables, comm.rank());
      sw::SlaveCorePool pool(64);
      md::SlaveForceCompute kernel(ftables, pool,
                                   md::AccelStrategy::CompactedReuse);
      kernel.set_fused(fused != 0);
      engine.use_slave_kernel(&kernel);
      engine.initialize(comm);
      engine.run(comm, warm);
      kernel.reset_stats();
      for (int r = 0; r < reps; ++r) engine.run(comm, 1);
      fres[fused].modeled_s = kernel.modeled_time() / reps;
      fres[fused].dma = kernel.dma_stats();
    }
  });
  const double get_mb_two =
      static_cast<double>(fres[0].dma.get_bytes) / reps / 1e6;
  const double get_mb_fused =
      static_cast<double>(fres[1].dma.get_bytes) / reps / 1e6;
  std::printf("  %-12s %14s %14s %14s\n", "shape", "get MB/step", "ops/step",
              "modeled [ms]");
  for (int fused = 0; fused < 2; ++fused) {
    std::printf("  %-12s %14.2f %14.3g %14.3f\n",
                fused ? "fused" : "two-pass",
                static_cast<double>(fres[fused].dma.get_bytes) / reps / 1e6,
                static_cast<double>(fres[fused].dma.total_ops()) / reps,
                1e3 * fres[fused].modeled_s);
  }
  const double fused_cut = 1.0 - get_mb_fused / get_mb_two;
  bench::note("fused sweep cuts DMA get traffic by %.1f%% and modeled time by "
              "%.1f%%", 100.0 * fused_cut,
              100.0 * (1.0 - fres[1].modeled_s / fres[0].modeled_s));
  h.add_value("fused_get_mb_per_step", "MB", get_mb_fused);
  h.add_value("two_pass_get_mb_per_step", "MB", get_mb_two);
  h.add_value("fused_get_traffic_cut", "ratio", fused_cut,
              /*lower_is_better=*/false);
  h.add_value("fused_modeled_ms_per_step", "ms", 1e3 * fres[1].modeled_s);
  return h.write();
}
