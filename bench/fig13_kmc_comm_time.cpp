// Fig. 13 — KMC communication time: traditional vs on-demand, 1.6e7 sites,
// C_v = 4.5e-5, 16..1024 master cores. Paper: on-demand gives ~21x lower
// communication time on average.
//
// Live runs provide measured in-process communication seconds AND per-cycle
// message/byte/collective counts; the platform model prices both strategies'
// counts as one communication round each at the paper's core counts.

#include <algorithm>
#include <cmath>
#include <mutex>

#include "bench_common.h"
#include "harness.h"
#include "kmc/engine.h"
#include "util/stats.h"

using namespace mmd;

namespace {

struct Cost {
  kmc::GhostTraffic traffic;
  comm::RankTraffic comm_traffic;  ///< all ranks' comm.my_traffic() deltas
  double comm_seconds = 0.0;
  std::uint64_t cycles = 0;
};

Cost run(int nranks, kmc::GhostStrategy strategy, int cells, double conc,
         int cycles) {
  kmc::KmcConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = cells;
  cfg.table_segments = 500;
  cfg.dt_scale = 2.0;
  const kmc::KmcSetup setup(cfg, nranks);
  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff), cfg.table_segments);
  Cost cost;
  std::mutex m;
  comm::World world(nranks);
  world.run([&](comm::Comm& comm) {
    kmc::KmcEngine engine(cfg, setup.geo, setup.dd, tables, comm.rank(), strategy);
    engine.initialize_random(comm, conc);
    engine.ghost_comm().reset_traffic();
    const comm::RankTraffic before = comm.my_traffic();
    engine.run_cycles(comm, cycles);
    const comm::RankTraffic during =
        bench::traffic_since(before, comm.my_traffic());
    const double comm_s = comm.allreduce_max(engine.communication_seconds());
    std::lock_guard lk(m);
    cost.traffic += engine.ghost_comm().traffic();
    cost.comm_traffic += during;
    if (comm.rank() == 0) {
      cost.comm_seconds = comm_s;
      cost.cycles = engine.stats().cycles;
    }
  });
  return cost;
}

}  // namespace

int main() {
  bench::title("Fig. 13", "KMC communication time: traditional vs on-demand");
  // Each sample is a whole engine lifecycle, so a handful of repeats keeps
  // the runtime sane; MMD_BENCH_REPEATS still overrides.
  bench::BenchHarness h("fig13_kmc_comm_time", {.warmup = 1, .repeats = 5});

  const int cells = 24;
  const double conc = 4.5e-5;
  const int cycles = 3;
  const int nranks = 4;

  // The ghost traffic is deterministic per strategy (seeded initialization);
  // the measured communication seconds are not, so those are sampled over
  // warmup + repeats full runs.
  Cost trad, ondemand;
  std::vector<double> trad_ms, ondemand_ms;
  for (int rep = 0; rep < h.options().warmup + h.options().repeats; ++rep) {
    trad = run(nranks, kmc::GhostStrategy::Traditional, cells, conc, cycles);
    ondemand =
        run(nranks, kmc::GhostStrategy::OnDemandOneSided, cells, conc, cycles);
    if (rep >= h.options().warmup) {
      trad_ms.push_back(1e3 * trad.comm_seconds);
      ondemand_ms.push_back(1e3 * ondemand.comm_seconds);
    }
  }
  h.add_samples("traditional_comm_ms", "ms", trad_ms);
  h.add_samples("ondemand_comm_ms", "ms", ondemand_ms);
  h.add_value("traditional_bytes_per_cycle", "bytes",
              static_cast<double>(trad.traffic.bytes_sent) / cycles);
  h.add_value("ondemand_bytes_per_cycle", "bytes",
              static_cast<double>(ondemand.traffic.bytes_sent) / cycles);

  std::printf("\n  Live measurement (%d ranks, %d^3 cells, C_v = %.1e):\n", nranks,
              cells, conc);
  // Collectives per rank-cycle: every strategy's dt-sync allreduce, plus the
  // on-demand put-window fences.
  auto collectives = [&](const Cost& c) {
    return static_cast<double>(c.comm_traffic.collectives) / nranks / cycles;
  };
  std::printf("  %-24s %14s %14s %16s %16s\n", "strategy", "msgs/cycle",
              "bytes/cycle", "coll/rank-cycle", "comm time [ms] (median)");
  auto row = [&](const char* name, const Cost& c, const std::vector<double>& ms) {
    std::printf("  %-24s %14.1f %14.1f %16.2f %16.3f\n", name,
                static_cast<double>(c.traffic.messages_sent) / cycles,
                static_cast<double>(c.traffic.bytes_sent) / cycles,
                collectives(c), util::median(ms));
  };
  row("Traditional", trad, trad_ms);
  row("On-demand (one-sided)", ondemand, ondemand_ms);

  // Project per-rank, per-cycle comm cost at the paper's scale: 1.6e7 sites
  // over `cores` master cores (1 rank each). Traditional shell volume scales
  // with the subdomain surface; on-demand volume with the vacancies per rank.
  const perf::PlatformConfig platform = perf::PlatformConfig::taihulight();
  const perf::LogGpModel host;
  std::printf("\n  Modeled communication time per cycle at the paper's scale\n");
  std::printf("  (live traffic rescaled to 1.6e7 sites, %s platform model):\n",
              platform.name.c_str());
  std::printf("  %8s %18s %18s %10s %10s\n", "cores", "traditional [us]",
              "on-demand [us]", "speedup", "paper");
  std::vector<double> speedups;
  std::vector<double> core_series, trad_us, ondemand_us;
  const double sites_per_rank_live =
      2.0 * cells * cells * cells / static_cast<double>(nranks);
  for (const std::uint64_t cores : {16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
    const std::uint64_t ranks = cores;
    const double sites_per_rank = 1.6e7 / static_cast<double>(cores);
    const double surf = std::pow(sites_per_rank / sites_per_rank_live, 2.0 / 3.0);
    const double vol = sites_per_rank / sites_per_rank_live;
    perf::RoundTraffic t_trad;
    t_trad.sends = static_cast<double>(trad.traffic.messages_sent) / nranks / cycles;
    t_trad.bytes =
        static_cast<double>(trad.traffic.bytes_sent) / nranks / cycles * surf;
    t_trad.collectives = collectives(trad);
    perf::RoundTraffic t_od;
    t_od.sends = std::max(
        1.0, static_cast<double>(ondemand.traffic.messages_sent) / nranks / cycles);
    t_od.bytes =
        static_cast<double>(ondemand.traffic.bytes_sent) / nranks / cycles * vol;
    t_od.collectives = collectives(ondemand);
    const double t_trad_s = perf::price_round(platform, ranks, t_trad, host,
                                              /*contention=*/true).comm_s;
    const double t_od_s = perf::price_round(platform, ranks, t_od, host,
                                            /*contention=*/true).comm_s;
    speedups.push_back(t_trad_s / t_od_s);
    core_series.push_back(static_cast<double>(cores));
    trad_us.push_back(1e6 * t_trad_s);
    ondemand_us.push_back(1e6 * t_od_s);
    std::printf("  %8s %18.2f %18.2f %9.1fx %9s\n",
                bench::cores_str(cores).c_str(), 1e6 * t_trad_s, 1e6 * t_od_s,
                t_trad_s / t_od_s, "21x");
  }
  std::printf("\n");
  bool write_failed = false;
  {
    bench::FigureJson fj("fig13_kmc_comm_time");
    fj.add_note("paper_speedup", "21x");
    fj.add_series("cores", core_series);
    fj.add_series("traditional_us", trad_us);
    fj.add_series("ondemand_us", ondemand_us);
    fj.add_series("speedup", speedups);
    write_failed = fj.write().empty();
  }
  h.add_value("modeled_speedup_geomean", "ratio", util::geometric_mean(speedups),
              /*lower_is_better=*/false);
  bench::note("mean modeled speedup: %.1fx (paper: 21x on average)",
              util::geometric_mean(speedups));
  bench::note("measured in-process comm-time ratio: %.1fx",
              util::median(trad_ms) / std::max(1e-9, util::median(ondemand_ms)));
  const int rc = h.write();
  return write_failed ? 1 : rc;
}
