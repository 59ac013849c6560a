// Ablation: atomistic KMC (the paper's choice, §2.2) vs object KMC (the
// related-work alternative, refs [13, 15]) on the same initial damage.
//
// Both engines start from an identical random vacancy population and evolve
// it at 600 K. AKMC resolves every vacancy-atom exchange on the BCC lattice;
// OKMC steps whole clusters with coarse-grained rates. The comparison shows
// (a) both reproduce the clustering trend of Fig. 17, and (b) why the paper
// prefers AKMC: full EAM fidelity and per-site detail, at the cost of much
// smaller time steps — which is exactly what makes its parallel scaling
// story matter.

#include <mutex>

#include "bench_common.h"
#include "baselines_lib/okmc.h"
#include "kmc/clusters.h"
#include "kmc/engine.h"

using namespace mmd;

int main() {
  bench::title("Ablation", "atomistic KMC vs object KMC on identical initial damage");

  kmc::KmcConfig acfg;
  acfg.nx = acfg.ny = acfg.nz = 14;
  acfg.table_segments = 500;
  acfg.dt_scale = 4.0;
  const double conc = 0.008;
  const int nranks = 2;
  const kmc::KmcSetup setup(acfg, nranks);
  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(acfg.lattice_constant, acfg.cutoff), acfg.table_segments);

  // --- AKMC ---
  std::vector<std::int64_t> initial, akmc_final;
  double akmc_time = 0.0;
  std::uint64_t akmc_events = 0;
  std::mutex m;
  comm::World world(nranks);
  world.run([&](comm::Comm& comm) {
    kmc::KmcEngine engine(acfg, setup.geo, setup.dd, tables, comm.rank(),
                          kmc::GhostStrategy::OnDemandOneSided);
    engine.initialize_random(comm, conc);
    auto init = engine.gather_vacancies(comm);
    engine.run_cycles(comm, 40);
    auto fin = engine.gather_vacancies(comm);
    const auto ev = comm.allreduce_sum_u64(engine.stats().events);
    if (comm.rank() == 0) {
      std::lock_guard lk(m);
      initial = std::move(init);
      akmc_final = std::move(fin);
      akmc_time = engine.mc_time();
      akmc_events = ev;
    }
  });

  // --- OKMC from the same vacancies ---
  kmc::OkmcConfig ocfg;
  ocfg.nx = acfg.nx;
  ocfg.ny = acfg.ny;
  ocfg.nz = acfg.nz;
  ocfg.temperature = acfg.temperature;
  kmc::OkmcEngine okmc(ocfg);
  std::vector<util::Vec3> seeds;
  for (std::int64_t gid : initial) {
    seeds.push_back(setup.geo.position(setup.geo.site_coord(gid)));
  }
  okmc.initialize(seeds);
  const double okmc_mean0 = okmc.mean_cluster_size();
  okmc.run_until(akmc_time);  // same physical MC time

  const auto before = kmc::cluster_vacancies(setup.geo, initial);
  const auto after = kmc::cluster_vacancies(setup.geo, akmc_final);

  std::printf("\n  initial damage: %llu vacancies, %llu clusters (mean %.2f)\n",
              static_cast<unsigned long long>(before.num_vacancies),
              static_cast<unsigned long long>(before.num_clusters),
              before.mean_size);
  std::printf("\n  %-10s %12s %12s %12s %14s %12s\n", "engine", "MC time [s]",
              "events", "clusters", "mean size", "vacancies");
  std::printf("  %-10s %12.3g %12llu %12llu %14.2f %12llu\n", "AKMC", akmc_time,
              static_cast<unsigned long long>(akmc_events),
              static_cast<unsigned long long>(after.num_clusters),
              after.mean_size,
              static_cast<unsigned long long>(after.num_vacancies));
  std::printf("  %-10s %12.3g %12llu %12zu %14.2f %12lld\n", "OKMC",
              okmc.time(), static_cast<unsigned long long>(okmc.events()),
              okmc.objects().size(), okmc.mean_cluster_size(),
              static_cast<long long>(okmc.total_vacancies()));

  std::printf("\n");
  bench::note("both engines conserve vacancies and aggregate them (mean size");
  bench::note("grows from %.2f: AKMC -> %.2f, OKMC -> %.2f from %.2f)",
              before.mean_size, after.mean_size, okmc.mean_cluster_size(),
              okmc_mean0);
  bench::note("AKMC pays ~%.0fx more events for on-lattice EAM fidelity — the",
              static_cast<double>(akmc_events) /
                  std::max(1.0, static_cast<double>(okmc.events())));
  bench::note("cost that motivates the paper's parallel-scaling work.");
  return 0;
}
