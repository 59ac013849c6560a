#include <gtest/gtest.h>

#include <cmath>
#include <mutex>

#include "baselines_lib/newton_force.h"
#include "md/engine.h"
#include "md/reference_force.h"

namespace mmd::md {
namespace {

struct Rig {
  MdConfig cfg;
  MdSetup setup;
  pot::EamTableSet tables;

  explicit Rig(int nranks, int box = 8)
      : cfg(make_cfg(box)),
        setup(cfg, nranks),
        tables(pot::EamTableSet::build(
            pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff),
            cfg.table_segments)) {}

  static MdConfig make_cfg(int box) {
    MdConfig c;
    c.nx = c.ny = c.nz = box;
    c.temperature = 500.0;
    c.table_segments = 800;
    return c;
  }
};

class NewtonRanks : public ::testing::TestWithParam<int> {};

TEST_P(NewtonRanks, MatchesReferenceOnThermalCrystal) {
  const int nranks = GetParam();
  Rig rig(nranks);
  comm::World world(nranks);
  world.run([&](comm::Comm& comm) {
    MdEngine engine(rig.cfg, rig.setup.geo, rig.setup.dd, rig.tables, comm.rank());
    engine.initialize(comm);
    engine.run(comm, 3);  // develop displacements (and refresh ghosts)
    auto& lnl = engine.lattice();
    lat::GhostExchange ghosts(lnl, rig.setup.dd, comm.rank());
    ghosts.exchange(comm);

    // Reference pass.
    ReferenceForce ref(rig.tables);
    ref.compute_rho(lnl);
    ghosts.exchange_rho(comm);
    ref.compute_forces(lnl);
    std::vector<double> rho_ref;
    std::vector<util::Vec3> f_ref;
    for (std::size_t i : lnl.owned_indices()) {
      rho_ref.push_back(lnl.entry(i).rho);
      f_ref.push_back(lnl.entry(i).f);
    }

    // Newton (half-loop + reverse accumulation) pass.
    NewtonForce newton(rig.tables);
    newton.compute_rho(comm, lnl, ghosts);
    newton.compute_forces(comm, lnl, ghosts);

    double rho_err = 0.0, f_err = 0.0;
    std::size_t k = 0;
    for (std::size_t i : lnl.owned_indices()) {
      rho_err = std::max(rho_err, std::abs(lnl.entry(i).rho - rho_ref[k]));
      f_err = std::max(f_err, (lnl.entry(i).f - f_ref[k]).norm());
      ++k;
    }
    EXPECT_LT(comm.allreduce_max(rho_err), 1e-10);
    EXPECT_LT(comm.allreduce_max(f_err), 1e-9);
  });
}

TEST_P(NewtonRanks, MatchesReferenceWithRunaways) {
  const int nranks = GetParam();
  Rig rig(nranks);
  comm::World world(nranks);
  world.run([&](comm::Comm& comm) {
    MdEngine engine(rig.cfg, rig.setup.geo, rig.setup.dd, rig.tables, comm.rank());
    engine.initialize(comm);
    auto& lnl = engine.lattice();
    // Every rank detaches one atom near its subdomain corner.
    const std::size_t idx = lnl.box().entry_index({1, 1, 1, 0});
    lnl.entry(idx).r += util::Vec3{0.5, 0.4, 0.3};
    lnl.detach(idx);
    lat::GhostExchange ghosts(lnl, rig.setup.dd, comm.rank());
    ghosts.exchange(comm);

    ReferenceForce ref(rig.tables);
    ref.compute_rho(lnl);
    ghosts.exchange_rho(comm);
    ref.compute_forces(lnl);
    std::vector<util::Vec3> f_ref;
    for (std::size_t i : lnl.owned_indices()) f_ref.push_back(lnl.entry(i).f);
    std::vector<util::Vec3> fr_ref;
    lnl.for_each_owned_runaway(
        [&](std::int32_t ri, std::size_t) { fr_ref.push_back(lnl.runaway(ri).f); });

    NewtonForce newton(rig.tables);
    newton.compute_rho(comm, lnl, ghosts);
    newton.compute_forces(comm, lnl, ghosts);

    double err = 0.0;
    std::size_t k = 0;
    for (std::size_t i : lnl.owned_indices()) {
      err = std::max(err, (lnl.entry(i).f - f_ref[k++]).norm());
    }
    k = 0;
    lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t) {
      err = std::max(err, (lnl.runaway(ri).f - fr_ref[k++]).norm());
    });
    EXPECT_LT(comm.allreduce_max(err), 1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, NewtonRanks, ::testing::Values(1, 2, 4, 8));

TEST(NewtonForce, RejectsAlloyTables) {
  const auto alloy = pot::EamTableSet::build(pot::EamModel::iron_copper(), 300);
  EXPECT_THROW(NewtonForce nf(alloy), std::invalid_argument);
}

TEST(NewtonForce, HalvesPairArithmetic) {
  // Count pair evaluations via an instrumented sweep: the half loop visits
  // each unordered lattice pair once; the full loop twice.
  Rig rig(1, 6);
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    lat::LatticeNeighborList lnl(rig.setup.geo, rig.setup.dd.local_box(0),
                                 rig.cfg.cutoff + kNeighborSkin);
    lnl.fill_perfect(lat::Species::Fe);
    lat::GhostExchange ghosts(lnl, rig.setup.dd, 0);
    ghosts.exchange(comm);
    std::uint64_t half = 0, full = 0;
    const double cut2 = rig.tables.cutoff * rig.tables.cutoff;
    for (std::size_t idx : lnl.owned_indices()) {
      const auto& e = lnl.entry(idx);
      const int sub = static_cast<int>(idx & 1);
      for (const std::int64_t d : lnl.deltas(sub)) {
        const auto& o = lnl.entry(idx + static_cast<std::size_t>(d));
        if ((o.r - e.r).norm2() > cut2) continue;
        ++full;
        if (o.id > e.id) ++half;
      }
    }
    EXPECT_EQ(full, 2 * half);
  });
}

}  // namespace
}  // namespace mmd::md
