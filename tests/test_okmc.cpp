#include <gtest/gtest.h>

#include <cmath>

#include "baselines_lib/okmc.h"

namespace mmd::kmc {
namespace {

OkmcConfig cfg600() {
  OkmcConfig c;
  c.nx = c.ny = c.nz = 16;
  c.temperature = 600.0;
  return c;
}

TEST(Okmc, EmptyEngineNoEvents) {
  OkmcEngine e(cfg600());
  EXPECT_FALSE(e.step());
  EXPECT_EQ(e.total_vacancies(), 0);
  EXPECT_DOUBLE_EQ(e.mean_cluster_size(), 0.0);
}

TEST(Okmc, RateModelMonotonicity) {
  OkmcEngine e(cfg600());
  // Bigger clusters diffuse slower...
  EXPECT_GT(e.hop_rate(1), e.hop_rate(4));
  EXPECT_GT(e.hop_rate(4), e.hop_rate(32));
  // ...and bind their vacancies more strongly.
  EXPECT_GT(e.binding_energy(8), e.binding_energy(2));
  EXPECT_DOUBLE_EQ(e.binding_energy(1), 0.0);
  EXPECT_DOUBLE_EQ(e.emission_rate(1), 0.0);
  EXPECT_GT(e.emission_rate(2), 0.0);
  // Binding approaches the formation energy from below.
  EXPECT_LT(e.binding_energy(1000), cfg600().formation_energy);
  EXPECT_GT(e.binding_energy(1000), e.binding_energy(2));
}

TEST(Okmc, CaptureRadiusGrowsWithSize) {
  OkmcEngine e(cfg600());
  EXPECT_NEAR(e.capture_radius(8), 2.0 * e.capture_radius(1), 1e-12);
}

TEST(Okmc, ImmediateCoalescenceOnInit) {
  OkmcEngine e(cfg600());
  // Two vacancies closer than the combined capture radius merge at init.
  e.initialize({{10.0, 10.0, 10.0}, {12.0, 10.0, 10.0}});
  EXPECT_EQ(e.objects().size(), 1u);
  EXPECT_EQ(e.objects()[0].size, 2);
  EXPECT_EQ(e.total_vacancies(), 2);
}

TEST(Okmc, DistantObjectsStaySeparate) {
  OkmcEngine e(cfg600());
  e.initialize({{5.0, 5.0, 5.0}, {30.0, 30.0, 30.0}});
  EXPECT_EQ(e.objects().size(), 2u);
}

TEST(Okmc, VacancyConservation) {
  OkmcEngine e(cfg600());
  util::Rng rng(9);
  std::vector<util::Vec3> seeds;
  const double L = 16 * cfg600().lattice_constant;
  for (int i = 0; i < 40; ++i) {
    seeds.push_back({rng.uniform(0, L), rng.uniform(0, L), rng.uniform(0, L)});
  }
  e.initialize(seeds);
  const std::int64_t n0 = e.total_vacancies();
  EXPECT_EQ(n0, 40);
  e.run_events(500);
  EXPECT_EQ(e.total_vacancies(), n0);
  EXPECT_GT(e.events(), 0u);
  EXPECT_GT(e.time(), 0.0);
}

TEST(Okmc, ClusteringProgresses) {
  // Diffusing monovacancies aggregate: mean cluster size grows.
  OkmcEngine e(cfg600());
  util::Rng rng(11);
  std::vector<util::Vec3> seeds;
  const double L = 16 * cfg600().lattice_constant;
  for (int i = 0; i < 60; ++i) {
    seeds.push_back({rng.uniform(0, L), rng.uniform(0, L), rng.uniform(0, L)});
  }
  e.initialize(seeds);
  const double mean0 = e.mean_cluster_size();
  e.run_events(3000);
  EXPECT_GT(e.mean_cluster_size(), mean0);
  EXPECT_LT(e.objects().size(), seeds.size());
}

TEST(Okmc, PositionsStayInBox) {
  OkmcEngine e(cfg600());
  e.initialize({{1.0, 1.0, 1.0}});
  e.run_events(2000);
  const double L = 16 * cfg600().lattice_constant;
  for (const auto& o : e.objects()) {
    EXPECT_GE(o.r.x, 0.0);
    EXPECT_LT(o.r.x, L);
    EXPECT_GE(o.r.y, 0.0);
    EXPECT_LT(o.r.y, L);
    EXPECT_GE(o.r.z, 0.0);
    EXPECT_LT(o.r.z, L);
  }
}

TEST(Okmc, HistogramConsistent) {
  OkmcEngine e(cfg600());
  e.initialize({{5, 5, 5}, {6, 5, 5}, {40, 40, 40}});
  const auto h = e.size_histogram();
  EXPECT_EQ(h.weighted_total(), e.total_vacancies());
  EXPECT_EQ(h.total(), e.objects().size());
}

TEST(Okmc, EmissionEventuallyBreaksClusters) {
  // At high temperature with weak binding, a dimer should split within a
  // bounded number of events.
  OkmcConfig c = cfg600();
  c.temperature = 1400.0;
  c.binding_e2 = 0.05;
  c.mobility_slope = 2.0;  // suppress hops so emission dominates
  OkmcEngine e(c);
  e.initialize({{20.0, 20.0, 20.0}, {21.0, 20.0, 20.0}});
  ASSERT_EQ(e.objects().size(), 1u);
  bool split = false;
  for (int i = 0; i < 5000 && !split; ++i) {
    e.step();
    split = e.objects().size() > 1;
  }
  EXPECT_TRUE(split);
}

TEST(Okmc, DeterministicWithSeed) {
  auto run = [] {
    OkmcEngine e(cfg600());
    e.initialize({{5, 5, 5}, {30, 30, 30}, {15, 40, 22}});
    e.run_events(200);
    return std::make_pair(e.time(), e.objects().size());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace mmd::kmc
