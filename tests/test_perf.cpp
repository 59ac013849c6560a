#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "perf/platform.h"
#include "perf/trace_replay.h"

namespace mmd::perf {
namespace {

/// A per-rank-step profile shaped like the committed 4-rank capture trace.
TraceStats synthetic_profile() {
  TraceStats p;
  p.nranks = 4;
  p.atoms_per_rank = 500.0;
  p.sends_per_rank_step = 10.5;
  p.bytes_per_rank_step = 116915.0;
  p.collectives_per_rank_step = 3.55;
  p.compute_s_per_step = 0.05;
  return p;
}

TEST(PaperCurveProjection, EveryCurveProjectsOnThePlatformModel) {
  struct Expected {
    const char* figure;
    Scaling scaling;
    std::size_t rows;
    std::uint64_t cores_per_rank;
    std::uint64_t first_cores;
    std::uint64_t last_cores;
  };
  const Expected expected[] = {
      {"Fig. 10", Scaling::kStrong, 7, 65, 97500, 6240000},
      {"Fig. 11", Scaling::kWeak, 7, 65, 104000, 10649600},
      {"Fig. 14", Scaling::kStrong, 6, 1, 1500, 48000},
      {"Fig. 15", Scaling::kWeak, 6, 1, 1600, 102400},
      {"Fig. 16", Scaling::kWeak, 4, 65, 97500, 6240000},
  };
  const auto curves = paper_curves();
  ASSERT_EQ(curves.size(), std::size(expected));
  const TraceStats profile = synthetic_profile();
  ProjectionOptions flat;
  flat.contention = false;
  for (std::size_t c = 0; c < curves.size(); ++c) {
    const PaperCurve& curve = curves[c];
    const Expected& e = expected[c];
    SCOPED_TRACE(std::string(curve.figure));
    EXPECT_EQ(curve.figure, e.figure);
    EXPECT_EQ(curve.scaling, e.scaling);
    EXPECT_EQ(curve.cores_per_rank, e.cores_per_rank);
    ASSERT_EQ(curve.rows.size(), e.rows);
    EXPECT_EQ(curve.rows.front().cores, e.first_cores);
    EXPECT_EQ(curve.rows.back().cores, e.last_cores);
    ASSERT_LT(curve.calibration_row, curve.rows.size());

    const CurveProjection shared =
        project_curve(curve, profile, LogGpModel{}, ProjectionOptions{});
    const CurveProjection priv = project_curve(curve, profile, LogGpModel{}, flat);
    ASSERT_EQ(shared.curve, &curve);
    ASSERT_EQ(shared.points.size(), curve.rows.size());
    for (std::size_t i = 0; i < shared.points.size(); ++i) {
      const ProjectionPoint& p = shared.points[i];
      EXPECT_EQ(p.cores, curve.rows[i].cores) << i;
      EXPECT_EQ(p.ranks, curve.rows[i].cores / curve.cores_per_rank) << i;
      EXPECT_DOUBLE_EQ(p.paper_value, curve.rows[i].value) << i;
      EXPECT_GT(p.time_s, 0.0) << i;
      EXPECT_FALSE(p.bottleneck.empty()) << i;
      EXPECT_GE(p.comm_s, priv.points[i].comm_s * (1.0 - 1e-9))
          << "contention can only add cost, row " << i;
    }
    EXPECT_NEAR(shared.points[0].value, 1.0, 1e-12);

    const double target = curve.rows[curve.calibration_row].value;
    const double got = shared.points[curve.calibration_row].value;
    const double tol = curve.scaling == Scaling::kWeak ? 1e-3 : 0.1;
    if (shared.compute_s > 0.0) {
      EXPECT_NEAR(got, target, tol);
    } else {
      // Unreachable: even zero compute leaves the modeled curve above the
      // paper's value there, and the projection says so with compute 0.
      EXPECT_GT(got, target + tol);
    }
  }
}

TEST(PaperCurveProjection, WeakEfficiencyFallsWithScale) {
  const PaperCurve& curve = paper_curve(Curve::kMdWeak);
  const CurveProjection r = project_curve(curve, synthetic_profile(),
                                          LogGpModel{}, ProjectionOptions{});
  ASSERT_GT(r.compute_s, 0.0);
  // Per-rank work is fixed; communication grows with scale through the
  // paper's rows, so efficiency never rises.
  for (std::size_t i = 1; i <= curve.calibration_row; ++i) {
    EXPECT_GE(r.points[i].comm_s, r.points[i - 1].comm_s) << i;
    EXPECT_LE(r.points[i].value, r.points[i - 1].value) << i;
  }
  EXPECT_LT(r.points[curve.calibration_row].value, 1.0);
  EXPECT_GT(r.points[curve.calibration_row].value, 0.3);
}

TEST(PaperCurveProjection, StrongScalingShrinksComputeAndSurface) {
  // Fig. 14 carries a cache boost, so compute must shrink by 1/(f*boost).
  const PaperCurve& curve = paper_curve(Curve::kKmcStrong);
  TraceStats profile = synthetic_profile();
  profile.atoms_per_rank = 0.0;  // no rescale: bytes enter as measured
  ProjectionOptions opt;
  opt.compute_from_trace = true;
  const CurveProjection r = project_curve(curve, profile, LogGpModel{}, opt);
  EXPECT_DOUBLE_EQ(r.compute_s, profile.compute_s_per_step);
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    const ProjectionPoint& p = r.points[i];
    const double f = static_cast<double>(p.cores) /
                     static_cast<double>(curve.rows[0].cores);
    EXPECT_NEAR(p.time_s - p.comm_s,
                r.compute_s / (f * curve.rows[i].cache_boost), 1e-15)
        << i;
    // Ghost bytes follow the subdomain surface, f^(-2/3); the message count
    // per rank stays (same neighbor topology).
    RoundTraffic t;
    t.sends = profile.sends_per_rank_step;
    t.bytes = profile.bytes_per_rank_step * std::pow(f, -2.0 / 3.0);
    t.collectives = profile.collectives_per_rank_step;
    const RoundPrice price = price_round(PlatformConfig::taihulight(), p.ranks,
                                         t, LogGpModel{}, true);
    EXPECT_DOUBLE_EQ(p.comm_s, price.comm_s) << i;
  }
}

TEST(PaperCurveProjection, StrongEfficiencyStaysBelowOne) {
  const PaperCurve& curve = paper_curve(Curve::kMdStrong);
  const CurveProjection r = project_curve(curve, synthetic_profile(),
                                          LogGpModel{}, ProjectionOptions{});
  ASSERT_GT(r.compute_s, 0.0);
  for (std::size_t i = 1; i < r.points.size(); ++i) {
    const double f = static_cast<double>(r.points[i].cores) /
                     static_cast<double>(r.points[0].cores);
    EXPECT_GT(r.points[i].value, 1.0) << i;
    EXPECT_LT(r.points[i].value / f, 1.0) << i;
  }
}

TEST(PaperCurveProjection, CacheBoostGivesSuperlinearRegion) {
  // Paper Fig. 14: the per-core dataset starts fitting in the master core's
  // L2 once divided far enough. With communication negligible next to
  // compute, the boosted rows run faster than ideal.
  const PaperCurve& curve = paper_curve(Curve::kKmcStrong);
  TraceStats profile = synthetic_profile();
  profile.bytes_per_rank_step = 0.0;
  profile.sends_per_rank_step = 0.0;
  profile.collectives_per_rank_step = 0.0;
  profile.compute_s_per_step = 10.0;
  ProjectionOptions opt;
  opt.compute_from_trace = true;
  const CurveProjection r = project_curve(curve, profile, LogGpModel{}, opt);
  bool superlinear = false;
  for (std::size_t i = 1; i < r.points.size(); ++i) {
    const double f = static_cast<double>(r.points[i].cores) /
                     static_cast<double>(r.points[0].cores);
    if (curve.rows[i].cache_boost > 1.0) {
      EXPECT_GT(r.points[i].value, f) << i;
      superlinear = true;
    } else {
      EXPECT_LE(r.points[i].value, f) << i;
    }
  }
  EXPECT_TRUE(superlinear);
}

TEST(Calibration, WeakComputeReproducesTarget) {
  const double m_base = 1e-3, m_n = 5e-3, eff = 0.8;
  const double c = calibrate_compute(m_base, m_n, eff);
  ASSERT_GT(c, 0.0);
  EXPECT_NEAR((c + m_base) / (c + m_n), eff, 1e-12);
}

TEST(Calibration, WeakComputeUnreachableReturnsZero) {
  // Comm does not grow: no compute value can push efficiency below 1.
  EXPECT_DOUBLE_EQ(calibrate_compute(1e-3, 1e-3, 0.8), 0.0);
  EXPECT_DOUBLE_EQ(calibrate_compute(1e-3, 2e-3, 1.5), 0.0);
}

TEST(Calibration, StrongComputeReproducesTarget) {
  const double m_base = 2e-3, m_n = 1e-3, f = 64.0, s = 26.4;
  const double c = calibrate_compute(m_base, m_n, s, 1.0, f);
  ASSERT_GT(c, 0.0);
  EXPECT_NEAR((c + m_base) / (c / f + m_n), s, 1e-9);
}

TEST(Calibration, StrongComputeWithCacheBoost) {
  const double m_base = 2e-3, m_n = 1e-3, f = 32.0, s = 18.5, boost = 1.25;
  const double c = calibrate_compute(m_base, m_n, s, 1.0, f * boost);
  ASSERT_GT(c, 0.0);
  EXPECT_NEAR((c + m_base) / (c / (f * boost) + m_n), s, 1e-9);
}

TEST(Calibration, StrongSuperIdealTargetRejected) {
  // speedup >= f * boost cannot be produced by any finite compute time.
  EXPECT_DOUBLE_EQ(calibrate_compute(1e-3, 1e-3, 9.0, 1.0, 8.0), 0.0);
}

TEST(CoreAccounting, MasterPlusSlaveCores) {
  EXPECT_EQ(kCoresPerGroup, 65u);
  EXPECT_EQ(ranks_from_cores(6240000), 96000u);
  EXPECT_EQ(cores_from_ranks(1600), 104000u);
  EXPECT_EQ(ranks_from_cores(6656000), 102400u);
}

}  // namespace
}  // namespace mmd::perf
