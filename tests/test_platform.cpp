#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "perf/platform.h"
#include "perf/trace_replay.h"
#include "telemetry/comm_trace.h"
#include "util/json.h"

namespace mmd::perf {
namespace {

// ---------------------------------------------------------------- LogGP fit

TEST(LogGpModel, DefaultModelIsSingleSegmentFallback) {
  const LogGpModel m;
  ASSERT_EQ(m.segments().size(), 1u);
  EXPECT_DOUBLE_EQ(m.message_time(0), 1.0e-6);
  EXPECT_GT(m.message_time(1 << 20), m.message_time(0));
}

TEST(LogGpModel, FitRecoversLinearCostPerSegment) {
  // Synthetic ground truth: o = 2 us, G = 1 ns/B, exercised across all four
  // default segments with enough spread for the per-segment solves.
  constexpr double kO = 2.0e-6;
  constexpr double kG = 1.0e-9;
  std::vector<MsgSample> samples;
  for (const std::uint64_t b :
       {std::uint64_t{8}, std::uint64_t{32}, std::uint64_t{64},
        std::uint64_t{128}, std::uint64_t{200}, std::uint64_t{512},
        std::uint64_t{1024}, std::uint64_t{2048}, std::uint64_t{3000},
        std::uint64_t{4000}, std::uint64_t{8192}, std::uint64_t{16384},
        std::uint64_t{32768}, std::uint64_t{50000}, std::uint64_t{65000},
        std::uint64_t{100000}, std::uint64_t{200000}, std::uint64_t{400000},
        std::uint64_t{800000}, std::uint64_t{1000000}}) {
    samples.push_back({b, kO + kG * static_cast<double>(b)});
  }
  const std::vector<std::uint64_t> breaks = {256, 4096, 65536};
  const LogGpModel m = LogGpModel::fit(samples, breaks);
  ASSERT_EQ(m.segments().size(), 4u);
  for (const auto& s : m.segments()) {
    EXPECT_NEAR(s.overhead_s, kO, 1e-8);
    EXPECT_NEAR(s.per_byte_s, kG, 1e-12);
  }
  EXPECT_NEAR(m.message_time(1000), kO + kG * 1000.0, 1e-8);
  EXPECT_NEAR(m.message_time(500000), kO + kG * 500000.0, 1e-7);
}

TEST(LogGpModel, FitFallsBackOnEmptyAndDegenerateInput) {
  const std::vector<std::uint64_t> breaks = {256, 4096, 65536};
  const LogGpModel empty = LogGpModel::fit({}, breaks);
  ASSERT_EQ(empty.segments().size(), 1u);
  EXPECT_DOUBLE_EQ(empty.message_time(0), 1.0e-6);

  // One message size only: the per-segment least squares is singular, so
  // every segment falls back to the global fit — which is also singular and
  // must still produce a finite nonnegative model.
  std::vector<MsgSample> same(8, MsgSample{4096, 3.0e-6});
  const LogGpModel deg = LogGpModel::fit(same, breaks);
  for (std::uint64_t b : {std::uint64_t{0}, std::uint64_t{4096},
                          std::uint64_t{1000000}}) {
    EXPECT_TRUE(std::isfinite(deg.message_time(b)));
    EXPECT_GE(deg.message_time(b), 0.0);
  }
}

TEST(LogGpModel, FitClampsNegativeCoefficients) {
  // Decreasing cost with size would fit G < 0; the model clamps to zero so a
  // projection can never gain time by sending more bytes.
  std::vector<MsgSample> samples;
  for (int i = 1; i <= 12; ++i) {
    samples.push_back({static_cast<std::uint64_t>(i) * 100000,
                       1.0e-5 / static_cast<double>(i)});
  }
  const LogGpModel m = LogGpModel::fit(samples, std::vector<std::uint64_t>{});
  ASSERT_EQ(m.segments().size(), 1u);
  EXPECT_GE(m.segments()[0].per_byte_s, 0.0);
  EXPECT_GE(m.segments()[0].overhead_s, 0.0);
}

// --------------------------------------------------------------- topology

TEST(TopologyPlatform, HierarchyPlacementFollowsConfig) {
  const PlatformConfig cfg = PlatformConfig::taihulight();
  const TopologyPlatform p(cfg, 4096);
  EXPECT_EQ(p.nnodes(), 1024u);
  EXPECT_EQ(p.nsupernodes(), 4u);
  EXPECT_EQ(p.node_of(0), 0u);
  EXPECT_EQ(p.node_of(3), 0u);
  EXPECT_EQ(p.node_of(4), 1u);
  EXPECT_EQ(p.supernode_of(1023), 0u);
  EXPECT_EQ(p.supernode_of(1024), 1u);
}

TEST(TopologyPlatform, IntraNodeMessageStaysOffTheNetwork) {
  TopologyPlatform p(PlatformConfig::taihulight(), 8);
  const LogGpModel host;
  p.add_message(0, 1, 1 << 20, host);  // ranks 0 and 1 share node 0
  const auto cost = p.round_cost();
  EXPECT_EQ(cost.bottleneck, "intra_node");
  EXPECT_NEAR(cost.link_s, (1 << 20) / 32.0e9, 1e-12);
  EXPECT_DOUBLE_EQ(cost.latency_s, 0.2e-6);
  EXPECT_GT(cost.host_s, 0.0);
  EXPECT_NEAR(cost.total_s, cost.link_s + cost.host_s + cost.latency_s, 1e-15);
}

TEST(TopologyPlatform, CrossNodeMessageRidesTheNodeLink) {
  TopologyPlatform p(PlatformConfig::taihulight(), 8);
  const LogGpModel host;
  p.add_message(0, 4, 1 << 20, host);  // node 0 -> node 1, same supernode
  const auto cost = p.round_cost();
  EXPECT_EQ(cost.bottleneck, "node_link");
  EXPECT_NEAR(cost.link_s, (1 << 20) / 14.0e9, 1e-12);
  EXPECT_DOUBLE_EQ(cost.latency_s, 1.0e-6);
}

TEST(TopologyPlatform, OversubscribedTrunkBecomesTheBottleneck) {
  // One 1 MB message per node of supernode 0, all bound for supernode 1.
  // Each node link carries 1 MB, but the shared trunk carries 256 MB over
  // only 64 uplinks' worth of capacity — 4:1 oversubscription makes it the
  // bottleneck, which is exactly the paper's at-scale contention story.
  const PlatformConfig cfg = PlatformConfig::taihulight();
  TopologyPlatform p(cfg, 4096);
  const LogGpModel host;
  constexpr std::uint64_t kMsg = 1 << 20;
  for (std::uint64_t node = 0; node < 256; ++node) {
    p.add_message(node * 4, 1024 + node * 4, kMsg, host);
  }
  const auto cost = p.round_cost();
  EXPECT_EQ(cost.bottleneck, "supernode_uplink");
  const double trunk_bw = cfg.uplink.bandwidth_bps * cfg.uplinks_per_supernode;
  EXPECT_NEAR(cost.link_s, 256.0 * kMsg / trunk_bw, 1e-12);
  EXPECT_DOUBLE_EQ(cost.latency_s, 2.2e-6);

  // The flat (private-link) model cannot see the shared trunk: pricing the
  // same round without contention must be strictly cheaper.
  const auto flat = p.round_cost_no_contention();
  EXPECT_LT(flat.total_s, cost.total_s);

  p.reset();
  const auto zero = p.round_cost();
  EXPECT_DOUBLE_EQ(zero.total_s, 0.0);
}

TEST(TopologyPlatform, CollectiveTimeGrowsWithScale) {
  const PlatformConfig cfg = PlatformConfig::taihulight();
  const TopologyPlatform small(cfg, 4);
  const TopologyPlatform medium(cfg, 4096);
  const TopologyPlatform large(cfg, 163840);  // 40,960 nodes
  EXPECT_GT(small.collective_time(), 0.0);
  EXPECT_LT(small.collective_time(), medium.collective_time());
  EXPECT_LT(medium.collective_time(), large.collective_time());
}

TEST(NearCubicGrid, FactorizationsAreExactAndOrdered) {
  for (const std::uint64_t n :
       {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{12},
        std::uint64_t{64}, std::uint64_t{1600}, std::uint64_t{102400}}) {
    const Grid3 g = near_cubic_grid(n);
    EXPECT_EQ(g.x * g.y * g.z, n) << n;
    EXPECT_GE(g.x, g.y) << n;
    EXPECT_GE(g.y, g.z) << n;
  }
  const Grid3 cube = near_cubic_grid(64);
  EXPECT_EQ(cube.x, 4u);
  EXPECT_EQ(cube.y, 4u);
  EXPECT_EQ(cube.z, 4u);
  const Grid3 prime = near_cubic_grid(7);
  EXPECT_EQ(prime.x, 7u);
  EXPECT_EQ(prime.z, 1u);
}

// ---------------------------------------------------------------- replay

telemetry::CommTraceData synthetic_trace(std::uint64_t nranks,
                                         std::uint64_t steps,
                                         std::uint64_t bytes_per_msg) {
  telemetry::CommTraceData trace;
  trace.meta["scenario"] = "synthetic";
  trace.meta["ranks"] = std::to_string(nranks);
  trace.meta["steps"] = std::to_string(steps);
  trace.meta["atoms"] = std::to_string(2 * 10 * 10 * 10);
  trace.ranks.resize(nranks);
  for (std::uint64_t r = 0; r < nranks; ++r) {
    std::uint64_t t = 1000;
    for (std::uint64_t s = 0; s < steps; ++s) {
      for (int k = 0; k < 6; ++k) {  // six face-neighbor sends per step
        telemetry::CommEvent ev;
        ev.t0_ns = t;
        ev.t1_ns = t + 20000;  // 20 us per op
        ev.bytes = bytes_per_msg;
        ev.peer = static_cast<std::int32_t>((r + 1) % nranks);
        ev.tag = k;
        ev.op = telemetry::CommOp::kSend;
        trace.ranks[r].events.push_back(ev);
        t += 30000;
      }
    }
    trace.ranks[r].recorded = trace.ranks[r].events.size();
  }
  return trace;
}

TEST(TraceReplay, SummarizeDistillsPerRankStepShape) {
  const auto trace = synthetic_trace(8, 10, 32768);
  const TraceStats st = summarize_trace(trace);
  EXPECT_EQ(st.nranks, 8u);
  EXPECT_EQ(st.steps, 10u);
  EXPECT_EQ(st.events, 8u * 10u * 6u);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_NEAR(st.sends_per_rank_step, 6.0, 1e-12);
  EXPECT_NEAR(st.bytes_per_rank_step, 6.0 * 32768.0, 1e-9);
  EXPECT_NEAR(st.peers_per_rank, 1.0, 1e-12);
  EXPECT_EQ(st.send_samples.size(), 8u * 10u * 6u);
  EXPECT_GT(st.wall_s, 0.0);
  EXPECT_GT(st.comm_s_per_step, 0.0);
}

TEST(TraceReplay, ProjectionHitsPaperCalibrationEndpoints) {
  const auto trace = synthetic_trace(8, 10, 32768);
  const ProjectionResult r = project_scaling(trace, ProjectionOptions{});

  // Paper Fig. 11 (MD weak) rows plus the full-machine extrapolation point.
  const auto& weak = r.weak.points;
  ASSERT_EQ(weak.size(), 7u);
  EXPECT_EQ(weak[0].cores, 104000u);
  EXPECT_EQ(weak[5].cores, 6656000u);
  EXPECT_EQ(weak[6].cores, 10649600u);
  EXPECT_NEAR(weak[5].paper_value, 0.85, 1e-12);
  // The compute calibration solves this endpoint exactly (that is its job);
  // everything between is the model's prediction.
  EXPECT_NEAR(weak[5].value, 0.85, 1e-3);
  for (const auto& p : weak) {
    EXPECT_GT(p.value, 0.0);
    EXPECT_LE(p.value, 1.0 + 1e-9);
    EXPECT_FALSE(p.bottleneck.empty());
    EXPECT_GT(p.time_s, 0.0);
  }

  // Paper Fig. 10 (MD strong) rows; speedup is relative to the first row.
  const auto& strong = r.strong.points;
  ASSERT_EQ(strong.size(), 7u);
  EXPECT_EQ(strong[0].cores, 97500u);
  EXPECT_NEAR(strong[0].value, 1.0, 1e-9);
  EXPECT_NEAR(strong.back().paper_value, 26.4, 1e-12);
  EXPECT_NEAR(strong.back().value, 26.4, 0.1);
  for (std::size_t i = 1; i < strong.size(); ++i) {
    EXPECT_GT(strong[i].value, strong[i - 1].value)
        << "speedup must increase monotonically through the paper range";
  }

  EXPECT_GT(r.weak.compute_s, 0.0);
  EXPECT_GT(r.strong.compute_s, 0.0);
}

TEST(TraceReplay, ComputeFromTraceTakesTheTracesOwnCompute) {
  const auto trace = synthetic_trace(8, 10, 32768);
  ProjectionOptions opt;
  opt.compute_from_trace = true;
  const ProjectionResult r = project_scaling(trace, opt);
  ASSERT_GT(r.stats.compute_s_per_step, 0.0);
  EXPECT_DOUBLE_EQ(r.weak.compute_s, r.stats.compute_s_per_step);
  // Strong scaling rescales it to the paper subdomain of the first row.
  const PaperCurve& fig10 = paper_curve(Curve::kMdStrong);
  const double base_atoms_per_rank =
      fig10.problem_size /
      static_cast<double>(fig10.rows[0].cores / fig10.cores_per_rank);
  const double surface =
      std::pow(base_atoms_per_rank / r.stats.atoms_per_rank, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(r.strong.compute_s, r.stats.compute_s_per_step * surface);
}

TEST(TraceReplay, StepsOverrideRenormalizesPerStepShape) {
  const auto trace = synthetic_trace(8, 10, 32768);
  const TraceStats recorded = summarize_trace(trace);
  ProjectionOptions opt;
  opt.steps = 20;
  const ProjectionResult r = project_scaling(trace, opt);
  EXPECT_EQ(r.stats.steps, 20u);
  EXPECT_NEAR(r.stats.sends_per_rank_step, 3.0, 1e-12);
  EXPECT_NEAR(r.stats.bytes_per_rank_step, recorded.bytes_per_rank_step / 2.0,
              1e-9);
  EXPECT_NEAR(r.stats.collectives_per_rank_step,
              recorded.collectives_per_rank_step / 2.0, 1e-12);
  EXPECT_NEAR(r.stats.comm_s_per_step, recorded.comm_s_per_step / 2.0, 1e-15);
  EXPECT_NEAR(r.stats.compute_s_per_step,
              std::max(0.0, recorded.wall_s / 20.0 - recorded.comm_s_per_step / 2.0),
              1e-15);
  // Totals over the run are unchanged: only the per-step split moves.
  EXPECT_NEAR(r.stats.sends_per_rank_step * 20.0,
              recorded.sends_per_rank_step * 10.0, 1e-9);
}

TEST(TraceReplay, ContentionOnlyEverHurts) {
  const auto trace = synthetic_trace(8, 10, 65536);
  ProjectionOptions with;
  ProjectionOptions without;
  without.contention = false;
  const auto a = project_scaling(trace, with);
  const auto b = project_scaling(trace, without);
  ASSERT_EQ(a.weak.points.size(), b.weak.points.size());
  for (std::size_t i = 0; i < a.weak.points.size(); ++i) {
    EXPECT_GE(a.weak.points[i].comm_s, b.weak.points[i].comm_s * (1.0 - 1e-9))
        << i;
  }
}

TEST(TraceReplay, RejectsEmptyTrace) {
  telemetry::CommTraceData empty;
  EXPECT_THROW(project_scaling(empty, ProjectionOptions{}), std::runtime_error);
}

TEST(TraceReplay, ProjectionJsonMatchesDocumentedSchema) {
  const auto trace = synthetic_trace(8, 10, 32768);
  const ProjectionResult r = project_scaling(trace, ProjectionOptions{});
  std::ostringstream os;
  write_projection_json(os, r);
  const util::json::Value doc = util::json::parse(os.str());

  EXPECT_EQ(doc.at("schema").str(), "mmd.trace_replay");
  EXPECT_DOUBLE_EQ(doc.at("schema_version").number(), 1.0);

  const auto& trace_obj = doc.at("trace");
  EXPECT_DOUBLE_EQ(trace_obj.at("ranks").number(), 8.0);
  EXPECT_DOUBLE_EQ(trace_obj.at("steps").number(), 10.0);
  EXPECT_DOUBLE_EQ(trace_obj.at("dropped").number(), 0.0);

  const auto& cal = doc.at("calibration");
  ASSERT_TRUE(cal.at("segments").is_array());
  ASSERT_FALSE(cal.at("segments").array().empty());
  // The last segment is unbounded: max_bytes serializes as null.
  EXPECT_TRUE(cal.at("segments").array().back().at("max_bytes").is_null());

  EXPECT_EQ(doc.at("platform").at("name").str(), "taihulight");
  EXPECT_TRUE(doc.at("platform").at("contention").boolean());

  for (const char* curve : {"weak", "strong"}) {
    const auto& c = doc.at(curve);
    ASSERT_TRUE(c.at("points").is_array()) << curve;
    EXPECT_EQ(c.at("points").array().size(), 7u) << curve;
    const char* value_key = std::string(curve) == "weak" ? "efficiency"
                                                         : "speedup";
    for (const auto& p : c.at("points").array()) {
      EXPECT_TRUE(p.at("cores").is_number()) << curve;
      EXPECT_TRUE(p.at(value_key).is_number()) << curve;
      EXPECT_TRUE(p.at("bottleneck").is_string()) << curve;
    }
  }
}

TEST(TraceReplay, ProjectionJsonEscapesControlCharacters) {
  // Free-text values (here the platform name) may carry tabs and newlines;
  // they must reach the JSON escaped, or strict readers reject the file.
  const std::string name = "lab\tcluster\nrack \"2\"\x01";
  ProjectionOptions opt;
  opt.platform.name = name;
  const ProjectionResult r = project_scaling(synthetic_trace(8, 10, 32768), opt);
  std::ostringstream os;
  write_projection_json(os, r);
  const std::string text = os.str();
  EXPECT_NE(text.find(R"("lab\tcluster\nrack \"2\"\u0001")"), std::string::npos)
      << text;
  const util::json::Value doc = util::json::parse(text);
  EXPECT_EQ(doc.at("platform").at("name").str(), name);
}

}  // namespace
}  // namespace mmd::perf
