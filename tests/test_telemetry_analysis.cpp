#include <gtest/gtest.h>

#include <sstream>

#include "telemetry/analysis.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "util/json.h"

namespace mmd::telemetry {
namespace {

constexpr std::uint64_t kSecond = 1'000'000'000;  // ns

void record_span(Tracer& tracer, int rank, int lane, const char* name,
                 std::uint64_t t0_ns, std::uint64_t t1_ns,
                 std::uint64_t dma_ops = 0, std::uint64_t dma_bytes = 0) {
  tracer.attach_calling_thread(rank, lane);
  TraceEvent ev;
  ev.name = name;
  ev.t0_ns = t0_ns;
  ev.t1_ns = t1_ns;
  ev.dma_ops = dma_ops;
  ev.dma_bytes = dma_bytes;
  tracer.record(TrackId{rank, lane}, ev);
  Tracer::detach_calling_thread();
}

/// The hand-built workload every test below reads: 3 ranks, master-lane
/// "md.step" totals of 1 s / 2 s / 3 s (critical path 3.0 at rank 2,
/// mean 2.0, imbalance 1.5), a "kmc.cycle" phase present only on rank 0,
/// and one CPE span on rank 0 lane 1 carrying DMA traffic. (Tracer owns a
/// mutex, so the fixture fills a caller-constructed instance.)
void build_workload(Tracer& tracer) {
  record_span(tracer, 0, 0, "md.step", 0, 1 * kSecond);
  record_span(tracer, 1, 0, "md.step", 0, 1 * kSecond);
  record_span(tracer, 1, 0, "md.step", 1 * kSecond, 2 * kSecond);
  record_span(tracer, 2, 0, "md.step", 0, 3 * kSecond);
  record_span(tracer, 0, 0, "kmc.cycle", 1 * kSecond, 2 * kSecond);
  // CPE: 1 s busy, 1000 DMA ops of 8 KB each = 8 MB.
  record_span(tracer, 0, 1, "cpe.kernel", 0, 1 * kSecond, 1000, 8'000'000);
}

MetricsRegistry make_metrics() {
  MetricsRegistry metrics(3);
  metrics.set_gauge(0, "md.compute_seconds", 1.0);
  metrics.set_gauge(1, "md.compute_seconds", 2.0);
  metrics.set_gauge(2, "md.compute_seconds", 3.0);
  metrics.set_gauge(2, "kmc.wall_seconds", 4.0);
  return metrics;
}

const PhaseStats* find_phase(const std::vector<PhaseStats>& phases,
                             const std::string& name) {
  for (const PhaseStats& p : phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

TEST(TelemetryAnalysis, CriticalPathAndImbalance) {
  Tracer tracer(3, 2, 64);
  build_workload(tracer);
  const MetricsRegistry metrics = make_metrics();
  const PerfReport report = analyze(tracer, metrics);

  EXPECT_EQ(report.nranks, 3);
  EXPECT_EQ(report.dropped_spans, 0u);
  // Master envelope: earliest begin 0, latest end 3 s.
  EXPECT_NEAR(report.wall_s, 3.0, 1e-9);

  const PhaseStats* md = find_phase(report.phases, "md.step");
  ASSERT_NE(md, nullptr);
  EXPECT_EQ(md->ranks, 3);
  EXPECT_EQ(md->spans, 4u);
  EXPECT_NEAR(md->total_max_s, 3.0, 1e-9);
  EXPECT_EQ(md->critical_rank, 2);
  EXPECT_NEAR(md->total_mean_s, 2.0, 1e-9);
  EXPECT_NEAR(md->total_min_s, 1.0, 1e-9);
  EXPECT_NEAR(md->imbalance, 1.5, 1e-9);
  // Per-span durations {1,1,1,3} s — P² is exact at n <= 5.
  EXPECT_NEAR(md->span_s.p50(), 1.0, 1e-9);
  EXPECT_NEAR(md->span_s.max(), 3.0, 1e-9);

  // Phases sort by critical path, so md.step leads and is the top hotspot.
  ASSERT_FALSE(report.phases.empty());
  EXPECT_EQ(report.phases.front().name, "md.step");
  const auto hot = top_hotspots(report, 1);
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0]->name, "md.step");
}

TEST(TelemetryAnalysis, AbsentRanksCountAsZeroInTheMean) {
  Tracer tracer(3, 2, 64);
  build_workload(tracer);
  const MetricsRegistry metrics = make_metrics();
  const PerfReport report = analyze(tracer, metrics);

  // kmc.cycle ran only on rank 0 (1 s) of 3 attached ranks: mean 1/3,
  // imbalance 3 — the idle ranks are the imbalance.
  const PhaseStats* kmc = find_phase(report.phases, "kmc.cycle");
  ASSERT_NE(kmc, nullptr);
  EXPECT_EQ(kmc->ranks, 1);
  EXPECT_NEAR(kmc->total_max_s, 1.0, 1e-9);
  EXPECT_EQ(kmc->critical_rank, 0);
  EXPECT_NEAR(kmc->total_mean_s, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(kmc->imbalance, 3.0, 1e-9);
}

TEST(TelemetryAnalysis, CpeOverlapRatioFromDmaModel) {
  Tracer tracer(3, 2, 64);
  build_workload(tracer);
  const MetricsRegistry metrics = make_metrics();
  const PerfReport report = analyze(tracer, metrics);

  const PhaseStats* cpe = find_phase(report.cpe_phases, "cpe.kernel");
  ASSERT_NE(cpe, nullptr);
  EXPECT_EQ(cpe->dma_ops, 1000u);
  EXPECT_EQ(cpe->dma_bytes, 8'000'000u);
  EXPECT_NEAR(report.cpe_busy_s, 1.0, 1e-9);
  // alpha-beta: 1000 * 0.25us + 8 MB / 8 GB/s = 0.25 ms + 1 ms.
  EXPECT_NEAR(report.dma_modeled_s, 1.25e-3, 1e-9);
  EXPECT_NEAR(report.overlap_ratio, 1.25e-3, 1e-9);

  // Custom model: 10x slower link doubles-and-more the modeled time.
  AnalysisOptions opt;
  opt.dma_cost.bandwidth_bytes_per_s = 8e8;
  const PerfReport slow = analyze(tracer, metrics, opt);
  EXPECT_NEAR(slow.dma_modeled_s, 1.025e-2, 1e-9);
}

TEST(TelemetryAnalysis, GaugeSpreadOverRanks) {
  Tracer tracer(3, 2, 64);
  build_workload(tracer);
  const MetricsRegistry metrics = make_metrics();
  const PerfReport report = analyze(tracer, metrics);

  const GaugeSpread* compute = nullptr;
  const GaugeSpread* kmc_wall = nullptr;
  for (const GaugeSpread& g : report.gauges) {
    if (g.name == "md.compute_seconds") compute = &g;
    if (g.name == "kmc.wall_seconds") kmc_wall = &g;
  }
  ASSERT_NE(compute, nullptr);
  EXPECT_NEAR(compute->max, 3.0, 1e-12);
  EXPECT_EQ(compute->max_rank, 2);
  EXPECT_NEAR(compute->mean, 2.0, 1e-12);
  EXPECT_NEAR(compute->imbalance, 1.5, 1e-12);
  // Set on one rank only: spread over the setting ranks.
  ASSERT_NE(kmc_wall, nullptr);
  EXPECT_NEAR(kmc_wall->mean, 4.0, 1e-12);
  EXPECT_NEAR(kmc_wall->imbalance, 1.0, 1e-12);
}

TEST(TelemetryAnalysis, TextReportNamesTheHeadlines) {
  Tracer tracer(3, 2, 64);
  build_workload(tracer);
  const MetricsRegistry metrics = make_metrics();
  const PerfReport report = analyze(tracer, metrics);
  std::ostringstream os;
  write_perf_report_text(os, report);
  const std::string text = os.str();
  EXPECT_NE(text.find("md.step"), std::string::npos);
  EXPECT_NE(text.find("kmc.cycle"), std::string::npos);
  EXPECT_NE(text.find("cpe.kernel"), std::string::npos);
  EXPECT_NE(text.find("Top hotspots"), std::string::npos);
  EXPECT_NE(text.find("md.compute_seconds"), std::string::npos);
}

TEST(TelemetryAnalysis, JsonReportParsesAndCarriesSchema) {
  Tracer tracer(3, 2, 64);
  build_workload(tracer);
  const MetricsRegistry metrics = make_metrics();
  const PerfReport report = analyze(tracer, metrics);
  std::ostringstream os;
  write_perf_report_json(os, report);
  const auto v = util::json::parse(os.str());
  EXPECT_EQ(v.at("schema").str(), "mmd.perf_report");
  EXPECT_DOUBLE_EQ(v.at("schema_version").number(), PerfReport::kSchemaVersion);
  EXPECT_DOUBLE_EQ(v.at("nranks").number(), 3.0);
  const auto& phases = v.at("phases").array();
  ASSERT_FALSE(phases.empty());
  EXPECT_EQ(phases[0].at("name").str(), "md.step");
  EXPECT_NEAR(phases[0].at("imbalance").number(), 1.5, 1e-9);
  EXPECT_DOUBLE_EQ(v.at("cpe").at("busy_s").number(), 1.0);
  ASSERT_FALSE(v.at("gauges").array().empty());
}

TEST(TelemetryAnalysis, EmptyTracerYieldsEmptyReport) {
  const Tracer tracer(2, 1, 8);
  const MetricsRegistry metrics(2);
  const PerfReport report = analyze(tracer, metrics);
  EXPECT_EQ(report.wall_s, 0.0);
  EXPECT_TRUE(report.phases.empty());
  EXPECT_TRUE(report.cpe_phases.empty());
  EXPECT_EQ(report.overlap_ratio, 0.0);
  std::ostringstream os;
  write_perf_report_json(os, report);
  EXPECT_NO_THROW(util::json::parse(os.str()));  // stays valid JSON
}

TEST(TelemetryAnalysis, JsonFileWriteFailureReturnsFalse) {
  const PerfReport report;
  EXPECT_FALSE(write_perf_report_json_file("/nonexistent-mmd-dir/x.json", report));
}

}  // namespace
}  // namespace mmd::telemetry
