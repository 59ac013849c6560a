// Campaign service mode end to end (serve::CampaignRunner): per-job results
// bit-identical to standalone runs, resume-without-rerun after a mid-campaign
// stop, mid-job checkpoint pickup, priority scheduling, shared-pool
// interleaving evidence, and the summary JSON artifact.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/simulation.h"
#include "serve/campaign.h"
#include "serve/campaign_runner.h"
#include "telemetry/comm_trace.h"
#include "util/json.h"
#include "util/key_value.h"

namespace mmd {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path d = fs::path(::testing::TempDir()) / ("mmd_campaign_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return d.string();
}

/// A fast heterogeneous 4-job matrix (2 energies x 2 temperatures).
constexpr const char* kQuickCampaign =
    "campaign.name = quick\n"
    "campaign.max_concurrent = 2\n"
    "box = 6\n"
    "md.time_ps = 0.02\n"
    "md.table_segments = 400\n"
    "kmc.table_segments = 200\n"
    "kmc.cycles = 8\n"
    "sweep.pka.energy_ev = 40,80\n"
    "sweep.temperature = 300,600\n";

serve::CampaignSpec quick_spec(const std::string& extra = "") {
  return serve::CampaignSpec::parse(util::KeyValueConfig::parse(
      std::string(kQuickCampaign) + extra, "quick.mmd"));
}

/// Strips the "(0.123 s)" wall-time parentheticals from to_string(): timing
/// is the one report field that legitimately differs between two runs of the
/// same scenario, and CI's restart-equivalence check strips it the same way.
std::string sans_timings(const core::SimulationReport& r) {
  std::string s = core::to_string(r);
  for (auto open = s.find(" ("); open != std::string::npos;
       open = s.find(" (", open)) {
    const auto close = s.find(" s)", open);
    if (close == std::string::npos) break;
    s.erase(open, close + 3 - open);
  }
  return s;
}

void expect_bit_identical(const core::SimulationReport& a,
                          const core::SimulationReport& b) {
  EXPECT_EQ(sans_timings(a), sans_timings(b));
  EXPECT_EQ(a.final_vacancies, b.final_vacancies);
  EXPECT_EQ(a.kmc_events, b.kmc_events);
  EXPECT_EQ(a.kmc_mc_time, b.kmc_mc_time);
  EXPECT_EQ(a.vacancy_concentration, b.vacancy_concentration);
}

TEST(CampaignRunner, JobsBitIdenticalToStandaloneRuns) {
  serve::CampaignRunner::Options opt;
  opt.root = fresh_dir("bit_identity");
  serve::CampaignRunner runner(quick_spec(), opt);
  const auto outcome = runner.run();
  ASSERT_TRUE(outcome.complete);
  ASSERT_EQ(outcome.jobs.size(), 4u);
  EXPECT_EQ(outcome.completed, 4);

  // Every interleaved job must reproduce a standalone Simulation of the same
  // expanded scenario exactly (concurrency and shared assets change nothing).
  const auto spec = quick_spec();
  for (std::size_t i = 0; i < outcome.jobs.size(); ++i) {
    core::Simulation standalone(core::scenario_from_kv(spec.jobs[i].config));
    const auto expected = standalone.run();
    expect_bit_identical(outcome.jobs[i].report, expected);
  }
  // The cache built one MD + one KMC set for the whole campaign: the other
  // 3 jobs' 6 requests all hit.
  EXPECT_EQ(outcome.assets.misses, 2u);
  EXPECT_EQ(outcome.assets.hits, 6u);
}

TEST(CampaignRunner, SlaveJobsOnSharedPoolMatchStandaloneOwnPool) {
  serve::CampaignRunner::Options opt;
  opt.root = fresh_dir("slave_identity");
  serve::CampaignRunner runner(
      quick_spec("accel = slave\ncampaign.pool_cores = 4\n"), opt);
  const auto outcome = runner.run();
  ASSERT_TRUE(outcome.complete);

  // Interleaving evidence: the shared pool executed every job's epochs, and
  // with 2 lanes of runnable work some epochs found it busy.
  EXPECT_GT(outcome.pool.epochs, 0u);
  EXPECT_GT(outcome.pool.busy_seconds, 0.0);
  EXPECT_GT(outcome.pool_utilization, 0.0);

  const auto spec = quick_spec("accel = slave\ncampaign.pool_cores = 4\n");
  for (std::size_t i = 0; i < outcome.jobs.size(); ++i) {
    core::SimulationConfig cfg = core::scenario_from_kv(spec.jobs[i].config);
    ASSERT_TRUE(cfg.use_slave_force);
    core::Simulation standalone(cfg);  // owns a private pool
    expect_bit_identical(outcome.jobs[i].report, standalone.run());
  }
}

TEST(CampaignRunner, ResumeSkipsFinishedJobsAndCompletesTheRest) {
  const std::string root = fresh_dir("resume");
  std::vector<std::uint32_t> first_crcs;
  {
    serve::CampaignRunner::Options opt;
    opt.root = root;
    opt.max_concurrent = 1;  // deterministic: exactly one job finishes
    opt.stop_after_jobs = 1;
    serve::CampaignRunner runner(quick_spec(), opt);
    const auto outcome = runner.run();
    EXPECT_FALSE(outcome.complete);
    EXPECT_EQ(outcome.completed, 1);
    ASSERT_EQ(outcome.jobs.size(), 1u);
    first_crcs.push_back(outcome.jobs[0].vacancies_crc);
  }
  {
    serve::CampaignRunner::Options opt;
    opt.root = root;
    opt.resume = true;
    serve::CampaignRunner runner(quick_spec(), opt);
    const auto outcome = runner.run();
    EXPECT_TRUE(outcome.complete);
    EXPECT_EQ(outcome.skipped, 1);   // the finished job was not rerun
    EXPECT_EQ(outcome.completed, 3);
    ASSERT_EQ(outcome.jobs.size(), 4u);
    // The skipped job's marker round-trips its fingerprint.
    EXPECT_TRUE(outcome.jobs[0].skipped);
    EXPECT_EQ(outcome.jobs[0].vacancies_crc, first_crcs[0]);
  }
}

TEST(CampaignRunner, ResumeRerunsJobsWithEmptyOrIncompleteMarkers) {
  // A marker is trusted only when it names its own job and carries every
  // result field: an empty result.mmd (e.g. a crash before the data reached
  // the disk) or one cut short after its header is not a finished job.
  const std::string root = fresh_dir("badmarker");
  fs::create_directories(fs::path(root) / "j000");
  fs::create_directories(fs::path(root) / "j001");
  { std::ofstream((fs::path(root) / "j000" / "result.mmd").string()); }
  {
    std::ofstream os((fs::path(root) / "j001" / "result.mmd").string());
    os << "job.id = j001\njob.label = x\njob.priority = 0\n";
  }

  serve::CampaignRunner::Options opt;
  opt.root = root;
  opt.resume = true;
  serve::CampaignRunner runner(quick_spec(), opt);
  const auto outcome = runner.run();
  ASSERT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.skipped, 0);
  EXPECT_EQ(outcome.completed, 4);
  ASSERT_EQ(outcome.jobs.size(), 4u);
  EXPECT_FALSE(outcome.jobs[0].skipped);
  EXPECT_FALSE(outcome.jobs[1].skipped);
  const auto spec = quick_spec();
  core::Simulation standalone(core::scenario_from_kv(spec.jobs[0].config));
  expect_bit_identical(outcome.jobs[0].report, standalone.run());

  // The rerun rewrote a complete marker, which a second resume trusts.
  serve::CampaignRunner again(quick_spec(), opt);
  const auto second = again.run();
  EXPECT_EQ(second.skipped, 4);
  EXPECT_EQ(second.jobs[0].vacancies_crc, outcome.jobs[0].vacancies_crc);
}

TEST(CampaignRunner, ResumePicksUpMidJobCheckpoints) {
  const std::string root = fresh_dir("midjob");
  const auto spec = quick_spec();

  // Simulate a campaign killed mid-job: run job j000's scenario through
  // cycle 4 only, checkpointing into the runner's per-job directory layout.
  {
    core::SimulationConfig partial = core::scenario_from_kv(spec.jobs[0].config);
    partial.kmc_cycles = 4;
    partial.checkpoint_every = 2;
    partial.checkpoint_dir = (fs::path(root) / "j000" / "ckpt").string();
    core::Simulation sim(partial);
    (void)sim.run();
  }

  serve::CampaignRunner::Options opt;
  opt.root = root;
  opt.resume = true;
  opt.checkpoint_every = 2;
  serve::CampaignRunner runner(quick_spec(), opt);
  const auto outcome = runner.run();
  ASSERT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.skipped, 0);  // no result marker existed — all jobs ran
  ASSERT_EQ(outcome.jobs.size(), 4u);
  // j000 restarted from the mid-job checkpoint, not from scratch...
  EXPECT_TRUE(outcome.jobs[0].report.resumed);
  EXPECT_EQ(outcome.jobs[0].report.resumed_from_cycle, 4u);
  // ...and restart equivalence holds inside a campaign too.
  core::Simulation standalone(core::scenario_from_kv(spec.jobs[0].config));
  expect_bit_identical(outcome.jobs[0].report, standalone.run());
}

TEST(CampaignRunner, FailedJobDoesNotTakeDownTheFleet) {
  serve::CampaignRunner::Options opt;
  opt.root = fresh_dir("failed_job");
  // ranks=2 splits the 6-cell box into 3-cell subdomains: the traditional
  // ghost strategy rejects that at runtime (>= 5 cells per axis), on-demand
  // accepts it — one job of the pair fails, the other must still finish.
  serve::CampaignRunner runner(
      serve::CampaignSpec::parse(util::KeyValueConfig::parse(
          "box = 6\nranks = 2\nmd.time_ps = 0.02\n"
          "md.table_segments = 400\nkmc.table_segments = 200\n"
          "kmc.cycles = 4\n"
          "sweep.kmc.strategy = traditional,on-demand\n")),
      opt);
  const auto outcome = runner.run();
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.failed, 1);
  EXPECT_EQ(outcome.completed, 1);
  ASSERT_EQ(outcome.jobs.size(), 2u);
  EXPECT_NE(outcome.jobs[0].error.find("GhostComm"), std::string::npos);
  EXPECT_TRUE(outcome.jobs[1].error.empty());
  EXPECT_GT(outcome.jobs[1].kmc_events, 0u);
  // No marker for the failed job: a resumed campaign would retry it.
  EXPECT_FALSE(fs::exists(fs::path(opt.root) / "j000" / "result.mmd"));
  EXPECT_TRUE(fs::exists(fs::path(opt.root) / "j001" / "result.mmd"));
}

TEST(CampaignRunner, SweepsSampledModeAlongsideDetailed) {
  serve::CampaignRunner::Options opt;
  opt.root = fresh_dir("sampled_sweep");
  // One campaign, two schedules of the same scenario: all-detailed KMC next
  // to the sampled window/stride mode (docs/SAMPLING.md).
  serve::CampaignRunner runner(
      serve::CampaignSpec::parse(util::KeyValueConfig::parse(
          "box = 6\nmd.time_ps = 0.02\n"
          "md.table_segments = 400\nkmc.table_segments = 200\n"
          "kmc.cycles = 24\nsample.window = 3\nsample.stride = 9\n"
          "sample.replicates = 4\n"
          "sweep.sample.mode = off,scd\n")),
      opt);
  const auto outcome = runner.run();
  EXPECT_TRUE(outcome.complete);
  ASSERT_EQ(outcome.jobs.size(), 2u);
  const auto& detailed = outcome.jobs[0];
  const auto& sampled = outcome.jobs[1];
  EXPECT_TRUE(detailed.error.empty()) << detailed.error;
  EXPECT_TRUE(sampled.error.empty()) << sampled.error;
  // Schedule: 24 cycles in (3 detailed + 9 coarse) periods -> 2 windows.
  EXPECT_EQ(detailed.report.sampled.windows, 0u);
  EXPECT_EQ(sampled.report.sampled.windows, 2u);
  // Only the windows run detailed KMC, so the sampled job executes far
  // fewer detailed events than its all-detailed twin.
  EXPECT_LT(sampled.kmc_events, detailed.kmc_events);
  EXPECT_NE(core::to_string(sampled.report).find("Sampled mode"),
            std::string::npos);
}

TEST(CampaignRunner, SingleLaneRunsHigherPriorityFirst) {
  serve::CampaignRunner::Options opt;
  opt.root = fresh_dir("priority");
  opt.max_concurrent = 1;
  std::mutex mu;
  std::vector<std::string> order;
  opt.on_job_complete = [&](const serve::JobResult& r) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(r.id);
  };
  // Two tiny jobs; the later one outranks the earlier.
  serve::CampaignRunner runner(
      serve::CampaignSpec::parse(util::KeyValueConfig::parse(
          "box = 6\nmd.time_ps = 0.01\nkmc.cycles = 2\n"
          "md.table_segments = 400\nkmc.table_segments = 200\n"
          "sweep.job.priority = 0,9\n")),
      opt);
  const auto outcome = runner.run();
  ASSERT_TRUE(outcome.complete);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "j001");  // priority 9 before priority 0
  EXPECT_EQ(order[1], "j000");
}

TEST(CampaignRunner, SummaryJsonCarriesRollupAndNamespacedMetrics) {
  serve::CampaignRunner::Options opt;
  opt.root = fresh_dir("summary");
  serve::CampaignRunner runner(quick_spec(), opt);
  const auto outcome = runner.run();
  const std::string path = opt.root + "/summary.json";
  ASSERT_TRUE(serve::write_campaign_summary_file(path, runner.spec(), outcome));

  const auto doc = util::json::parse_file(path);
  EXPECT_EQ(doc.at("campaign").str(), "quick");
  EXPECT_EQ(doc.at("jobs_total").number(), 4.0);
  EXPECT_EQ(doc.at("completed").number(), 4.0);
  EXPECT_TRUE(doc.at("complete").boolean());
  EXPECT_GT(doc.at("jobs_per_hour").number(), 0.0);
  ASSERT_EQ(doc.at("jobs").array().size(), 4u);
  const auto& j0 = doc.at("jobs").array()[0];
  EXPECT_EQ(j0.at("id").str(), "j000");
  EXPECT_GT(j0.at("phase").at("md_seconds").number(), 0.0);
  // Fleet rollup: plain totals plus the job/<id>/ namespace.
  const auto& counters = doc.at("metrics").at("counters");
  ASSERT_NE(counters.find("kmc.events"), nullptr);
  ASSERT_NE(counters.find("job/j000/kmc.events"), nullptr);
  ASSERT_NE(counters.find("job/j003/kmc.events"), nullptr);
  // The per-job values sum to the fleet total.
  double sum = 0.0;
  for (int j = 0; j < 4; ++j) {
    sum += counters.at("job/j00" + std::to_string(j) + "/kmc.events").number();
  }
  EXPECT_EQ(sum, counters.at("kmc.events").number());
}

TEST(CampaignRunner, CommTraceCarriesTheReplayMeta) {
  // comm.trace jobs write their trace under the job directory with the same
  // meta mmd_run writes, md_steps and kmc_cycles included.
  serve::CampaignRunner::Options opt;
  opt.root = fresh_dir("comm_trace");
  serve::CampaignRunner runner(quick_spec("ranks = 2\ncomm.trace = job.mmdtrace\n"),
                               opt);
  const auto outcome = runner.run();
  ASSERT_EQ(outcome.completed, 4);
  for (const serve::JobResult& r : outcome.jobs) {
    const auto trace = telemetry::read_comm_trace_file(
        (fs::path(opt.root) / r.id / "job.mmdtrace").string());
    EXPECT_EQ(trace.meta.at("scenario"), r.id);
    EXPECT_EQ(trace.meta.at("ranks"), "2");
    EXPECT_EQ(trace.meta.at("box"), "6");
    EXPECT_EQ(trace.meta.at("atoms"), "432");
    const std::uint64_t md_steps = r.metrics.counter("md.steps") / 2;
    EXPECT_GT(md_steps, 0u);
    EXPECT_EQ(trace.meta_u64("md_steps", 0), md_steps) << r.id;
    EXPECT_EQ(trace.meta_u64("kmc_cycles", 0), 8u) << r.id;
    EXPECT_EQ(trace.meta_u64("steps", 0), md_steps + 8u) << r.id;
    EXPECT_GT(trace.total_stored(), 0u) << r.id;
  }
}

}  // namespace
}  // namespace mmd
