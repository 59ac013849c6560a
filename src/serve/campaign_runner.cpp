#include "serve/campaign_runner.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/scenario.h"
#include "io/atomic_file.h"
#include "util/crc32.h"
#include "util/json.h"
#include "util/timer.h"

namespace mmd::serve {

namespace fs = std::filesystem;

namespace {

/// Canonical fingerprint of a job's physics outcome: CRC-32 over the decimal
/// text of the final vacancy site ranks (text, not raw bytes, so the value is
/// stable across platforms and readable to recompute by hand).
std::uint32_t vacancies_crc32(const std::vector<std::int64_t>& sites) {
  std::ostringstream os;
  for (const std::int64_t s : sites) os << s << ',';
  return util::crc32(os.str());
}

/// Copy an aggregate with every metric name prefixed — the "job/<id>/..."
/// namespace of the campaign summary.
telemetry::MetricsRegistry::Aggregate namespaced(
    const telemetry::MetricsRegistry::Aggregate& a, const std::string& prefix) {
  telemetry::MetricsRegistry::Aggregate out;
  for (const auto& [name, v] : a.counters) out.counters[prefix + name] = v;
  for (const auto& [name, v] : a.gauge_max) out.gauge_max[prefix + name] = v;
  for (const auto& [name, v] : a.gauge_sum) out.gauge_sum[prefix + name] = v;
  for (const auto& [name, v] : a.dists) out.dists[prefix + name] = v;
  return out;
}

/// Result fields every completion marker carries after its job.* header.
constexpr const char* kMarkerKeys[] = {
    "wall_seconds", "vacancies_crc", "kmc_events", "vacancies", "mc_time",
    "vacancy_concentration", "md_seconds", "kmc_seconds"};

/// Atomic, durable drop of the per-job completion marker
/// (io::write_file_atomic): after a crash the marker either exists with full
/// content or not at all, so a resume pass never trusts a half-truth.
void write_marker(const fs::path& marker, const JobResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << "job.id = " << r.id << '\n'
     << "job.label = " << r.label << '\n'
     << "job.priority = " << r.priority << '\n'
     << "wall_seconds = " << r.wall_seconds << '\n'
     << "vacancies_crc = " << r.vacancies_crc << '\n'
     << "kmc_events = " << r.kmc_events << '\n'
     << "vacancies = " << r.vacancies << '\n'
     << "mc_time = " << r.mc_time << '\n'
     << "vacancy_concentration = " << r.vacancy_concentration << '\n'
     << "md_seconds = " << r.md_seconds << '\n'
     << "kmc_seconds = " << r.kmc_seconds << '\n';
  if (!io::write_file_atomic(marker.string(), os.str())) {
    throw std::runtime_error("cannot write job marker " + marker.string());
  }
}

/// Load a completed job's scalar fields back from its marker. Returns false
/// (job reruns) when the marker is unreadable, names another job, or lacks
/// any result field — an empty or truncated marker is not a finished job.
bool load_marker(const fs::path& marker, const std::string& job_id,
                 JobResult& r) {
  try {
    const auto kv = util::KeyValueConfig::parse_file(marker.string());
    if (kv.get_string("job.id", "") != job_id) return false;
    for (const char* key : kMarkerKeys) {
      if (!kv.has(key)) return false;
    }
    r.wall_seconds = kv.get_double("wall_seconds", 0.0);
    r.vacancies_crc =
        static_cast<std::uint32_t>(kv.get_int("vacancies_crc", 0));
    r.kmc_events = static_cast<std::uint64_t>(kv.get_int("kmc_events", 0));
    r.vacancies = static_cast<std::uint64_t>(kv.get_int("vacancies", 0));
    r.mc_time = kv.get_double("mc_time", 0.0);
    r.vacancy_concentration = kv.get_double("vacancy_concentration", 0.0);
    r.md_seconds = kv.get_double("md_seconds", 0.0);
    r.kmc_seconds = kv.get_double("kmc_seconds", 0.0);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

CampaignRunner::CampaignRunner(CampaignSpec spec, Options opt)
    : spec_(std::move(spec)), opt_(std::move(opt)) {
  if (opt_.root.empty()) {
    throw std::invalid_argument("CampaignRunner needs a root directory");
  }
  if (opt_.max_concurrent > 0) spec_.max_concurrent = opt_.max_concurrent;
  for (std::size_t i = 0; i < spec_.jobs.size(); ++i) {
    index_of_[spec_.jobs[i].id] = i;
  }
}

CampaignOutcome CampaignRunner::run() {
  util::Timer wall;
  fs::create_directories(opt_.root);
  results_.assign(spec_.jobs.size(), JobResult{});
  if (spec_.uses_slave_pool) {
    pool_ = std::make_unique<sw::SlaveCorePool>(
        static_cast<std::size_t>(spec_.pool_cores));
  }

  // The whole campaign is known up front: enqueue everything, close, and let
  // the lanes drain the queue in priority order.
  JobQueue queue;
  for (const ScenarioSpec& job : spec_.jobs) queue.push(job);
  queue.close();

  int max_nranks = 1;
  bool wants_comm_trace = false;
  for (const ScenarioSpec& job : spec_.jobs) {
    max_nranks = std::max(
        max_nranks, static_cast<int>(job.config.get_int("ranks", 1)));
    if (!job.config.get_string("comm.trace", "").empty()) {
      wants_comm_trace = true;
    }
  }

  const int lanes = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(spec_.max_concurrent),
                            spec_.jobs.size()));
  std::vector<std::thread> lane_threads;
  lane_threads.reserve(static_cast<std::size_t>(lanes));
  for (int lane = 0; lane < lanes; ++lane) {
    lane_threads.emplace_back([&] {
      // One telemetry session per lane, REUSED across the lane's jobs:
      // snapshot_and_reset() between jobs keeps them isolated (no cross-job
      // bleed) without re-allocating ring buffers per job. Sized for the
      // largest job; install_global=false keeps it reachable only through
      // the ThreadScope each job opens.
      telemetry::Session::Options o;
      o.lanes_per_rank = 1 + spec_.pool_cores;  // master lane + CPE span lanes
      o.events_per_track = 1 << 10;
      o.install_global = false;
      // Any comm.trace job turns the lane's flight recorder on; the recorder
      // is reset between jobs, so each trace file holds exactly one job.
      if (wants_comm_trace) o.comm_events_per_rank = std::size_t{1} << 16;
      telemetry::Session session(max_nranks, o);
      for (;;) {
        if (stop_.load(std::memory_order_relaxed)) break;
        auto job = queue.try_pop();
        if (!job) break;
        // Sequence the id lookup before the move constructs the parameter.
        const std::size_t spec_index = index_of_.at(job->id);
        run_one_job(spec_index, std::move(*job), session);
      }
    });
  }
  for (auto& t : lane_threads) t.join();

  CampaignOutcome out;
  out.completed = completed_.load();
  out.skipped = skipped_.load();
  out.failed = failed_.load();
  out.complete = static_cast<std::size_t>(out.completed + out.skipped) ==
                 spec_.jobs.size();
  out.wall_seconds = wall.elapsed();
  const double done = out.completed + out.skipped;
  if (out.wall_seconds > 0.0) {
    out.jobs_per_hour = done / (out.wall_seconds / 3600.0);
    if (pool_ != nullptr) {
      out.pool = pool_->activity();
      out.pool_utilization = out.pool.busy_seconds / out.wall_seconds;
    }
  }
  out.assets = cache_.stats();
  for (JobResult& r : results_) {
    if (r.id.empty()) continue;  // never started (early stop)
    out.fleet.merge(r.metrics);
    out.fleet.merge(namespaced(r.metrics, "job/" + r.id + "/"));
    out.jobs.push_back(std::move(r));
  }
  results_.clear();
  return out;
}

void CampaignRunner::run_one_job(std::size_t spec_index, ScenarioSpec job,
                                 telemetry::Session& session) {
  JobResult r;
  r.id = job.id;
  r.label = job.label;
  r.priority = job.priority;

  const fs::path jobdir = fs::path(opt_.root) / job.id;
  const fs::path marker = jobdir / "result.mmd";
  if (opt_.resume && fs::exists(marker) && load_marker(marker, job.id, r)) {
    r.skipped = true;
  } else {
    // Jobs see only their own telemetry: this thread (and the rank threads
    // its World spawns) record into the lane session for the duration.
    telemetry::Session::ThreadScope telemetry_scope(&session);
    util::Timer t;
    try {
      core::SimulationConfig cfg = core::scenario_from_kv(job.config);
      fs::create_directories(jobdir / "ckpt");
      cfg.checkpoint_dir = (jobdir / "ckpt").string();  // per-job isolation
      cfg.checkpoint_every = opt_.checkpoint_every;
      cfg.resume = opt_.resume;
      if (cfg.use_slave_force) cfg.slave_pool = pool_.get();
      core::Simulation sim(cfg, cache_.assets_for(cfg));
      r.report = sim.run();
      r.wall_seconds = t.elapsed();
      r.metrics = session.metrics().snapshot_and_reset();
      r.vacancies_crc = vacancies_crc32(r.report.final_vacancies);
      r.kmc_events = r.report.kmc_events;
      r.vacancies = r.report.final_vacancies.size();
      r.mc_time = r.report.kmc_mc_time;
      r.vacancy_concentration = r.report.vacancy_concentration;
      r.md_seconds = r.report.md_seconds;
      r.kmc_seconds = r.report.kmc_seconds;
      write_marker(marker, r);
      if (!cfg.comm_trace.empty() && session.comm_recorder() != nullptr) {
        // The job's trace lands under its directory regardless of the path
        // the scenario gave (per-job isolation, like checkpoints).
        const fs::path trace_path =
            jobdir / fs::path(cfg.comm_trace).filename();
        std::string err;
        if (!core::write_comm_trace(trace_path.string(), cfg, job.id,
                                    *session.comm_recorder(), r.metrics,
                                    &err)) {
          // A trace write failure must not fail a finished job.
          std::fprintf(stderr, "campaign: %s\n", err.c_str());
        }
      }
      if (session.comm_recorder() != nullptr) session.comm_recorder()->reset();
    } catch (const std::exception& e) {
      // One bad job must not take the fleet down: record the failure, leave
      // no marker (a resumed campaign retries it), and keep the lane
      // draining. The reset keeps the half-run's metrics out of the lane's
      // next job.
      r.error = e.what();
      r.wall_seconds = t.elapsed();
      (void)session.metrics().snapshot_and_reset();
      if (session.comm_recorder() != nullptr) session.comm_recorder()->reset();
    }
  }

  if (opt_.on_job_complete) opt_.on_job_complete(r);
  const bool was_skipped = r.skipped;
  const bool was_failed = !r.error.empty();
  {
    std::lock_guard<std::mutex> lk(results_mu_);
    results_[spec_index] = std::move(r);
  }
  if (was_failed) {
    failed_.fetch_add(1);
  } else if (was_skipped) {
    skipped_.fetch_add(1);
  } else {
    completed_.fetch_add(1);
  }
  const int finished = finished_.fetch_add(1) + 1;
  if (opt_.stop_after_jobs > 0 && finished >= opt_.stop_after_jobs) {
    stop_.store(true, std::memory_order_relaxed);
  }
}

bool write_campaign_summary_file(const std::string& path,
                                 const CampaignSpec& spec,
                                 const CampaignOutcome& outcome) {
  std::ofstream os(path);
  if (!os) return false;
  os.precision(17);
  os << "{\n";
  os << "  \"schema\": 1,\n";
  os << "  \"campaign\": ";
  util::json::write_string(os, spec.name);
  os << ",\n";
  os << "  \"jobs_total\": " << spec.jobs.size() << ",\n";
  os << "  \"completed\": " << outcome.completed << ",\n";
  os << "  \"skipped\": " << outcome.skipped << ",\n";
  os << "  \"failed\": " << outcome.failed << ",\n";
  os << "  \"complete\": " << (outcome.complete ? "true" : "false") << ",\n";
  os << "  \"wall_seconds\": " << outcome.wall_seconds << ",\n";
  os << "  \"jobs_per_hour\": " << outcome.jobs_per_hour << ",\n";
  os << "  \"pool\": {\"cores\": " << spec.pool_cores
     << ", \"epochs\": " << outcome.pool.epochs
     << ", \"contended_epochs\": " << outcome.pool.contended_epochs
     << ", \"busy_seconds\": " << outcome.pool.busy_seconds
     << ", \"utilization\": " << outcome.pool_utilization << "},\n";
  os << "  \"assets\": {\"table_sets_built\": " << outcome.assets.misses
     << ", \"hits\": " << outcome.assets.hits << "},\n";
  os << "  \"jobs\": [\n";
  for (std::size_t i = 0; i < outcome.jobs.size(); ++i) {
    const JobResult& r = outcome.jobs[i];
    os << "    {\"id\": ";
    util::json::write_string(os, r.id);
    os << ", \"label\": ";
    util::json::write_string(os, r.label);
    os << ", \"priority\": " << r.priority
       << ", \"skipped\": " << (r.skipped ? "true" : "false")
       << ", \"wall_seconds\": " << r.wall_seconds
       << ", \"vacancies\": " << r.vacancies
       << ", \"vacancies_crc\": " << r.vacancies_crc
       << ", \"kmc_events\": " << r.kmc_events;
    if (!r.error.empty()) {
      os << ", \"error\": ";
      util::json::write_string(os, r.error);
    }
    os << ",\n     \"phase\": {\"md_seconds\": " << r.md_seconds
       << ", \"kmc_seconds\": " << r.kmc_seconds
       << ", \"md_compute_seconds\": " << r.report.md_compute_seconds
       << ", \"md_comm_seconds\": " << r.report.md_comm_seconds
       << ", \"kmc_compute_seconds\": " << r.report.kmc_compute_seconds
       << ", \"kmc_comm_seconds\": " << r.report.kmc_comm_seconds << "}}"
       << (i + 1 < outcome.jobs.size() ? "," : "") << '\n';
  }
  os << "  ],\n";
  // Fleet rollup: plain names are campaign totals, job/<id>/... the per-job
  // namespace (both from the same merge semantics as cross-rank aggregation).
  os << "  \"metrics\": {\n    \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : outcome.fleet.counters) {
    os << (first ? "" : ", ") << "\n      ";
    util::json::write_string(os, name);
    os << ": " << v;
    first = false;
  }
  os << "\n    },\n    \"gauge_max\": {";
  first = true;
  for (const auto& [name, v] : outcome.fleet.gauge_max) {
    os << (first ? "" : ", ") << "\n      ";
    util::json::write_string(os, name);
    os << ": " << v;
    first = false;
  }
  os << "\n    }\n  }\n}\n";
  return static_cast<bool>(os.flush());
}

}  // namespace mmd::serve
