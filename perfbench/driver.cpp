// mmd_perfbench — end-to-end benchmark driver for the coupled MD-KMC
// simulator. It runs one workload for a fixed time through the same public
// calls mmd_run and mmd_campaign make (core::Simulation::build_assets, the
// Simulation constructor, Simulation::run, serve::CampaignRunner::run),
// checks every output, and writes the results as JSON.
//
//   mmd_perfbench --workload cascade|anneal|campaign --seed N --seconds S
//                 --trace 0|1 --out DIR [--size full|tiny]
//
// A run draws a sequence of problems from the seed (problem j gets scenario
// seed sub_seed(seed, j)), warms up on problem 0, and keeps starting new
// problems until the time budget is spent. A timed metric is the median over
// the problems of the run (peak_rss_mb: the minimum, see for_each_problem).
//
// --trace 0 measures the end-to-end metrics the way plain `mmd_run` runs.
// --trace 1 runs every problem twice, as in --trace 0 and then under a
// driver telemetry::Session with large rings and the comm recorder on, and
// derives the per-layer metrics from the traced pass (telemetry::analyze
// over the program's spans and counters, plus the driver's own spans around
// each call into the program). The traced pass of problem 0 is written to
// DIR as trace.json (Chrome trace) and perf_report.json (mmd.perf_report);
// its driver spans go into result.json.
//
// Metrics are tagged "counted" (exact and host-independent; always taken
// from problem 0 so that a seed repeats them bit for bit) or "timed"
// (measured on the host: times, rates, memory). See perfbench/README.md.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/simulation.h"
#include "perf/bench_report.h"
#include "serve/campaign.h"
#include "serve/campaign_runner.h"
#include "sunway/slave_pool.h"
#include "telemetry/analysis.h"
#include "telemetry/export.h"
#include "telemetry/session.h"
#include "util/crc32.h"
#include "util/key_value.h"
#include "util/stats.h"

using namespace mmd;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workload sizes ----------------------------------------------------------

/// Problem sizes of the three workloads. `full` is the benchmark; `tiny` is
/// the minimal size the self-test uses to check the metric names quickly.
///
/// MD lengths stay within the PKAs' flight. The adaptive MD step follows
/// the fastest atom; while that is a PKA still in flight the step count
/// barely depends on the seed (box 10: 61-65 steps at 0.02 ps for 2 PKAs @
/// 80 eV, 85-95 at 0.03 ps). Once the PKAs have collided it depends on
/// where they did: at 0.05 ps, 176-627 steps between seeds for 3 PKAs @
/// 120 eV, which made run times vary 2x between problems of one workload.
struct Sizes {
  int cascade_box = 10;
  double cascade_md_ps = 0.03;
  int cascade_cycles = 30;

  int anneal_box = 10;
  double anneal_md_ps = 0.02;
  int anneal_cycles = 2400;
  int anneal_ckpt_every = 400;

  /// kmc.dt_scale of anneal. A cycle lasts dt_scale / k_max of MC time,
  /// with k_max from the previous cycle, so a fast hop that appears
  /// mid-cycle can repeat thousands of times: at 1, one 300 K campaign job
  /// ran 4 million events (79 s) where its siblings took 1 s. At 0.5 the
  /// per-cycle work of the 600 K anneal dominates and such bursts were not
  /// seen.
  double kmc_dt_scale = 0.5;

  int campaign_box = 10;
  double campaign_md_ps = 0.02;
  /// The campaign's all-detailed 300 K jobs still burst at 0.5 (one ran
  /// 2.1 million events, 38 s, in a single cycle); a burst's size scales
  /// with dt_scale.
  double campaign_dt_scale = 0.1;
  int campaign_cycles = 150;
  int sample_window = 5;
  int sample_stride = 45;
};

Sizes tiny_sizes() {
  Sizes s;
  s.cascade_box = 9;  // kCascadeRanks slabs of at least 3 cells
  s.cascade_md_ps = 0.01;
  s.cascade_cycles = 5;
  s.anneal_box = 9;
  s.anneal_md_ps = 0.01;
  s.anneal_cycles = 40;
  s.anneal_ckpt_every = 10;
  s.campaign_box = 6;
  s.campaign_md_ps = 0.01;
  s.campaign_cycles = 50;
  s.sample_window = 5;
  s.sample_stride = 20;
  return s;
}

/// Ranks of the main cascade and anneal runs. The ranks advance in lock
/// step, so on a 4-vCPU VM whose host steals time one descheduled vCPU
/// stalls them all. Over eight interleaved repeats of the cascade's MD
/// stage, 4 ranks read 0.45-0.67 s (IQR/median 0.18) where 3 ranks read
/// 0.52-0.77 s (0.07). The anneal synchronizes far more often (per-sector
/// collectives every cycle): in a spell of 2-15% steal, 3 ranks read 1.30
/// s quiet and up to 3.06 s, 2 ranks 1.38 s quiet and up to 2.92 s, on
/// average 1.9x and 1.5x their quiet time.
constexpr int kCascadeRanks = 3;
constexpr int kAnnealRanks = 2;
constexpr int kCampaignJobs = 8;
constexpr int kCampaignLanes = 2;

/// Scenario seed of problem j: splitmix64 of (seed, j), kept within the
/// positive range of the scenario file's integer `seed` key.
std::uint64_t sub_seed(std::uint64_t seed, int j) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(j) + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z & 0x7FFFFFFFULL;
}

std::string cascade_text(const Sizes& s, std::uint64_t seed, int ranks) {
  std::ostringstream os;
  os << "box = " << s.cascade_box << "\nranks = " << ranks
     << "\ntemperature = 600\nmd.time_ps = " << s.cascade_md_ps
     << "\npka.count = 2\npka.energy_ev = 80\nkmc.cycles = " << s.cascade_cycles
     << "\nkmc.strategy = on-demand\nseed = " << seed << "\n";
  return os.str();
}

std::string anneal_text(const Sizes& s, std::uint64_t seed, int ranks,
                        const std::string& ckpt_dir) {
  std::ostringstream os;
  os << "box = " << s.anneal_box << "\nranks = " << ranks
     << "\ntemperature = 600\nmd.time_ps = " << s.anneal_md_ps
     << "\npka.count = 4\npka.energy_ev = 100\nkmc.cycles = " << s.anneal_cycles
     << "\nkmc.dt_scale = " << s.kmc_dt_scale
     << "\nkmc.strategy = on-demand\ncheckpoint.dir = " << ckpt_dir
     << "\ncheckpoint.every = " << s.anneal_ckpt_every << "\nseed = " << seed
     << "\n";
  return os.str();
}

std::string campaign_text(const Sizes& s, std::uint64_t seed) {
  std::ostringstream os;
  os << "campaign.name = perfbench\ncampaign.max_concurrent = " << kCampaignLanes
     << "\nbox = " << s.campaign_box << "\nranks = 1\nmd.time_ps = "
     << s.campaign_md_ps << "\npka.count = 3\nkmc.cycles = " << s.campaign_cycles
     << "\nkmc.dt_scale = " << s.campaign_dt_scale << "\naccel = slave\nsample.window = " << s.sample_window
     << "\nsample.stride = " << s.sample_stride
     << "\nsample.replicates = 8\nseed = " << seed
     << "\nsweep.pka.energy_ev = 80,120\nsweep.temperature = 300,600"
        "\nsweep.sample.mode = off,scd\n";
  return os.str();
}

// --- driver-side spans ---------------------------------------------------------

/// A span the driver records around one of its own calls into the program,
/// timed on the traced session's tracer clock so it lines up with the
/// program's spans in the Chrome trace.
struct BenchSpan {
  std::string name;
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
};

class SpanLog {
 public:
  /// Null tracer: spans are not recorded (untraced passes).
  explicit SpanLog(const telemetry::Tracer* tracer) : tracer_(tracer) {}

  /// Thread-safe: campaign lanes report job completions concurrently.
  void add(const std::string& name, std::uint64_t t0_ns, std::uint64_t t1_ns) {
    if (tracer_ == nullptr) return;
    std::lock_guard lk(mu_);
    spans_.push_back({name, t0_ns, t1_ns});
  }
  std::uint64_t now_ns() const { return tracer_ != nullptr ? tracer_->now_ns() : 0; }
  const std::vector<BenchSpan>& spans() const { return spans_; }

 private:
  const telemetry::Tracer* tracer_;
  std::mutex mu_;
  std::vector<BenchSpan> spans_;
};

/// Wall seconds of fn(), also recorded as driver span `name` when traced.
template <class F>
double timed(SpanLog& spans, const char* name, F&& fn) {
  const std::uint64_t t0 = spans.now_ns();
  const auto c0 = Clock::now();
  fn();
  const double s = seconds_since(c0);
  spans.add(name, t0, spans.now_ns());
  return s;
}

// --- one scenario run ------------------------------------------------------------

struct ScenarioRun {
  core::SimulationConfig cfg;
  core::SimulationReport report;
  double build_assets_s = 0.0;
  double ctor_s = 0.0;
  double run_s = 0.0;
  // From the session's counters (the report carries neither):
  std::uint64_t md_steps = 0;
  std::uint64_t failed_epochs = 0;  ///< checkpoint epochs that failed
  double setup_s() const { return build_assets_s + ctor_s; }
};

/// Parse a scenario the way mmd_run does, then build assets, construct and
/// run, timing each call, under a driver telemetry::Session made with
/// `opt`. The default options are what plain `mmd_run config.mmd` installs
/// (and what Simulation::run creates for itself when no session is
/// installed), so a run with them pays no more than a user's run does.
/// `traced`, when given, receives the session before it is destroyed.
ScenarioRun run_scenario(
    const std::string& text, bool resume = false,
    const telemetry::Session::Options& opt = {},
    const std::function<void(const telemetry::Session&, const SpanLog&,
                             const ScenarioRun&)>& traced = {}) {
  const auto kv = util::KeyValueConfig::parse(text, "<perfbench>");
  ScenarioRun r;
  r.cfg = core::scenario_from_kv(kv);
  kv.reject_unknown_keys();
  r.cfg.resume = resume;
  telemetry::Session session(r.cfg.nranks, opt);
  SpanLog spans(traced ? &session.tracer() : nullptr);
  core::SimulationAssets assets;
  r.build_assets_s = timed(spans, "bench.build_assets",
                           [&] { assets = core::Simulation::build_assets(r.cfg); });
  std::optional<core::Simulation> sim;
  r.ctor_s = timed(spans, "bench.ctor", [&] { sim.emplace(r.cfg, std::move(assets)); });
  r.run_s = timed(spans, "bench.run", [&] { r.report = sim->run(); });
  const auto agg = session.metrics().aggregate();
  r.md_steps = agg.counter("md.steps");
  r.failed_epochs = agg.counter("ckpt.failed_epochs");
  if (traced) traced(session, spans, r);
  return r;
}

/// CRC-32 over the final vacancy sites and the detailed event count: equal
/// for every run of the same scenario, traced or not, at the same rank count.
std::uint32_t fingerprint(const core::SimulationReport& r) {
  std::ostringstream os;
  for (const std::int64_t s : r.final_vacancies) os << s << ',';
  os << '|' << r.kmc_events;
  return util::crc32(os.str());
}

/// to_string(report) without the wall-clock seconds of the two stages.
std::string report_without_walls(const core::SimulationReport& r) {
  static const std::regex wall(R"(\([-+0-9.eE]+ s\))");
  return std::regex_replace(core::to_string(r), wall, "(wall)");
}

// --- checks -----------------------------------------------------------------------

/// Counts attempted scenario runs (or campaign jobs) and those that threw or
/// failed an output check; every failure is also printed.
class Checks {
 public:
  void attempt() { ++attempted_; }
  void fail(const std::string& what) {
    ++failed_;
    failures_.push_back(what);
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  /// One attempted run; fails it on the first broken check in `errors`.
  void run(const std::vector<std::string>& errors) {
    attempt();
    if (!errors.empty()) fail(errors.front());
  }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<std::string> failures_;
};

/// Output checks of one coupled run of pure Fe in a box of `box` cells.
std::vector<std::string> report_errors(const core::SimulationReport& r, int box,
                                       const std::string& where) {
  std::vector<std::string> e;
  const auto atoms = static_cast<std::uint64_t>(2 * box * box * box);
  if (r.md_defects.atoms != atoms) {
    e.push_back(where + ": " + std::to_string(r.md_defects.atoms) +
                " atoms, expected 2*box^3 = " + std::to_string(atoms));
  }
  if (r.md_defects.vacancies != r.md_defects.interstitials) {
    e.push_back(where + ": vacancies " + std::to_string(r.md_defects.vacancies) +
                " != interstitials " + std::to_string(r.md_defects.interstitials));
  }
  if (r.final_vacancies.size() != r.md_defects.vacancies) {
    e.push_back(where + ": " + std::to_string(r.final_vacancies.size()) +
                " vacancies after KMC, " + std::to_string(r.md_defects.vacancies) +
                " after MD");
  }
  return e;
}

// --- metrics ----------------------------------------------------------------------

enum class Kind { Counted, Timed };

struct MetricSpec {
  const char* name;
  const char* unit;
  Kind kind;
  const char* better;
  const char* moves;  ///< end-to-end metric @ workload it should move
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", Kind::Timed, "lower", ""},
    {"run_s", "s", Kind::Timed, "lower", ""},
    {"run_1rank_s", "s", Kind::Timed, "lower", ""},
    {"md_atom_steps_per_s", "atom-steps/s", Kind::Timed, "higher", ""},
    {"jobs_per_h", "jobs/h", Kind::Timed, "higher", ""},
    {"peak_rss_mb", "MB", Kind::Timed, "lower", ""},
    {"ok_frac", "ratio", Kind::Counted, "higher", ""},
};

constexpr MetricSpec kPerLayer[] = {
    {"potential.build_assets_s", "s", Kind::Timed, "lower", "setup_s@all"},
    {"core.ctor_s", "s", Kind::Timed, "lower", "setup_s@all"},
    {"core.stage.md_cascade_s", "s", Kind::Timed, "lower", "run_s@all"},
    {"core.stage.kmc_s", "s", Kind::Timed, "lower", "run_s@all"},
    {"core.stage.sampling_s", "s", Kind::Timed, "lower", "run_s@campaign"},
    {"core.unattributed_s", "s", Kind::Timed, "lower", "run_s@all"},
    {"core.speedup", "ratio", Kind::Timed, "higher", "diagnostic"},
    {"core.rank_threads", "count", Kind::Counted, "higher", "diagnostic"},
    {"md.steps", "count", Kind::Counted, "lower", "md_atom_steps_per_s@cascade"},
    {"md.step_p50_us", "us", Kind::Timed, "lower", "run_1rank_s@cascade"},
    {"md.step_p99_us", "us", Kind::Timed, "lower", "run_s@cascade"},
    {"md.force_s", "s", Kind::Timed, "lower", "md_atom_steps_per_s@cascade"},
    {"md.integrate_s", "s", Kind::Timed, "lower", "md_atom_steps_per_s@cascade"},
    {"lattice.ghost_s", "s", Kind::Timed, "lower", "run_s@cascade"},
    {"comm.wait_s", "s", Kind::Timed, "lower", "run_s@cascade,anneal"},
    {"comm.dt_sync_s", "s", Kind::Timed, "lower", "run_s@cascade,anneal"},
    {"comm.imbalance", "ratio", Kind::Timed, "lower", "run_s@cascade"},
    {"comm.p2p.msgs", "count", Kind::Counted, "lower", "run_s@cascade"},
    {"comm.p2p.bytes", "bytes", Kind::Counted, "lower", "run_s@cascade"},
    {"comm.onesided.puts", "count", Kind::Counted, "lower", "run_s@anneal"},
    {"comm.onesided.bytes", "bytes", Kind::Counted, "lower", "run_s@anneal"},
    {"comm.collectives", "count", Kind::Counted, "lower", "run_s@anneal"},
    {"kmc.cycles", "count", Kind::Counted, "higher", "run_s@anneal"},
    {"kmc.events", "count", Kind::Counted, "higher", "run_s@anneal"},
    {"kmc.rates.recomputed", "count", Kind::Counted, "lower", "run_s@anneal"},
    {"kmc.rates.reused", "count", Kind::Counted, "higher", "run_s@anneal"},
    {"kmc.events.candidates", "count", Kind::Counted, "lower", "run_s@anneal"},
    {"kmc.rates_reuse_ratio", "ratio", Kind::Counted, "higher", "run_s@anneal"},
    {"kmc.events_per_s", "events/s", Kind::Timed, "higher", "run_s@anneal"},
    {"kmc.cycles_per_s", "cycles/s", Kind::Timed, "higher", "run_s@anneal,campaign"},
    {"kmc.cycle_p50_us", "us", Kind::Timed, "lower", "run_s@anneal"},
    {"kmc.cycle_p99_us", "us", Kind::Timed, "lower", "run_s@anneal"},
    {"kmc.ghost_after_s", "s", Kind::Timed, "lower", "run_s@anneal"},
    {"kmc.rates_s", "s", Kind::Timed, "lower", "run_s@anneal"},
    {"scd.events", "count", Kind::Counted, "lower", "run_s@campaign"},
    {"sample.windows", "count", Kind::Counted, "higher", "run_s@campaign"},
    {"sample.ci_halfwidth", "clusters", Kind::Counted, "lower", "run_s@campaign"},
    {"sw.dma.get_ops", "count", Kind::Counted, "lower", "jobs_per_h@campaign"},
    {"sw.dma.get_bytes", "bytes", Kind::Counted, "lower", "jobs_per_h@campaign"},
    {"sw.dma.put_bytes", "bytes", Kind::Counted, "lower", "jobs_per_h@campaign"},
    {"sw.table.fallback", "count", Kind::Counted, "lower", "jobs_per_h@campaign"},
    {"sw.cpe_kernel_s", "s", Kind::Timed, "lower", "jobs_per_h@campaign"},
    {"sw.pool.epochs", "count", Kind::Counted, "lower", "jobs_per_h@campaign"},
    {"sw.pool.contended_epochs", "count", Kind::Timed, "lower", "jobs_per_h@campaign"},
    {"sw.pool.utilization", "ratio", Kind::Timed, "higher", "jobs_per_h@campaign"},
    {"sw.pool.workers", "count", Kind::Counted, "higher", "jobs_per_h@campaign"},
    {"io.ckpt.epochs", "count", Kind::Counted, "lower", "run_s@anneal"},
    {"io.ckpt.bytes", "bytes", Kind::Counted, "lower", "run_s@anneal"},
    {"io.ckpt.failed_epochs", "count", Kind::Counted, "lower", "run_s@anneal"},
    {"io.ckpt.write_p50_ms", "ms", Kind::Timed, "lower", "run_s@anneal"},
    {"io.resume_s", "s", Kind::Timed, "lower", "run_s@anneal"},
    {"serve.assets.hits", "count", Kind::Counted, "higher", "jobs_per_h@campaign"},
    {"serve.assets.misses", "count", Kind::Counted, "lower", "jobs_per_h@campaign"},
    {"serve.job_p50_s", "s", Kind::Timed, "lower", "jobs_per_h@campaign"},
    {"serve.job_max_s", "s", Kind::Timed, "lower", "jobs_per_h@campaign"},
    {"serve.lane_busy_frac", "ratio", Kind::Timed, "higher", "jobs_per_h@campaign"},
    {"telemetry.trace_overhead", "ratio", Kind::Timed, "lower", "none"},
    {"telemetry.dropped", "count", Kind::Counted, "lower", "none"},
};

/// Per-problem samples of each metric; the reported value is their median,
/// except for counted metrics, which come from problem 0 alone.
class Samples {
 public:
  void add(const std::string& name, double v) { s_[name].push_back(v); }
  void set_counted(const std::string& name, double v) {
    if (!counted_.count(name)) counted_[name] = v;
  }
  void set_counted_all(const std::map<std::string, double>& values) {
    for (const auto& [name, v] : values) set_counted(name, v);
  }
  double value(const MetricSpec& m) const {
    if (m.kind == Kind::Counted) {
      const auto it = counted_.find(m.name);
      return it == counted_.end() ? 0.0 : it->second;
    }
    const auto it = s_.find(m.name);
    return it == s_.end() || it->second.empty() ? 0.0 : util::median(it->second);
  }
  std::size_t count(const std::string& name) const {
    const auto it = s_.find(name);
    return it == s_.end() ? 0 : it->second.size();
  }
  const std::map<std::string, std::vector<double>>& all() const { return s_; }

 private:
  std::map<std::string, std::vector<double>> s_;
  std::map<std::string, double> counted_;
};

/// Return free heap memory to the system and restart the kernel's RSS
/// high-water mark (VmHWM) at the current RSS. Without the trim, memory a
/// multi-threaded run left in glibc's per-thread arenas would set the peak
/// of every later problem, and how much is left there varies run to run.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM of this process since the last reset_peak_rss(), in MiB; the
/// lifetime peak from getrusage where /proc is unavailable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Cumulative CPU ticks of the whole machine, and the part the hypervisor
/// gave to other guests ("steal", the 8th field of /proc/stat's cpu line).
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(stat >> cpu) || cpu != "cpu") return t;
  std::uint64_t v = 0;
  for (int i = 0; i < 10 && stat >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

// --- per-layer extraction from a traced session ---------------------------------

const telemetry::PhaseStats* find_phase(const telemetry::PerfReport& p,
                                        const std::string& name) {
  for (const auto& ph : p.phases) {
    if (ph.name == name) return &ph;
  }
  return nullptr;
}

double crit(const telemetry::PerfReport& p, const std::string& name) {
  const auto* ph = find_phase(p, name);
  return ph == nullptr ? 0.0 : ph->total_max_s;
}

/// Largest per-rank share of [t0, t1] that no master-lane span covers: the
/// wall time of Simulation::run the program's own spans leave unattributed.
double unattributed_seconds(const telemetry::Tracer& tracer, std::uint64_t t0,
                            std::uint64_t t1) {
  double worst = 0.0;
  for (int i = 0; i < tracer.num_tracks(); ++i) {
    const auto* track = tracer.track(i);
    if (track == nullptr || track->lane != telemetry::Tracer::kMasterLane) continue;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (std::size_t k = 0; k < track->live(); ++k) {
      const auto& ev = track->ring[k];
      const std::uint64_t a = std::max(ev.t0_ns, t0);
      const std::uint64_t b = std::min(ev.t1_ns, t1);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t end = t0;
    for (const auto& [a, b] : iv) {
      if (b <= end) continue;
      covered += b - std::max(a, end);
      end = b;
    }
    worst = std::max(worst, static_cast<double>((t1 - t0) - covered) * 1e-9);
  }
  return worst;
}

/// Maximum over ranks of a per-rank counter (the critical path of a
/// counter that accumulates time).
double counter_max_over_ranks(const telemetry::MetricsRegistry& m,
                              const std::string& name) {
  std::uint64_t mx = 0;
  for (int r = 0; r < m.nranks(); ++r) {
    const auto& c = m.rank(r).counters;
    const auto it = c.find(name);
    if (it != c.end()) mx = std::max(mx, it->second);
  }
  return static_cast<double>(mx);
}

/// Counted per-layer metrics from a metrics aggregate (one run or a fleet).
std::map<std::string, double> counted_from(
    const telemetry::MetricsRegistry::Aggregate& a) {
  std::map<std::string, double> c;
  const auto n = [&](const char* k) { return static_cast<double>(a.counter(k)); };
  c["md.steps"] = n("md.steps");
  for (const char* k : {"comm.p2p.msgs", "comm.p2p.bytes", "comm.onesided.puts",
                        "comm.onesided.bytes", "comm.collectives", "kmc.cycles",
                        "kmc.events", "kmc.rates.recomputed", "kmc.rates.reused",
                        "kmc.events.candidates", "scd.events", "sw.dma.get_ops",
                        "sw.dma.get_bytes", "sw.dma.put_bytes", "sw.table.fallback"}) {
    c[k] = n(k);
  }
  const double touched = n("kmc.rates.reused") + n("kmc.rates.recomputed");
  c["kmc.rates_reuse_ratio"] = touched > 0 ? n("kmc.rates.reused") / touched : 0.0;
  c["io.ckpt.epochs"] = n("ckpt.epochs");
  c["io.ckpt.bytes"] = n("ckpt.bytes");
  c["io.ckpt.failed_epochs"] = n("ckpt.failed_epochs");
  return c;
}

/// Timed per-layer metrics of one traced Simulation::run.
void add_traced_layers(Samples& s, const telemetry::Session& session,
                       const telemetry::PerfReport& p) {
  const auto agg = session.metrics().aggregate();
  s.add("core.stage.md_cascade_s", agg.gauge_maximum("stage.md_cascade.seconds"));
  s.add("core.stage.kmc_s", agg.gauge_maximum("stage.kmc.seconds"));
  s.add("core.stage.sampling_s", agg.gauge_maximum("stage.sampling.seconds"));
  if (const auto* step = find_phase(p, "md.step")) {
    s.add("md.step_p50_us", step->span_s.p50() * 1e6);
    s.add("md.step_p99_us", step->span_s.p99() * 1e6);
    s.add("comm.imbalance", step->imbalance);
  }
  s.add("md.force_s", crit(p, "md.force.rho") + crit(p, "md.force.eam"));
  s.add("md.integrate_s", crit(p, "md.integrate"));
  s.add("lattice.ghost_s", crit(p, "md.ghost.exchange") + crit(p, "md.ghost.rho"));
  s.add("comm.wait_s", counter_max_over_ranks(session.metrics(), "comm.wait.ns") * 1e-9);
  s.add("comm.dt_sync_s", crit(p, "md.dt_sync") + crit(p, "kmc.dt_sync"));
  if (const auto* cyc = find_phase(p, "kmc.cycle")) {
    s.add("kmc.cycle_p50_us", cyc->span_s.p50() * 1e6);
    s.add("kmc.cycle_p99_us", cyc->span_s.p99() * 1e6);
  }
  s.add("kmc.ghost_after_s", crit(p, "kmc.ghost.after"));
  s.add("kmc.rates_s", crit(p, "kmc.rates.build") + crit(p, "kmc.rates.update"));
  double cpe = 0.0;
  for (const auto& ph : p.cpe_phases) cpe += ph.total_max_s;
  s.add("sw.cpe_kernel_s", cpe);
  if (const auto* ck = find_phase(p, "sim.checkpoint")) {
    s.add("io.ckpt.write_p50_ms", ck->span_s.p50() * 1e3);
  }
}

// --- JSON output --------------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// --- workloads ------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
  bool tiny = false;
};

struct Context {
  explicit Context(const Args& a)
      : args(a), sizes(a.tiny ? tiny_sizes() : Sizes{}), tmp(fs::path(a.out) / "tmp") {}

  const Args& args;
  Sizes sizes;
  fs::path tmp;  ///< temporary directory for checkpoints and campaign roots
  Samples samples;
  Checks checks;
  std::vector<BenchSpan> artifact_spans;  ///< driver spans of traced problem 0
  int rank_threads = 0;
  int pool_workers = 0;
  int problems = 0;
  CpuTicks start_ticks = cpu_ticks();
};

/// Untimed warm-up before the first timed problem. On a virtual machine
/// whose cores sat idle, the first second or two of a multi-threaded run
/// take up to twice as long as the rest, so the warm-up repeats until this
/// much time has passed.
constexpr double kWarmupSeconds = 2.5;
constexpr int kMinProblems = 3;

/// Warm up, then run problems 0, 1, ... until the time budget (warm-up
/// included) is spent, at least kMinProblems. A problem is not started when
/// the median duration so far says it would end past the budget (the median,
/// so that one long cascade does not end the run early).
///
/// Each problem's peak RSS is sampled on its own (free heap memory returned
/// to the system and the high-water mark reset before it starts), and
/// peak_rss_mb is the smallest of them: glibc's per-thread arenas and its
/// cache of thread stacks add a varying amount on top (up to 2x in the
/// two-lane campaign), never less, so the minimum is the repeatable figure.

void for_each_problem(Context& ctx, const std::function<void()>& warm,
                      const std::function<void(int)>& one) {
  const auto t0 = Clock::now();
  do {
    warm();
  } while (!ctx.args.tiny && seconds_since(t0) < kWarmupSeconds);
  std::vector<double> durations;
  for (int j = 0;; ++j) {
    const double elapsed = seconds_since(t0);
    if (j >= kMinProblems && elapsed + util::median(durations) > ctx.args.seconds) break;
    reset_peak_rss();
    const auto ts = Clock::now();
    one(j);
    durations.push_back(seconds_since(ts));
    ctx.samples.add("problem_peak_rss_mb", peak_rss_mb());
    ctx.problems = j + 1;
  }
  const auto& rss = ctx.samples.all().at("problem_peak_rss_mb");
  ctx.samples.add("peak_rss_mb", *std::min_element(rss.begin(), rss.end()));
}

/// Chrome trace and mmd.perf_report of a traced pass, plus its driver
/// spans (run.py merges those into the trace).
void write_artifacts(Context& ctx, const telemetry::Session& session,
                     const telemetry::PerfReport& perf,
                     const std::vector<BenchSpan>& spans) {
  const fs::path out(ctx.args.out);
  if (!telemetry::write_chrome_trace_file((out / "trace.json").string(),
                                          session.tracer(), session.comm_recorder()) ||
      !telemetry::write_perf_report_json_file((out / "perf_report.json").string(),
                                              perf)) {
    throw std::runtime_error("cannot write trace artifacts under " + out.string());
  }
  ctx.artifact_spans = spans;
}

/// The traced pass of one scenario: a driver Session with rings large
/// enough to drop nothing and the comm recorder on, driver spans around
/// build_assets / ctor / run, and the per-layer metrics read back through
/// telemetry::analyze. Returns the run and its counted metrics.
std::pair<ScenarioRun, std::map<std::string, double>> traced_scenario(
    Context& ctx, const std::string& text, bool keep_artifacts) {
  telemetry::Session::Options o;
  o.events_per_track = std::size_t{1} << 18;
  o.comm_events_per_rank = std::size_t{1} << 16;
  std::map<std::string, double> counted;
  const auto read = [&](const telemetry::Session& session, const SpanLog& spans,
                        const ScenarioRun& r) {
    const auto perf = telemetry::analyze(session.tracer(), session.metrics());
    ctx.samples.add("potential.build_assets_s", r.build_assets_s);
    ctx.samples.add("core.ctor_s", r.ctor_s);
    add_traced_layers(ctx.samples, session, perf);
    const BenchSpan& run_span = spans.spans().back();
    ctx.samples.add("core.unattributed_s", unattributed_seconds(session.tracer(),
                                                                run_span.t0_ns,
                                                                run_span.t1_ns));
    counted = counted_from(session.metrics().aggregate());
    counted["telemetry.dropped"] = static_cast<double>(
        session.tracer().total_dropped() + session.comm_recorder()->total_dropped());
    if (keep_artifacts) {
      write_artifacts(ctx, session, perf, spans.spans());
    }
  };
  ScenarioRun r = run_scenario(text, false, o, read);
  return {std::move(r), std::move(counted)};
}

int pool_workers_for(const core::SimulationConfig& cfg) {
  if (!cfg.use_slave_force) return 0;
  const sw::SlaveCorePool probe;  // what Simulation::run builds for itself
  return static_cast<int>(probe.os_threads());
}

void check_same(Checks& checks, std::uint32_t a, std::uint32_t b,
                const std::string& what) {
  if (a != b) {
    checks.fail(what + ": fingerprint " + std::to_string(a) + " != " + std::to_string(b));
  }
}

/// Set-ups repeated per problem beyond the one the timed run makes: a
/// set-up takes well under a millisecond, so one sample per problem would
/// leave its median at the mercy of a few page faults.
constexpr int kExtraSetups = 4;

/// Extra set-up samples of a scenario run: build_assets + constructor.
void add_setup_samples(Samples& s, const core::SimulationConfig& cfg) {
  SpanLog none(nullptr);
  for (int i = 0; i < kExtraSetups; ++i) {
    s.add("setup_s", timed(none, "", [&] {
      const core::Simulation sim(cfg, core::Simulation::build_assets(cfg));
    }));
  }
}

/// End-to-end samples shared by cascade and anneal: the main multi-rank
/// run and the same scenario at 1 rank.
void add_scenario_samples(Samples& s, const ScenarioRun& rmain, const ScenarioRun& r1,
                          int box, int cycles) {
  const double atoms = 2.0 * box * box * box;
  s.add("setup_s", rmain.setup_s());
  add_setup_samples(s, rmain.cfg);
  s.add("run_s", rmain.run_s);
  s.add("run_1rank_s", r1.run_s);
  s.add("md_atom_steps_per_s",
        atoms * static_cast<double>(rmain.md_steps) / rmain.report.md_seconds);
  s.add("kmc.events_per_s",
        static_cast<double>(rmain.report.kmc_events) / rmain.report.kmc_seconds);
  s.add("kmc.cycles_per_s", cycles / rmain.report.kmc_seconds);
  s.add("jobs_per_h", 3600.0 / rmain.run_s);
  s.add("core.speedup", r1.run_s / rmain.run_s);
}

/// The traced pass of problem j, checked against its untraced run rmain.
void traced_problem(Context& ctx, int j, const std::string& text, const ScenarioRun& rmain,
                    int box, const std::string& where) {
  auto [t, counted] = traced_scenario(ctx, text, j == 0);
  ctx.checks.run(report_errors(t.report, box, where + " (traced)"));
  check_same(ctx.checks, fingerprint(t.report), fingerprint(rmain.report),
             where + " traced vs untraced");
  if (t.failed_epochs != 0) {
    ctx.checks.fail(where + ": failed checkpoint epochs in the traced pass");
  }
  ctx.samples.add("bench.traced_run_s", t.run_s);
  if (j == 0) ctx.samples.set_counted_all(counted);
}

/// MD cascade at kCascadeRanks ranks plus the same cascade at 1 rank.
void cascade(Context& ctx) {
  const Sizes& z = ctx.sizes;
  const int box = z.cascade_box;
  ctx.rank_threads = kCascadeRanks;
  std::uint32_t warm_fp = 0;
  const auto warm = [&] {
    const ScenarioRun w =
        run_scenario(cascade_text(z, sub_seed(ctx.args.seed, 0), kCascadeRanks));
    warm_fp = fingerprint(w.report);
  };
  for_each_problem(ctx, warm, [&](int j) {
    const std::uint64_t seed = sub_seed(ctx.args.seed, j);
    const std::string where = "cascade seed " + std::to_string(seed);
    const std::string text_main = cascade_text(z, seed, kCascadeRanks);

    const ScenarioRun rmain = run_scenario(text_main);
    ctx.checks.run(report_errors(rmain.report, box, where));
    const ScenarioRun r1 = run_scenario(cascade_text(z, seed, 1));
    ctx.checks.run(report_errors(r1.report, box, where + " at 1 rank"));
    add_scenario_samples(ctx.samples, rmain, r1, box, z.cascade_cycles);
    if (j == 0) {
      check_same(ctx.checks, fingerprint(rmain.report), warm_fp, where + " vs warm-up");
      ctx.pool_workers = pool_workers_for(rmain.cfg);
    }
    if (ctx.args.trace) traced_problem(ctx, j, text_main, rmain, box, where);
  });
}

/// Short cascade, long on-demand KMC anneal with checkpoint epochs, then a
/// resume from the epoch directory; plus the same anneal at 1 rank.
void anneal(Context& ctx) {
  const Sizes& z = ctx.sizes;
  const int box = z.anneal_box;
  ctx.rank_threads = kAnnealRanks;
  // Scenario text of problem j with a fresh checkpoint directory `tag`.
  const auto text = [&](int j, int ranks, const std::string& tag) {
    const fs::path d = ctx.tmp / ("anneal_" + tag);
    fs::remove_all(d);
    fs::create_directories(d);
    return anneal_text(z, sub_seed(ctx.args.seed, j), ranks, d.string());
  };
  std::uint32_t warm_fp = 0;
  const auto warm = [&] {
    warm_fp = fingerprint(run_scenario(text(0, kAnnealRanks, "warm")).report);
  };
  for_each_problem(ctx, warm, [&](int j) {
    const std::string where = "anneal seed " + std::to_string(sub_seed(ctx.args.seed, j));
    const std::string text_main = text(j, kAnnealRanks, "main");
    const ScenarioRun rmain = run_scenario(text_main);
    auto errors = report_errors(rmain.report, box, where);
    if (rmain.failed_epochs != 0) errors.push_back(where + ": failed checkpoint epochs");
    ctx.checks.run(errors);

    // Resume from the newest epoch the uninterrupted run committed: the
    // resumed report must equal the uninterrupted one (walls aside).
    const ScenarioRun resumed = run_scenario(text_main, true);
    ctx.checks.attempt();
    if (!resumed.report.resumed ||
        resumed.report.resumed_from_cycle != static_cast<std::uint64_t>(z.anneal_cycles)) {
      ctx.checks.fail(where + ": resume did not restart from the final epoch");
    } else if (report_without_walls(resumed.report) != report_without_walls(rmain.report)) {
      ctx.checks.fail(where + ": resumed report differs from the uninterrupted one");
    }

    const ScenarioRun r1 = run_scenario(text(j, 1, "ranks1"));
    ctx.checks.run(report_errors(r1.report, box, where + " at 1 rank"));
    add_scenario_samples(ctx.samples, rmain, r1, box, z.anneal_cycles);
    ctx.samples.add("io.resume_s", resumed.setup_s() + resumed.run_s);
    if (j == 0) {
      check_same(ctx.checks, fingerprint(rmain.report), warm_fp, where + " vs warm-up");
      ctx.pool_workers = pool_workers_for(rmain.cfg);
    }
    if (ctx.args.trace) traced_problem(ctx, j, text(j, kAnnealRanks, "traced"), rmain, box, where);
  });
}

struct CampaignRun {
  serve::CampaignOutcome outcome;
  double setup_s = 0.0;
  double makespan_s = 0.0;
};

/// Parse the campaign spec and construct its runner: the campaign's
/// set-up. The per-job completion callback records a driver span per job
/// when traced.
std::unique_ptr<serve::CampaignRunner> make_runner(const std::string& text,
                                                   const fs::path& root, SpanLog& spans) {
  serve::CampaignRunner::Options opt;
  opt.root = root.string();
  opt.on_job_complete = [&spans](const serve::JobResult& r) {
    const std::uint64_t now = spans.now_ns();
    const auto dur = static_cast<std::uint64_t>(r.wall_seconds * 1e9);
    spans.add("bench.job." + r.id, now > dur ? now - dur : 0, now);
  };
  return std::make_unique<serve::CampaignRunner>(
      serve::CampaignSpec::parse(util::KeyValueConfig::parse(text)), std::move(opt));
}

CampaignRun run_campaign(const std::string& text, const fs::path& root, SpanLog& spans) {
  CampaignRun c;
  fs::remove_all(root);
  std::unique_ptr<serve::CampaignRunner> runner;
  c.setup_s = timed(spans, "bench.campaign.setup",
                    [&] { runner = make_runner(text, root, spans); });
  c.makespan_s = timed(spans, "bench.campaign.run", [&] { c.outcome = runner->run(); });
  fs::remove_all(root);
  return c;
}

/// Checks of one campaign; returns its fingerprint (CRC over every job's).
std::uint32_t check_campaign(Context& ctx, const CampaignRun& c, const std::string& where) {
  const Sizes& z = ctx.sizes;
  const auto& o = c.outcome;
  const int expected_windows = z.campaign_cycles / (z.sample_window + z.sample_stride);
  if (o.completed != kCampaignJobs || o.failed != 0 || !o.complete) {
    ctx.checks.fail(where + ": " + std::to_string(o.completed) + "/" +
                    std::to_string(kCampaignJobs) + " jobs completed, " +
                    std::to_string(o.failed) + " failed");
  }
  std::ostringstream fp;
  for (const auto& job : o.jobs) {
    const std::string jw = where + " job " + job.id + " [" + job.label + "]";
    std::vector<std::string> e;
    if (!job.error.empty()) e.push_back(jw + ": " + job.error);
    for (auto& x : report_errors(job.report, z.campaign_box, jw)) e.push_back(x);
    const bool scd = job.label.find("sample.mode=scd") != std::string::npos;
    const auto windows = static_cast<int>(job.report.sampled.windows);
    if (windows != (scd ? expected_windows : 0)) {
      e.push_back(jw + ": " + std::to_string(windows) + " sample windows, expected " +
                  std::to_string(scd ? expected_windows : 0));
    }
    ctx.checks.run(e);
    fp << job.id << ':' << job.vacancies_crc << ':' << job.kmc_events << ';';
  }
  return util::crc32(fp.str());
}

/// Eight 1-rank jobs over two lanes sharing one slave-core pool.
void campaign(Context& ctx) {
  const Sizes& z = ctx.sizes;
  const double atoms = 2.0 * z.campaign_box * z.campaign_box * z.campaign_box;
  if (z.campaign_cycles % (z.sample_window + z.sample_stride) != 0) {
    throw std::logic_error("campaign cycles must be a whole number of sample periods");
  }
  ctx.rank_threads = kCampaignLanes;  // one rank thread per lane
  {
    const auto spec = serve::CampaignSpec::parse(
        util::KeyValueConfig::parse(campaign_text(z, ctx.args.seed)));
    if (spec.uses_slave_pool) {
      const sw::SlaveCorePool probe(static_cast<std::size_t>(spec.pool_cores));
      ctx.pool_workers = static_cast<int>(probe.os_threads());
    }
  }
  SpanLog none(nullptr);
  // Warm-up runs problem 0 untimed; its timed run must reproduce it.
  const fs::path root = ctx.tmp / "campaign";
  std::uint32_t warm_fp = 0;
  const auto warm = [&] {
    const CampaignRun w =
        run_campaign(campaign_text(z, sub_seed(ctx.args.seed, 0)), root, none);
    warm_fp = check_campaign(ctx, w, "campaign warm-up");
  };
  for_each_problem(ctx, warm, [&](int j) {
    const std::uint64_t seed = sub_seed(ctx.args.seed, j);
    const std::string where = "campaign seed " + std::to_string(seed);
    const std::string text = campaign_text(z, seed);
    const CampaignRun c = run_campaign(text, root, none);
    const std::uint32_t fp = check_campaign(ctx, c, where);
    if (j == 0) check_same(ctx.checks, fp, warm_fp, where + " vs warm-up");
    const auto& o = c.outcome;
    double job_s = 0.0;
    double md_steps = 0.0;
    double md_s = 0.0;
    double events = 0.0;
    double kmc_s = 0.0;
    std::vector<double> walls;
    for (const auto& job : o.jobs) {
      job_s += job.wall_seconds;
      walls.push_back(job.wall_seconds);
      md_steps += static_cast<double>(job.metrics.counter("md.steps"));
      md_s += job.report.md_seconds;
      events += static_cast<double>(job.report.kmc_events);
      kmc_s += job.report.kmc_seconds;
    }
    Samples& s = ctx.samples;
    s.add("setup_s", c.setup_s);
    for (int i = 0; i < kExtraSetups; ++i) {
      s.add("setup_s", timed(none, "", [&] { make_runner(text, root, none); }));
    }
    s.add("run_s", c.makespan_s);
    s.add("run_1rank_s", job_s);
    s.add("md_atom_steps_per_s", atoms * md_steps / md_s);
    s.add("kmc.events_per_s", events / kmc_s);
    s.add("kmc.cycles_per_s", z.campaign_cycles * static_cast<double>(o.jobs.size()) / kmc_s);
    s.add("jobs_per_h", static_cast<double>(o.completed) * 3600.0 / c.makespan_s);
    s.add("core.speedup", job_s / c.makespan_s);
    s.add("serve.job_p50_s", util::median(walls));
    s.add("serve.job_max_s", *std::max_element(walls.begin(), walls.end()));
    s.add("serve.lane_busy_frac", job_s / (kCampaignLanes * c.makespan_s));
    s.add("sw.pool.contended_epochs", static_cast<double>(o.pool.contended_epochs));
    s.add("sw.pool.utilization", o.pool_utilization);
    s.add("sw.cpe_kernel_s", o.pool.busy_seconds);
    for (const char* stage : {"md_cascade", "kmc", "sampling"}) {
      const auto it = o.fleet.gauge_sum.find(std::string("stage.") + stage + ".seconds");
      s.add(std::string("core.stage.") + stage + "_s",
            it == o.fleet.gauge_sum.end() ? 0.0 : it->second);
    }
    if (j == 0) {
      auto counted = counted_from(o.fleet);
      double windows = 0.0;
      double ci = 0.0;
      int scd_jobs = 0;
      for (const auto& job : o.jobs) {
        if (job.report.sampled.windows == 0) continue;
        windows += static_cast<double>(job.report.sampled.windows);
        ci += job.report.sampled.ci_halfwidth;
        ++scd_jobs;
      }
      counted["sample.windows"] = windows;
      counted["sample.ci_halfwidth"] = scd_jobs > 0 ? ci / scd_jobs : 0.0;
      counted["sw.pool.epochs"] = static_cast<double>(o.pool.epochs);
      counted["serve.assets.hits"] = static_cast<double>(o.assets.hits);
      counted["serve.assets.misses"] = static_cast<double>(o.assets.misses);
      s.set_counted_all(counted);
    }
    if (ctx.args.trace) {
      telemetry::Session::Options so;
      so.comm_events_per_rank = std::size_t{1} << 16;
      telemetry::Session session(kCampaignLanes, so);
      SpanLog spans(&session.tracer());
      const CampaignRun t = run_campaign(text, root, spans);
      check_same(ctx.checks, check_campaign(ctx, t, where + " (traced)"), fp,
                 where + " traced vs untraced");
      s.add("bench.traced_run_s", t.makespan_s);
      if (j == 0) {
        write_artifacts(ctx, session,
                        telemetry::analyze(session.tracer(), session.metrics()),
                        spans.spans());
        s.set_counted("telemetry.dropped",
                      static_cast<double>(session.tracer().total_dropped() +
                                          session.comm_recorder()->total_dropped()));
      }
    }
  });
}

// --- result ---------------------------------------------------------------------------

void write_result(const Context& ctx, const std::string& path) {
  const perf::BenchEnv env = perf::capture_bench_env();
  // CPU time stolen by other guests during the run: multi-rank timings
  // inflate well beyond it, so it tells host noise apart from a regression.
  const CpuTicks end = cpu_ticks();
  const double steal_frac =
      end.total > ctx.start_ticks.total
          ? static_cast<double>(end.steal - ctx.start_ticks.steal) /
                static_cast<double>(end.total - ctx.start_ticks.total)
          : 0.0;
  const Samples& s = ctx.samples;
  std::ostringstream os;
  os << "{\n\"schema\": \"mmd.perfbench\",\n\"schema_version\": 1,\n"
     << "\"workload\": " << json_str(ctx.args.workload)
     << ",\n\"seed\": " << ctx.args.seed << ",\n\"seconds\": " << json_num(ctx.args.seconds)
     << ",\n\"trace\": " << (ctx.args.trace ? 1 : 0)
     << ",\n\"size\": " << json_str(ctx.args.tiny ? "tiny" : "full")
     << ",\n\"problems\": " << ctx.problems
     << ",\n\"attempted\": " << ctx.checks.attempted()
     << ",\n\"failed\": " << ctx.checks.failed() << ",\n\"failures\": [";
  for (std::size_t i = 0; i < ctx.checks.failures().size(); ++i) {
    os << (i ? ", " : "") << json_str(ctx.checks.failures()[i]);
  }
  os << "],\n\"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"hardware_concurrency\": " << env.hardware_threads
     << ", \"rank_threads\": " << ctx.rank_threads
     << ", \"slave_pool_workers\": " << ctx.pool_workers
     << ", \"compiler\": " << json_str(env.compiler)
     << ", \"flags\": " << json_str(env.flags)
     << ", \"build_type\": " << json_str(env.build_type)
     << ", \"git_sha\": " << json_str(env.git_sha)
     << ", \"timestamp_utc\": " << json_str(env.timestamp_utc)
     << ", \"steal_frac\": " << json_num(steal_frac) << "},\n";
  const auto emit = [&](const char* key, const auto& specs) {
    os << json_str(key) << ": [";
    bool first = true;
    for (const MetricSpec& m : specs) {
      os << (first ? "\n" : ",\n") << "  {\"name\": " << json_str(m.name)
         << ", \"value\": " << json_num(s.value(m)) << ", \"unit\": " << json_str(m.unit)
         << ", \"kind\": " << json_str(m.kind == Kind::Counted ? "counted" : "timed")
         << ", \"better\": " << json_str(m.better);
      if (m.moves[0] != '\0') os << ", \"moves\": " << json_str(m.moves);
      if (m.kind == Kind::Timed) os << ", \"samples\": " << s.count(m.name);
      os << "}";
      first = false;
    }
    os << "]";
  };
  emit("end_to_end", kEndToEnd);
  os << ",\n";
  emit("per_layer", kPerLayer);
  os << ",\n\"samples\": {";
  bool first = true;
  for (const auto& [name, xs] : s.all()) {
    os << (first ? "\n" : ",\n") << "  " << json_str(name) << ": [";
    for (std::size_t i = 0; i < xs.size(); ++i) os << (i ? ", " : "") << json_num(xs[i]);
    os << "]";
    first = false;
  }
  os << "},\n\"bench_spans\": [";
  for (std::size_t i = 0; i < ctx.artifact_spans.size(); ++i) {
    const BenchSpan& b = ctx.artifact_spans[i];
    os << (i ? ",\n  " : "\n  ") << "{\"name\": " << json_str(b.name)
       << ", \"t0_ns\": " << b.t0_ns << ", \"t1_ns\": " << b.t1_ns << "}";
  }
  os << "]\n}\n";
  std::ofstream f(path);
  f << os.str();
  if (!f.flush()) throw std::runtime_error("cannot write " + path);
}

int usage() {
  std::fprintf(stderr,
               "usage: mmd_perfbench --workload cascade|anneal|campaign --seed N "
               "--seconds S --trace 0|1 --out DIR [--size full|tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string k = argv[i];
      const std::string v = argv[i + 1];
      if (k == "--workload") {
        args.workload = v;
      } else if (k == "--seed") {
        args.seed = std::stoull(v);
      } else if (k == "--seconds") {
        args.seconds = std::stod(v);
      } else if (k == "--trace") {
        args.trace = v == "1";
      } else if (k == "--out") {
        args.out = v;
      } else if (k == "--size") {
        args.tiny = v == "tiny";
      } else {
        return usage();
      }
    }
    if (argc % 2 == 0) return usage();
  } catch (const std::exception&) {
    return usage();
  }
  const std::map<std::string, void (*)(Context&)> workloads = {
      {"cascade", cascade}, {"anneal", anneal}, {"campaign", campaign}};
  const auto wl = workloads.find(args.workload);
  if (wl == workloads.end()) return usage();

  Context ctx(args);
  try {
    fs::create_directories(ctx.tmp);
    wl->second(ctx);
  } catch (const std::exception& e) {
    ctx.checks.attempt();
    ctx.checks.fail(std::string("threw: ") + e.what());
  }
  fs::remove_all(ctx.tmp);
  const double attempted = std::max(1, ctx.checks.attempted());
  ctx.samples.set_counted("ok_frac", (attempted - ctx.checks.failed()) / attempted);
  ctx.samples.set_counted("core.rank_threads", ctx.rank_threads);
  ctx.samples.set_counted("sw.pool.workers", ctx.pool_workers);
  if (args.trace && ctx.samples.count("bench.traced_run_s") > 0) {
    // Same problems, traced over untraced: the cost of the driver session.
    ctx.samples.add("telemetry.trace_overhead",
                    ctx.samples.value({"bench.traced_run_s", "s", Kind::Timed, "", ""}) /
                        ctx.samples.value({"run_s", "s", Kind::Timed, "", ""}));
  }
  try {
    write_result(ctx, (fs::path(args.out) / "result.json").string());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
