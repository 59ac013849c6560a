#include "telemetry/analysis.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <set>

#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "util/json.h"

namespace mmd::telemetry {

namespace {

constexpr double kNsToS = 1e-9;

struct PhaseAccum {
  std::map<int, double> per_rank_total_s;
  std::uint64_t spans = 0;
  util::QuantileStats span_s;
  std::uint64_t dma_ops = 0;
  std::uint64_t dma_bytes = 0;
};

std::vector<PhaseStats> finalize_phases(std::map<std::string, PhaseAccum>& accum,
                                        int attached_ranks) {
  std::vector<PhaseStats> out;
  out.reserve(accum.size());
  for (auto& [name, a] : accum) {
    PhaseStats p;
    p.name = name;
    p.ranks = static_cast<int>(a.per_rank_total_s.size());
    p.spans = a.spans;
    p.span_s = a.span_s;
    p.dma_ops = a.dma_ops;
    p.dma_bytes = a.dma_bytes;
    double sum = 0.0;
    bool first = true;
    for (const auto& [rank, total] : a.per_rank_total_s) {
      sum += total;
      if (total > p.total_max_s) {
        p.total_max_s = total;
        p.critical_rank = rank;
      }
      if (first || total < p.total_min_s) p.total_min_s = total;
      first = false;
    }
    // Mean over every attached rank: a rank that never entered the phase
    // contributes zero, which is exactly the imbalance the critical path
    // pays for.
    const int denom = std::max(attached_ranks, p.ranks);
    p.total_mean_s = denom > 0 ? sum / denom : 0.0;
    p.imbalance = p.total_mean_s > 0.0 ? p.total_max_s / p.total_mean_s : 1.0;
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(), [](const PhaseStats& a, const PhaseStats& b) {
    return a.total_max_s > b.total_max_s;
  });
  return out;
}

void write_phase_json(std::ostream& os, const PhaseStats& p) {
  os << "{\"name\":";
  util::json::write_string(os, p.name);
  os << ",\"ranks\":" << p.ranks << ",\"spans\":" << p.spans
     << ",\"critical_path_s\":" << p.total_max_s
     << ",\"critical_rank\":" << p.critical_rank
     << ",\"mean_s\":" << p.total_mean_s << ",\"min_s\":" << p.total_min_s
     << ",\"imbalance\":" << p.imbalance << ",\"span_p50_s\":" << p.span_s.p50()
     << ",\"span_p95_s\":" << p.span_s.p95()
     << ",\"span_p99_s\":" << p.span_s.p99()
     << ",\"span_max_s\":" << p.span_s.max() << ",\"dma_ops\":" << p.dma_ops
     << ",\"dma_bytes\":" << p.dma_bytes << "}";
}

}  // namespace

PerfReport analyze(const Tracer& tracer, const MetricsRegistry& metrics,
                   const AnalysisOptions& opt) {
  PerfReport report;
  report.nranks = tracer.nranks();
  report.dropped_spans = tracer.total_dropped();

  std::map<std::string, PhaseAccum> master_accum;
  std::map<std::string, PhaseAccum> cpe_accum;
  std::set<int> master_ranks;
  std::set<int> cpe_ranks;
  std::uint64_t wall_t0 = 0, wall_t1 = 0;
  bool any_master_span = false;

  for (int i = 0; i < tracer.num_tracks(); ++i) {
    const Tracer::Track* t = tracer.track(i);
    if (t == nullptr || t->recorded == 0) continue;
    const bool master = t->lane == Tracer::kMasterLane;
    auto& accum = master ? master_accum : cpe_accum;
    (master ? master_ranks : cpe_ranks).insert(t->rank);
    for (std::size_t e = 0; e < t->live(); ++e) {
      const TraceEvent& ev = t->ring[e];
      const double dur_s =
          static_cast<double>(ev.t1_ns - ev.t0_ns) * kNsToS;
      PhaseAccum& a = accum[ev.name != nullptr ? ev.name : "?"];
      a.per_rank_total_s[t->rank] += dur_s;
      a.spans += 1;
      a.span_s.add(dur_s);
      a.dma_ops += ev.dma_ops;
      a.dma_bytes += ev.dma_bytes;
      if (master) {
        if (!any_master_span || ev.t0_ns < wall_t0) wall_t0 = ev.t0_ns;
        if (!any_master_span || ev.t1_ns > wall_t1) wall_t1 = ev.t1_ns;
        any_master_span = true;
      } else {
        report.cpe_busy_s += dur_s;
        report.dma_modeled_s += opt.dma_cost.cost(ev.dma_ops, ev.dma_bytes);
      }
    }
  }
  if (any_master_span) {
    report.wall_s = static_cast<double>(wall_t1 - wall_t0) * kNsToS;
  }
  report.phases =
      finalize_phases(master_accum, static_cast<int>(master_ranks.size()));
  report.cpe_phases =
      finalize_phases(cpe_accum, static_cast<int>(cpe_ranks.size()));
  report.overlap_ratio =
      report.cpe_busy_s > 0.0 ? report.dma_modeled_s / report.cpe_busy_s : 0.0;

  // Per-rank gauge spread from the registry (e.g. md.compute_seconds): which
  // rank carries the stage, and by how much.
  std::map<std::string, GaugeSpread> gauges;
  std::map<std::string, int> gauge_ranks;
  for (int r = 0; r < metrics.nranks(); ++r) {
    for (const auto& [name, v] : metrics.rank(r).gauges) {
      GaugeSpread& g = gauges[name];
      g.name = name;
      if (gauge_ranks[name] == 0 || v > g.max) {
        g.max = v;
        g.max_rank = r;
      }
      g.mean += v;
      gauge_ranks[name] += 1;
    }
  }
  for (auto& [name, g] : gauges) {
    const int n = gauge_ranks[name];
    if (n > 0) g.mean /= n;
    g.imbalance = g.mean > 0.0 ? g.max / g.mean : 1.0;
    report.gauges.push_back(g);
  }
  return report;
}

std::vector<const PhaseStats*> top_hotspots(const PerfReport& report,
                                            std::size_t n) {
  std::vector<const PhaseStats*> out;
  for (const PhaseStats& p : report.phases) {
    if (out.size() >= n) break;
    out.push_back(&p);
  }
  return out;
}

void write_perf_report_text(std::ostream& os, const PerfReport& report) {
  char line[320];
  std::snprintf(line, sizeof(line),
                "perf report: %d ranks, wall %.3f s, %zu dropped spans\n",
                report.nranks, report.wall_s, report.dropped_spans);
  os << line;

  const auto phase_table = [&](const char* title,
                               const std::vector<PhaseStats>& phases) {
    if (phases.empty()) return;
    std::snprintf(line, sizeof(line),
                  "\n%s\n  %-20s %10s %6s %8s %7s %8s %10s %10s %10s\n", title,
                  "phase", "crit [ms]", "@rank", "mean[ms]", "imbal", "spans",
                  "p50 [us]", "p95 [us]", "p99 [us]");
    os << line;
    for (const PhaseStats& p : phases) {
      std::snprintf(line, sizeof(line),
                    "  %-20s %10.3f %6d %8.3f %6.2fx %8llu %10.1f %10.1f %10.1f\n",
                    p.name.c_str(), 1e3 * p.total_max_s, p.critical_rank,
                    1e3 * p.total_mean_s, p.imbalance,
                    static_cast<unsigned long long>(p.spans),
                    1e6 * p.span_s.p50(), 1e6 * p.span_s.p95(),
                    1e6 * p.span_s.p99());
      os << line;
    }
  };
  phase_table("Per-phase critical path (master lanes, max over ranks):",
              report.phases);

  const auto hotspots = top_hotspots(report, 3);
  if (!hotspots.empty()) {
    os << "\nTop hotspots (critical path):";
    for (std::size_t i = 0; i < hotspots.size(); ++i) {
      std::snprintf(line, sizeof(line), "%s %s (%.3f ms)", i == 0 ? "" : ",",
                    hotspots[i]->name.c_str(), 1e3 * hotspots[i]->total_max_s);
      os << line;
    }
    os << "\n";
  }

  phase_table("CPE lanes:", report.cpe_phases);
  if (report.cpe_busy_s > 0.0) {
    std::snprintf(line, sizeof(line),
                  "  CPE busy %.3f s, modeled DMA %.3f s, overlap ratio %.3f "
                  "(%s)\n",
                  report.cpe_busy_s, report.dma_modeled_s, report.overlap_ratio,
                  report.overlap_ratio < 1.0 ? "DMA can hide under compute"
                                             : "DMA-bound");
    os << line;
  }

  if (!report.gauges.empty()) {
    std::snprintf(line, sizeof(line), "\nGauge spread over ranks:\n  %-28s %12s %6s %12s %7s\n",
                  "gauge", "max", "@rank", "mean", "imbal");
    os << line;
    for (const GaugeSpread& g : report.gauges) {
      std::snprintf(line, sizeof(line), "  %-28s %12.4g %6d %12.4g %6.2fx\n",
                    g.name.c_str(), g.max, g.max_rank, g.mean, g.imbalance);
      os << line;
    }
  }
}

void write_perf_report_json(std::ostream& os, const PerfReport& report) {
  os << "{\"schema\":\"mmd.perf_report\",\"schema_version\":"
     << PerfReport::kSchemaVersion << ",\"nranks\":" << report.nranks
     << ",\"wall_s\":" << report.wall_s
     << ",\"dropped_spans\":" << report.dropped_spans << ",\n\"phases\":[";
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    write_phase_json(os, report.phases[i]);
  }
  os << "\n],\"cpe\":{\"busy_s\":" << report.cpe_busy_s
     << ",\"dma_modeled_s\":" << report.dma_modeled_s
     << ",\"overlap_ratio\":" << report.overlap_ratio << ",\"phases\":[";
  for (std::size_t i = 0; i < report.cpe_phases.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    write_phase_json(os, report.cpe_phases[i]);
  }
  os << "\n]},\"gauges\":[";
  for (std::size_t i = 0; i < report.gauges.size(); ++i) {
    const GaugeSpread& g = report.gauges[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":";
    util::json::write_string(os, g.name);
    os << ",\"max\":" << g.max << ",\"max_rank\":" << g.max_rank
       << ",\"mean\":" << g.mean << ",\"imbalance\":" << g.imbalance << "}";
  }
  os << "\n]}\n";
}

bool write_perf_report_json_file(const std::string& path,
                                 const PerfReport& report) {
  std::ofstream os(path);
  if (!os) return false;
  write_perf_report_json(os, report);
  os.flush();
  return static_cast<bool>(os);
}

}  // namespace mmd::telemetry
