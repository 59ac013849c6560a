#include "perf/trace_replay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <set>
#include <stdexcept>

#include "telemetry/comm_trace.h"
#include "util/json.h"

namespace mmd::perf {

namespace {

// Paper-reported curves. Cores follow each figure's own accounting: MD
// counts master+slave cores (65 per rank), KMC master cores (1 per rank).
constexpr PaperRow kMdStrongRows[] = {{97500, 1.0},    {195000, 1.96},
                                      {390000, 3.8},   {780000, 7.2},
                                      {1560000, 12.8}, {3120000, 19.5},
                                      {6240000, 26.4}};
// The final weak row beyond the paper is the full machine — 40,960 nodes x 4
// core groups — with no reported value to compare against.
constexpr PaperRow kMdWeakRows[] = {
    {104000, 0.801},  {208000, 0.867}, {416000, 0.951},   {832000, 0.907},
    {1664000, 0.884}, {6656000, 0.85}, {10649600, 0.0}};
// Fig. 14's super-linear region: once a master core's site array (1 B/site)
// drops below 8e6 sites it is partly cache-resident and its compute runs
// 1.25x faster (fully L2-resident, <= 2.5e5 sites, would be 1.6x; no paper
// row gets there).
constexpr PaperRow kKmcStrongRows[] = {{1500, 1.0},         {3000, 1.9},
                                       {6000, 4.1, 1.25},   {12000, 8.6, 1.25},
                                       {24000, 13.5, 1.25}, {48000, 18.5, 1.25}};
constexpr PaperRow kKmcWeakRows[] = {{1600, 0.972},  {3200, 0.881},
                                     {12800, 0.861}, {25600, 0.852},
                                     {51200, 0.799}, {102400, 0.74}};
constexpr PaperRow kCoupledWeakRows[] = {
    {97500, 1.0}, {390000, 0.989}, {1560000, 0.774}, {6240000, 0.757}};

// Problem sizes: MD strong 3.2e10 atoms; MD weak 4e12 atoms on 102,400
// ranks; KMC strong 3.2e10 sites; KMC weak 1e7 sites per master core;
// coupled weak 3.3e5 atoms per core group.
constexpr PaperCurve kCurves[] = {
    {.figure = "Fig. 10", .scaling = Scaling::kStrong, .rows = kMdStrongRows,
     .calibration_row = 6, .cores_per_rank = kCoresPerGroup,
     .problem_size = 3.2e10},
    {.figure = "Fig. 11", .scaling = Scaling::kWeak, .rows = kMdWeakRows,
     .calibration_row = 5, .cores_per_rank = kCoresPerGroup,
     .problem_size = 4.0e12 / 102400.0},
    {.figure = "Fig. 14", .scaling = Scaling::kStrong, .rows = kKmcStrongRows,
     .calibration_row = 5, .cores_per_rank = 1, .problem_size = 3.2e10},
    {.figure = "Fig. 15", .scaling = Scaling::kWeak, .rows = kKmcWeakRows,
     .calibration_row = 5, .cores_per_rank = 1, .problem_size = 1.0e7},
    {.figure = "Fig. 16", .scaling = Scaling::kWeak, .rows = kCoupledWeakRows,
     .calibration_row = 3, .cores_per_rank = kCoresPerGroup,
     .problem_size = 3.3e5},
};
static_assert(std::size(kCurves) ==
              static_cast<std::size_t>(Curve::kCoupledWeak) + 1);

/// LogGP segment bounds of the host-cost fit.
constexpr std::uint64_t kLogGpBreakpoints[] = {256, 4096, 65536};

double surface_scale(double target_atoms_per_rank, double trace_atoms_per_rank) {
  if (trace_atoms_per_rank <= 0.0 || target_atoms_per_rank <= 0.0) return 1.0;
  return std::pow(target_atoms_per_rank / trace_atoms_per_rank, 2.0 / 3.0);
}

void write_points(std::ostream& os, const std::vector<ProjectionPoint>& pts,
                  const char* value_key, const char* paper_key) {
  os << "[";
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const ProjectionPoint& p = pts[i];
    if (i > 0) os << ",";
    os << "\n    {\"cores\":" << p.cores << ",\"ranks\":" << p.ranks
       << ",\"nodes\":" << p.nodes << ",\"comm_s\":" << p.comm_s
       << ",\"time_s\":" << p.time_s << ",\"" << value_key << "\":" << p.value
       << ",\"" << paper_key << "\":" << p.paper_value << ",\"bottleneck\":";
    util::json::write_string(os, p.bottleneck);
    os << "}";
  }
  os << "]";
}

}  // namespace

TraceStats summarize_trace(const telemetry::CommTraceData& trace) {
  TraceStats st;
  st.nranks = trace.ranks.size();
  st.steps = std::max<std::uint64_t>(1, trace.meta_u64("steps", 1));
  st.dropped = trace.total_dropped();
  const std::uint64_t atoms = trace.meta_u64("atoms", 0);
  if (st.nranks > 0 && atoms > 0) {
    st.atoms_per_rank =
        static_cast<double>(atoms) / static_cast<double>(st.nranks);
  }

  std::uint64_t sends = 0, p2p_bytes = 0, collectives = 0;
  double comm_s_total = 0.0;
  double peers_total = 0.0;
  for (const auto& rank : trace.ranks) {
    std::set<std::int32_t> peers;
    std::uint64_t first_t0 = UINT64_MAX, last_t1 = 0;
    for (const telemetry::CommEvent& ev : rank.events) {
      ++st.events;
      first_t0 = std::min(first_t0, ev.t0_ns);
      last_t1 = std::max(last_t1, ev.t1_ns);
      const double dur_s =
          static_cast<double>(ev.t1_ns - ev.t0_ns) * 1.0e-9;
      switch (ev.op) {
        case telemetry::CommOp::kSend:
          ++sends;
          p2p_bytes += ev.bytes;
          if (ev.peer >= 0) peers.insert(ev.peer);
          st.send_samples.push_back(MsgSample{ev.bytes, dur_s});
          comm_s_total += dur_s;
          break;
        case telemetry::CommOp::kCollective:
          ++collectives;
          comm_s_total += dur_s;
          break;
        case telemetry::CommOp::kIrecvPost:
          break;  // instantaneous post
        default:
          comm_s_total += dur_s;  // kRecv / kWait / kPut
      }
    }
    peers_total += static_cast<double>(peers.size());
    if (last_t1 > first_t0 && first_t0 != UINT64_MAX) {
      st.wall_s = std::max(
          st.wall_s, static_cast<double>(last_t1 - first_t0) * 1.0e-9);
    }
  }
  if (st.nranks == 0) return st;
  const double rank_steps =
      static_cast<double>(st.nranks) * static_cast<double>(st.steps);
  st.sends_per_rank_step = static_cast<double>(sends) / rank_steps;
  st.bytes_per_rank_step = static_cast<double>(p2p_bytes) / rank_steps;
  st.collectives_per_rank_step = static_cast<double>(collectives) / rank_steps;
  st.peers_per_rank = peers_total / static_cast<double>(st.nranks);
  st.comm_s_per_step =
      comm_s_total / rank_steps;  // mean over ranks, per step
  st.compute_s_per_step = std::max(
      0.0, st.wall_s / static_cast<double>(st.steps) - st.comm_s_per_step);
  return st;
}

std::span<const PaperCurve> paper_curves() { return kCurves; }

const PaperCurve& paper_curve(Curve curve) {
  return kCurves[static_cast<std::size_t>(curve)];
}

RoundPrice price_round(const PlatformConfig& platform, std::uint64_t nranks,
                       const RoundTraffic& traffic, const LogGpModel& host,
                       bool contention) {
  TopologyPlatform topo(platform, nranks);
  const Grid3 g = near_cubic_grid(nranks);
  const int msgs_per_neighbor = static_cast<int>(
      std::clamp(std::llround(traffic.sends / 6.0), 1ll, 8ll));
  const double bytes_per_neighbor = traffic.bytes / 6.0;
  const std::uint64_t msg_bytes = static_cast<std::uint64_t>(
      std::max(1.0, bytes_per_neighbor / static_cast<double>(msgs_per_neighbor)));
  const auto wrap = [](std::uint64_t i, std::uint64_t n, std::int64_t d) {
    return (i + static_cast<std::uint64_t>(static_cast<std::int64_t>(n) + d)) % n;
  };
  for (std::uint64_t iz = 0; iz < g.z; ++iz) {
    for (std::uint64_t iy = 0; iy < g.y; ++iy) {
      for (std::uint64_t ix = 0; ix < g.x; ++ix) {
        const std::uint64_t src = ix + g.x * (iy + g.y * iz);
        const std::uint64_t dsts[6] = {
            wrap(ix, g.x, 1) + g.x * (iy + g.y * iz),
            wrap(ix, g.x, -1) + g.x * (iy + g.y * iz),
            ix + g.x * (wrap(iy, g.y, 1) + g.y * iz),
            ix + g.x * (wrap(iy, g.y, -1) + g.y * iz),
            ix + g.x * (iy + g.y * wrap(iz, g.z, 1)),
            ix + g.x * (iy + g.y * wrap(iz, g.z, -1))};
        for (const std::uint64_t dst : dsts) {
          if (dst == src) continue;  // degenerate periodic dim (size 1..2)
          for (int m = 0; m < msgs_per_neighbor; ++m) {
            topo.add_message(src, dst, msg_bytes, host);
          }
        }
      }
    }
  }
  const TopologyPlatform::RoundCost rc =
      contention ? topo.round_cost() : topo.round_cost_no_contention();
  RoundPrice out;
  out.comm_s = rc.total_s + traffic.collectives * topo.collective_time();
  out.nodes = topo.nnodes();
  out.bottleneck = rc.bottleneck;
  return out;
}

double calibrate_compute(double m_base, double m_end, double target,
                         double speed_base, double speed_end) {
  // C (1/speed_base - target/speed_end) = target*m_end - m_base.
  const double denom = 1.0 / speed_base - target / speed_end;
  if (denom <= 0.0) return 0.0;
  return std::max(0.0, (target * m_end - m_base) / denom);
}

CurveProjection project_curve(const PaperCurve& curve, const TraceStats& profile,
                              const LogGpModel& host,
                              const ProjectionOptions& opt) {
  const bool strong = curve.scaling == Scaling::kStrong;
  const std::uint64_t base_cores = curve.rows[0].cores;
  // The paper subdomain at the first row: weak scaling keeps it; strong
  // scaling divides the fixed problem among the first row's ranks.
  const double base_atoms_per_rank =
      strong ? curve.problem_size /
                   static_cast<double>(base_cores / curve.cores_per_rank)
             : curve.problem_size;
  const double scale = surface_scale(base_atoms_per_rank, profile.atoms_per_rank);

  CurveProjection out;
  out.curve = &curve;
  out.points.resize(curve.rows.size());
  std::vector<double> speed(curve.rows.size());
  for (std::size_t i = 0; i < curve.rows.size(); ++i) {
    const PaperRow& row = curve.rows[i];
    ProjectionPoint& p = out.points[i];
    p.cores = row.cores;
    p.paper_value = row.value;
    p.ranks = row.cores / curve.cores_per_rank;
    // Strong scaling splits the subdomain f ways: per-rank compute shrinks
    // by f (times any cache boost), ghost traffic with the surface f^(-2/3).
    const double f = strong ? static_cast<double>(row.cores) /
                                  static_cast<double>(base_cores)
                            : 1.0;
    speed[i] = f * row.cache_boost;
    RoundTraffic traffic;
    traffic.sends = profile.sends_per_rank_step;
    traffic.bytes =
        profile.bytes_per_rank_step * scale * std::pow(f, -2.0 / 3.0);
    traffic.collectives = profile.collectives_per_rank_step;
    RoundPrice price =
        price_round(opt.platform, p.ranks, traffic, host, opt.contention);
    p.comm_s = price.comm_s;
    p.nodes = price.nodes;
    p.bottleneck = std::move(price.bottleneck);
  }
  const std::size_t cal = curve.calibration_row;
  out.compute_s =
      opt.compute_from_trace
          ? profile.compute_s_per_step * (strong ? scale : 1.0)
          : calibrate_compute(out.points[0].comm_s, out.points[cal].comm_s,
                              curve.rows[cal].value, speed[0], speed[cal]);
  const double base_time = out.compute_s / speed[0] + out.points[0].comm_s;
  for (std::size_t i = 0; i < out.points.size(); ++i) {
    ProjectionPoint& p = out.points[i];
    p.time_s = out.compute_s / speed[i] + p.comm_s;
    p.value = base_time / p.time_s;
  }
  return out;
}

ProjectionResult project_scaling(const telemetry::CommTraceData& trace,
                                 const ProjectionOptions& opt) {
  ProjectionResult result;
  result.options = opt;
  result.stats = summarize_trace(trace);
  TraceStats& st = result.stats;
  if (st.nranks == 0) {
    throw std::runtime_error("trace replay: trace has no ranks");
  }
  if (opt.steps > 0 && opt.steps != st.steps) {
    // Re-normalize the per-step shape to the caller's step count.
    const double f = static_cast<double>(st.steps) /
                     static_cast<double>(opt.steps);
    st.sends_per_rank_step *= f;
    st.bytes_per_rank_step *= f;
    st.collectives_per_rank_step *= f;
    st.comm_s_per_step *= f;
    st.steps = opt.steps;
    st.compute_s_per_step = std::max(
        0.0, st.wall_s / static_cast<double>(st.steps) - st.comm_s_per_step);
  }
  result.host_model = LogGpModel::fit(st.send_samples, kLogGpBreakpoints);
  result.weak = project_curve(paper_curve(Curve::kMdWeak), st,
                              result.host_model, opt);
  result.strong = project_curve(paper_curve(Curve::kMdStrong), st,
                                result.host_model, opt);
  return result;
}

void write_projection_json(std::ostream& os, const ProjectionResult& r) {
  os << "{\"schema\":\"mmd.trace_replay\",\"schema_version\":1,";
  os << "\"trace\":{\"ranks\":" << r.stats.nranks
     << ",\"steps\":" << r.stats.steps << ",\"events\":" << r.stats.events
     << ",\"dropped\":" << r.stats.dropped
     << ",\"atoms_per_rank\":" << r.stats.atoms_per_rank
     << ",\"sends_per_rank_step\":" << r.stats.sends_per_rank_step
     << ",\"bytes_per_rank_step\":" << r.stats.bytes_per_rank_step
     << ",\"collectives_per_rank_step\":" << r.stats.collectives_per_rank_step
     << ",\"peers_per_rank\":" << r.stats.peers_per_rank
     << ",\"wall_s\":" << r.stats.wall_s
     << ",\"comm_s_per_step\":" << r.stats.comm_s_per_step
     << ",\"compute_s_per_step\":" << r.stats.compute_s_per_step << "},";
  os << "\"calibration\":{\"segments\":[";
  const auto& segs = r.host_model.segments();
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"max_bytes\":";
    if (segs[i].max_bytes == UINT64_MAX) {
      os << "null";
    } else {
      os << segs[i].max_bytes;
    }
    os << ",\"overhead_s\":" << segs[i].overhead_s
       << ",\"per_byte_s\":" << segs[i].per_byte_s << "}";
  }
  os << "],\"samples\":" << r.stats.send_samples.size() << "},";
  const PlatformConfig& pc = r.options.platform;
  os << "\"platform\":{\"name\":";
  util::json::write_string(os, pc.name);
  os << ",\"ranks_per_node\":" << pc.ranks_per_node
     << ",\"nodes_per_supernode\":" << pc.nodes_per_supernode
     << ",\"uplinks_per_supernode\":" << pc.uplinks_per_supernode
     << ",\"intra_node_bps\":" << pc.intra_node.bandwidth_bps
     << ",\"node_link_bps\":" << pc.node_link.bandwidth_bps
     << ",\"uplink_bps\":" << pc.uplink.bandwidth_bps
     << ",\"contention\":" << (r.options.contention ? "true" : "false") << "},";
  const auto target = [](const CurveProjection& c) {
    return c.curve->rows[c.curve->calibration_row].value;
  };
  os << "\"weak\":{\"target_efficiency\":" << target(r.weak)
     << ",\"compute_s\":" << r.weak.compute_s << ",\"points\":";
  write_points(os, r.weak.points, "efficiency", "paper_efficiency");
  os << "},";
  os << "\"strong\":{\"target_speedup\":" << target(r.strong)
     << ",\"compute_s\":" << r.strong.compute_s << ",\"points\":";
  write_points(os, r.strong.points, "speedup", "paper_speedup");
  os << "}}\n";
}

bool write_projection_json_file(const std::string& path,
                                const ProjectionResult& result) {
  std::ofstream os(path);
  if (!os) return false;
  write_projection_json(os, result);
  return static_cast<bool>(os);
}

void print_projection(std::ostream& os, const ProjectionResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "Trace: %llu ranks, %llu steps, %llu events (%llu dropped)\n",
                static_cast<unsigned long long>(r.stats.nranks),
                static_cast<unsigned long long>(r.stats.steps),
                static_cast<unsigned long long>(r.stats.events),
                static_cast<unsigned long long>(r.stats.dropped));
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "  %.1f sends/rank-step, %.0f B/rank-step, %.2f peers/rank, "
                "%.2f collectives/rank-step\n",
                r.stats.sends_per_rank_step, r.stats.bytes_per_rank_step,
                r.stats.peers_per_rank, r.stats.collectives_per_rank_step);
  os << buf;
  os << "LogGP host model (calibrated from "
     << r.stats.send_samples.size() << " send samples):\n";
  for (const auto& s : r.host_model.segments()) {
    if (s.max_bytes == UINT64_MAX) {
      std::snprintf(buf, sizeof(buf), "  <= inf B");
    } else {
      std::snprintf(buf, sizeof(buf), "  <= %llu B",
                    static_cast<unsigned long long>(s.max_bytes));
    }
    os << buf;
    std::snprintf(buf, sizeof(buf), ": o = %.3f us, G = %.4f ns/B\n",
                  s.overhead_s * 1e6, s.per_byte_s * 1e9);
    os << buf;
  }
  os << "\nWeak scaling (" << r.options.platform.name
     << (r.options.contention ? ", link contention on" : ", contention off")
     << "), compute " << r.weak.compute_s << " s/step:\n";
  print_curve(os, r.weak);
  os << "\nStrong scaling, base compute " << r.strong.compute_s
     << " s/step:\n";
  print_curve(os, r.strong);
}

void print_curve(std::ostream& os, const CurveProjection& c) {
  const bool weak = c.curve->scaling == Scaling::kWeak;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %10s %9s %7s %12s %*s %7s  %s\n", "cores",
                "ranks", "nodes", "comm [ms]", weak ? 11 : 9,
                weak ? "efficiency" : "speedup", "paper", "bottleneck");
  os << buf;
  for (const ProjectionPoint& p : c.points) {
    if (weak) {
      std::snprintf(buf, sizeof(buf),
                    "  %10llu %9llu %7llu %12.3f %10.1f%% %6.1f%%  %s\n",
                    static_cast<unsigned long long>(p.cores),
                    static_cast<unsigned long long>(p.ranks),
                    static_cast<unsigned long long>(p.nodes), p.comm_s * 1e3,
                    100.0 * p.value, 100.0 * p.paper_value,
                    p.bottleneck.c_str());
    } else {
      std::snprintf(buf, sizeof(buf),
                    "  %10llu %9llu %7llu %12.3f %8.2fx %6.2fx  %s\n",
                    static_cast<unsigned long long>(p.cores),
                    static_cast<unsigned long long>(p.ranks),
                    static_cast<unsigned long long>(p.nodes), p.comm_s * 1e3,
                    p.value, p.paper_value, p.bottleneck.c_str());
    }
    os << buf;
  }
}

}  // namespace mmd::perf
