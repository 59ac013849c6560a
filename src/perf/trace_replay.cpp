#include "perf/trace_replay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <set>
#include <stdexcept>

#include "perf/scaling_model.h"
#include "telemetry/comm_trace.h"
#include "util/json.h"

namespace mmd::perf {

namespace {

/// Paper-reported curves (Fig. 12/13 as reproduced by bench/fig11_md_weak and
/// bench/fig10_md_strong): cores are the paper's master+slave accounting
/// (65 per rank). The final weak row beyond the paper is the full machine —
/// 40,960 nodes x 4 core groups — with no reported value to compare against.
struct PaperRow {
  std::uint64_t cores;
  double value;
};

constexpr PaperRow kWeakRows[] = {
    {104000, 0.801},  {208000, 0.867}, {416000, 0.951},   {832000, 0.907},
    {1664000, 0.884}, {6656000, 0.85}, {10649600, 0.0}};
constexpr std::size_t kWeakPaperEnd = 5;  ///< index of the calibration target

constexpr PaperRow kStrongRows[] = {{97500, 1.0},    {195000, 1.96},
                                    {390000, 3.8},   {780000, 7.2},
                                    {1560000, 12.8}, {3120000, 19.5},
                                    {6240000, 26.4}};

/// Paper problem sizes the traffic is rescaled to (surface ~ atoms^(2/3)):
/// weak runs hold ~3.9e7 atoms per rank (4e12 atoms on 102,400 ranks);
/// strong runs divide 3.2e10 atoms among the ranks of each row.
constexpr double kWeakAtomsPerRank = 4.0e12 / 102400.0;
constexpr double kStrongAtomsTotal = 3.2e10;

double surface_scale(double target_atoms_per_rank, double trace_atoms_per_rank) {
  if (trace_atoms_per_rank <= 0.0 || target_atoms_per_rank <= 0.0) return 1.0;
  return std::pow(target_atoms_per_rank / trace_atoms_per_rank, 2.0 / 3.0);
}

/// Model one communication round at `nranks`: every rank sends its six face
/// messages on a near-cubic 3D grid with linear rank→node placement, so x
/// neighbors are mostly intra-node while y/z neighbors cross node and (at
/// scale) supernode boundaries — the traffic pattern of the paper's 3D
/// domain decomposition on TaihuLight.
struct RoundShape {
  double bytes_per_neighbor = 0.0;
  int msgs_per_neighbor = 1;
  double collectives_per_step = 0.0;
};

struct RoundResult {
  double comm_s = 0.0;
  std::string bottleneck;
};

RoundResult model_round(const PlatformConfig& platform, std::uint64_t nranks,
                        const RoundShape& shape, const LogGpModel& host,
                        bool contention) {
  TopologyPlatform topo(platform, nranks);
  const Grid3 g = near_cubic_grid(nranks);
  const std::uint64_t msg_bytes = static_cast<std::uint64_t>(
      std::max(1.0, shape.bytes_per_neighbor /
                        static_cast<double>(shape.msgs_per_neighbor)));
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
          for (int m = 0; m < shape.msgs_per_neighbor; ++m) {
            topo.add_message(src, dst, msg_bytes, host);
          }
        }
      }
    }
  }
  const TopologyPlatform::RoundCost rc =
      contention ? topo.round_cost() : topo.round_cost_no_contention();
  RoundResult out;
  out.comm_s = rc.total_s +
               shape.collectives_per_step * topo.collective_time();
  out.bottleneck = rc.bottleneck;
  return out;
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
  result.host_model = LogGpModel::fit(st.send_samples, opt.breakpoints);

  const int msgs_per_neighbor = static_cast<int>(std::clamp(
      std::llround(st.sends_per_rank_step / 6.0), 1ll, 8ll));

  // --- weak scaling: per-rank subdomain fixed at the paper's atom load ---
  const double weak_scale = surface_scale(kWeakAtomsPerRank, st.atoms_per_rank);
  std::vector<double> weak_m(std::size(kWeakRows));
  result.weak.resize(std::size(kWeakRows));
  for (std::size_t i = 0; i < std::size(kWeakRows); ++i) {
    ProjectionPoint& p = result.weak[i];
    p.cores = kWeakRows[i].cores;
    p.paper_value = kWeakRows[i].value;
    p.ranks = ranks_from_cores(p.cores);
    RoundShape shape;
    shape.bytes_per_neighbor = st.bytes_per_rank_step * weak_scale / 6.0;
    shape.msgs_per_neighbor = msgs_per_neighbor;
    shape.collectives_per_step = st.collectives_per_rank_step;
    const RoundResult rr = model_round(opt.platform, p.ranks, shape,
                                       result.host_model, opt.contention);
    weak_m[i] = rr.comm_s;
    p.comm_s = rr.comm_s;
    p.bottleneck = rr.bottleneck;
    p.nodes = TopologyPlatform(opt.platform, p.ranks).nnodes();
  }
  result.weak_compute_s =
      opt.compute_from_trace
          ? st.compute_s_per_step
          : ScalingModel::calibrate_weak_compute(
                weak_m[0], weak_m[kWeakPaperEnd], opt.weak_target_eff);
  for (std::size_t i = 0; i < result.weak.size(); ++i) {
    ProjectionPoint& p = result.weak[i];
    p.time_s = result.weak_compute_s + weak_m[i];
    p.value = (result.weak_compute_s + weak_m[0]) / p.time_s;
  }

  // --- strong scaling: global problem fixed, subdomains shrink ---
  const std::uint64_t strong_base_ranks = ranks_from_cores(kStrongRows[0].cores);
  const double strong_base_apr =
      kStrongAtomsTotal / static_cast<double>(strong_base_ranks);
  const double strong_scale = surface_scale(strong_base_apr, st.atoms_per_rank);
  std::vector<double> strong_m(std::size(kStrongRows));
  std::vector<double> strong_f(std::size(kStrongRows));
  result.strong.resize(std::size(kStrongRows));
  for (std::size_t i = 0; i < std::size(kStrongRows); ++i) {
    ProjectionPoint& p = result.strong[i];
    p.cores = kStrongRows[i].cores;
    p.paper_value = kStrongRows[i].value;
    p.ranks = ranks_from_cores(p.cores);
    const double f = static_cast<double>(p.cores) /
                     static_cast<double>(kStrongRows[0].cores);
    strong_f[i] = f;
    RoundShape shape;
    shape.bytes_per_neighbor = st.bytes_per_rank_step * strong_scale *
                               std::pow(f, -2.0 / 3.0) / 6.0;
    shape.msgs_per_neighbor = msgs_per_neighbor;
    shape.collectives_per_step = st.collectives_per_rank_step;
    const RoundResult rr = model_round(opt.platform, p.ranks, shape,
                                       result.host_model, opt.contention);
    strong_m[i] = rr.comm_s;
    p.comm_s = rr.comm_s;
    p.bottleneck = rr.bottleneck;
    p.nodes = TopologyPlatform(opt.platform, p.ranks).nnodes();
  }
  const std::size_t last = std::size(kStrongRows) - 1;
  result.strong_compute_s =
      opt.compute_from_trace
          ? st.compute_s_per_step * strong_scale
          : ScalingModel::calibrate_strong_compute(
                strong_m[0], strong_m[last], strong_f[last],
                opt.strong_target_speedup);
  for (std::size_t i = 0; i < result.strong.size(); ++i) {
    ProjectionPoint& p = result.strong[i];
    p.time_s = result.strong_compute_s / strong_f[i] + strong_m[i];
    p.value = (result.strong_compute_s + strong_m[0]) / p.time_s;
  }
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
  os << "\"weak\":{\"target_efficiency\":" << r.options.weak_target_eff
     << ",\"compute_s\":" << r.weak_compute_s << ",\"points\":";
  write_points(os, r.weak, "efficiency", "paper_efficiency");
  os << "},";
  os << "\"strong\":{\"target_speedup\":" << r.options.strong_target_speedup
     << ",\"compute_s\":" << r.strong_compute_s << ",\"points\":";
  write_points(os, r.strong, "speedup", "paper_speedup");
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
     << "), compute " << r.weak_compute_s << " s/step:\n";
  std::snprintf(buf, sizeof(buf), "  %10s %9s %7s %12s %11s %7s  %s\n", "cores",
                "ranks", "nodes", "comm [ms]", "efficiency", "paper",
                "bottleneck");
  os << buf;
  for (const ProjectionPoint& p : r.weak) {
    std::snprintf(buf, sizeof(buf),
                  "  %10llu %9llu %7llu %12.3f %10.1f%% %6.1f%%  %s\n",
                  static_cast<unsigned long long>(p.cores),
                  static_cast<unsigned long long>(p.ranks),
                  static_cast<unsigned long long>(p.nodes), p.comm_s * 1e3,
                  100.0 * p.value, 100.0 * p.paper_value,
                  p.bottleneck.c_str());
    os << buf;
  }
  os << "\nStrong scaling, base compute " << r.strong_compute_s
     << " s/step:\n";
  std::snprintf(buf, sizeof(buf), "  %10s %9s %7s %12s %9s %7s  %s\n", "cores",
                "ranks", "nodes", "comm [ms]", "speedup", "paper",
                "bottleneck");
  os << buf;
  for (const ProjectionPoint& p : r.strong) {
    std::snprintf(buf, sizeof(buf),
                  "  %10llu %9llu %7llu %12.3f %8.2fx %6.2fx  %s\n",
                  static_cast<unsigned long long>(p.cores),
                  static_cast<unsigned long long>(p.ranks),
                  static_cast<unsigned long long>(p.nodes), p.comm_s * 1e3,
                  p.value, p.paper_value, p.bottleneck.c_str());
    os << buf;
  }
}

}  // namespace mmd::perf
