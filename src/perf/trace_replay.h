#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "perf/platform.h"

namespace mmd::telemetry {
struct CommTraceData;
}  // namespace mmd::telemetry

namespace mmd::perf {

/// Per-rank-per-step traffic profile: the quantities a scaling projection
/// prices on the platform model. Distilled from a recorded comm trace by
/// summarize_trace; the fig benches fill the traffic, atom and compute fields
/// from the counters of their live runs.
struct TraceStats {
  std::uint64_t nranks = 0;
  std::uint64_t steps = 1;          ///< from trace meta ("steps"), min 1
  std::uint64_t events = 0;         ///< stored events
  std::uint64_t dropped = 0;
  double atoms_per_rank = 0.0;      ///< from meta ("atoms"), 0 if absent
  double sends_per_rank_step = 0.0;
  double bytes_per_rank_step = 0.0;       ///< p2p payload bytes
  double collectives_per_rank_step = 0.0;
  double peers_per_rank = 0.0;      ///< mean distinct kSend destinations
  double wall_s = 0.0;              ///< max rank span (last t1 - first t0)
  double comm_s_per_step = 0.0;     ///< mean recorded op time per rank-step
  double compute_s_per_step = 0.0;  ///< (wall - comm) / steps, floored at 0
  std::vector<MsgSample> send_samples;  ///< (bytes, duration) of kSend events
};

TraceStats summarize_trace(const telemetry::CommTraceData& trace);

enum class Scaling { kWeak, kStrong };

/// One row of a paper scaling curve.
struct PaperRow {
  std::uint64_t cores = 0;  ///< in the curve's core accounting
  double value = 0.0;  ///< weak: efficiency; strong: speedup; 0 = beyond paper
  /// Per-rank compute speed-up once the subdomain fits in cache (Fig. 14's
  /// super-linear L2 band); 1 everywhere else.
  double cache_boost = 1.0;
};

/// One of the paper's scaling figures: its rows and reported values, the row
/// whose value calibrates the compute scalar, and the paper problem the
/// profile's traffic is rescaled to.
struct PaperCurve {
  std::string_view figure;  ///< "Fig. 11"
  Scaling scaling = Scaling::kWeak;
  std::span<const PaperRow> rows;
  std::size_t calibration_row = 0;
  /// kCoresPerGroup for MD (master+slave cores per rank); 1 for KMC, which
  /// the paper counts in master cores.
  std::uint64_t cores_per_rank = 1;
  /// Weak: atoms (KMC: sites) per rank. Strong: total atoms (sites).
  double problem_size = 0.0;
};

enum class Curve { kMdStrong, kMdWeak, kKmcStrong, kKmcWeak, kCoupledWeak };

/// The paper's scaling curves (Figs. 10, 11, 14, 15, 16), indexed by Curve.
std::span<const PaperCurve> paper_curves();
const PaperCurve& paper_curve(Curve curve);

/// Per-rank traffic of one step (or KMC cycle), priced as one round.
struct RoundTraffic {
  double sends = 0.0;        ///< point-to-point messages
  double bytes = 0.0;        ///< payload bytes
  double collectives = 0.0;  ///< allreduces, barriers and fences
};

struct RoundPrice {
  double comm_s = 0.0;
  std::uint64_t nodes = 0;
  std::string bottleneck;  ///< dominant link class
};

/// Lay one communication round onto the platform at `nranks`: every rank
/// sends its traffic to its six face neighbors on a near-cubic 3D rank grid
/// with linear rank->node placement, so x neighbors are mostly intra-node
/// while y/z neighbors cross node and (at scale) supernode boundaries. The
/// round is priced with shared links (`contention`) or private ones, plus
/// `collectives` hierarchical tree collectives.
RoundPrice price_round(const PlatformConfig& platform, std::uint64_t nranks,
                       const RoundTraffic& traffic, const LogGpModel& host,
                       bool contention);

/// The endpoint calibration: the one quantity a simulated substrate cannot
/// measure is the real machine's per-rank compute time C. Solve
///   target = (C/speed_base + m_base) / (C/speed_end + m_end)
/// for C, where m is the modeled comm time and speed the per-rank compute
/// speed-up at the base and calibration rows (weak scaling: 1 and 1; strong:
/// the cache boost, and the rank ratio times the cache boost). Returns C [s];
/// 0 when no C >= 0 reaches the target.
double calibrate_compute(double m_base, double m_end, double target,
                         double speed_base = 1.0, double speed_end = 1.0);

/// One projected point of a scaling curve.
struct ProjectionPoint {
  std::uint64_t cores = 0;
  std::uint64_t ranks = 0;
  std::uint64_t nodes = 0;
  double comm_s = 0.0;       ///< modeled per-step communication time
  double time_s = 0.0;       ///< compute + comm per step
  double value = 0.0;        ///< weak: efficiency; strong: speedup
  double paper_value = 0.0;  ///< the paper's reported number; 0 = beyond paper
  std::string bottleneck;    ///< dominant link class at this point
};

struct ProjectionOptions {
  PlatformConfig platform = PlatformConfig::taihulight();
  bool contention = true;
  /// Override the trace's step count (0: use meta).
  std::uint64_t steps = 0;
  /// Use the profile's own compute time instead of calibrating against the
  /// paper's reported value at the curve's calibration row.
  bool compute_from_trace = false;
};

struct CurveProjection {
  const PaperCurve* curve = nullptr;
  /// Per-rank compute per step at the first row: calibrated, or taken from
  /// the profile. 0 when the calibration target cannot be reached.
  double compute_s = 0.0;
  std::vector<ProjectionPoint> points;
};

/// Project a per-rank-step profile over one paper curve: rescale its traffic
/// to the paper's subdomain (surface ~ atoms^(2/3); strong scaling shrinks it
/// further by f^(-2/3) at f times the first row's cores), price every row
/// with price_round, then solve the compute scalar so the calibration row
/// hits the paper's value. Every other row is the model's prediction.
CurveProjection project_curve(const PaperCurve& curve, const TraceStats& profile,
                              const LogGpModel& host,
                              const ProjectionOptions& opt);

struct ProjectionResult {
  TraceStats stats;
  LogGpModel host_model;      ///< calibrated from the trace's send samples
  ProjectionOptions options;
  CurveProjection weak;    ///< paper Fig. 11 rows + full machine
  CurveProjection strong;  ///< paper Fig. 10 rows
};

/// Replay `trace` through the platform model: summarize it, fit the LogGP
/// host cost from its send samples, and project the MD weak (Fig. 11) and
/// strong (Fig. 10) curves. Throws std::runtime_error on an unusable trace
/// (no ranks).
ProjectionResult project_scaling(const telemetry::CommTraceData& trace,
                                 const ProjectionOptions& opt);

/// Projection JSON, schema "mmd.trace_replay" version 1 (validated by the CI
/// trace-replay smoke job; layout documented in docs/OBSERVABILITY.md).
void write_projection_json(std::ostream& os, const ProjectionResult& result);
bool write_projection_json_file(const std::string& path,
                                const ProjectionResult& result);

/// Human-readable curve tables (the mmd_trace_replay CLI's stdout).
void print_projection(std::ostream& os, const ProjectionResult& result);

/// One curve's column header and rows, as print_projection lays them out.
void print_curve(std::ostream& os, const CurveProjection& projection);

}  // namespace mmd::perf
