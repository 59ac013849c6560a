#pragma once

// Post-run analysis over the Tracer's spans and the MetricsRegistry: the
// quantities the paper's evaluation is judged by — per-phase critical path
// (max over ranks), load-imbalance factor (max/mean), top-N hotspots, tail
// latencies (P² p50/p95/p99 per span name), and the DMA-vs-compute overlap
// ratio on the CPE lanes. Surfaced by `mmd_run --perf-report` as human text
// and as a versioned JSON document (schema in docs/OBSERVABILITY.md).
//
// Read-side only: call after the rank/CPE writer threads have joined (same
// contract as the exporters).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sunway/dma.h"
#include "util/stats.h"

namespace mmd::telemetry {

class MetricsRegistry;
class Tracer;

struct AnalysisOptions {
  /// Modeled DMA cost for the overlap ratio.
  sw::DmaCostModel dma_cost{};
};

/// Aggregated view of one span name ("phase") across all ranks of one lane
/// class (master or CPE).
struct PhaseStats {
  std::string name;
  int ranks = 0;            ///< ranks on which the phase was recorded
  std::uint64_t spans = 0;  ///< spans across those ranks

  // Per-rank totals (sum of span durations within the rank):
  double total_max_s = 0.0;   ///< critical path: the slowest rank's total
  double total_mean_s = 0.0;  ///< mean over all attached ranks (absent = 0)
  double total_min_s = 0.0;   ///< over ranks where the phase is present
  int critical_rank = -1;
  /// Load-imbalance factor max/mean; 1.0 = perfectly balanced, and the
  /// paper's scaling losses show up as this drifting above ~1.1.
  double imbalance = 1.0;

  /// Per-span durations in seconds, pooled over ranks (tails via P²).
  util::QuantileStats span_s;

  // DMA traffic attached to the spans (CPE lanes; zero on master phases).
  std::uint64_t dma_ops = 0;
  std::uint64_t dma_bytes = 0;
};

/// Spread of a per-rank gauge (e.g. md.compute_seconds) across ranks.
struct GaugeSpread {
  std::string name;
  double max = 0.0;
  double mean = 0.0;
  double imbalance = 1.0;  ///< max/mean over the ranks that set the gauge
  int max_rank = -1;
};

struct PerfReport {
  static constexpr int kSchemaVersion = 1;

  int nranks = 0;
  /// Master-lane span envelope: latest end minus earliest begin.
  double wall_s = 0.0;
  std::size_t dropped_spans = 0;

  std::vector<PhaseStats> phases;      ///< master-lane, sorted by critical path
  std::vector<PhaseStats> cpe_phases;  ///< CPE-lane (cpe.kernel et al.)

  // CPE utilization summary:
  double cpe_busy_s = 0.0;     ///< sum of CPE span durations (all lanes)
  double dma_modeled_s = 0.0;  ///< alpha-beta cost of the spans' DMA traffic
  /// Modeled DMA seconds per CPE busy second. < 1: the traffic fits under
  /// the compute (double-buffering can hide it); > 1: DMA-bound.
  double overlap_ratio = 0.0;

  std::vector<GaugeSpread> gauges;  ///< per-rank gauge spread (registry)
};

PerfReport analyze(const Tracer& tracer, const MetricsRegistry& metrics,
                   const AnalysisOptions& opt = {});

/// The n master-lane phases with the largest critical path (pointers into
/// `report.phases`; valid while the report lives).
std::vector<const PhaseStats*> top_hotspots(const PerfReport& report,
                                            std::size_t n);

void write_perf_report_text(std::ostream& os, const PerfReport& report);
void write_perf_report_json(std::ostream& os, const PerfReport& report);
/// Returns false when the file cannot be opened or the write is short.
bool write_perf_report_json_file(const std::string& path,
                                 const PerfReport& report);

}  // namespace mmd::telemetry
