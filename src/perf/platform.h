#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace mmd::perf {

/// One recorded message-cost observation: payload size and measured wall
/// seconds of the operation (from the comm flight recorder's send events).
struct MsgSample {
  std::uint64_t bytes = 0;
  double seconds = 0.0;
};

/// Piecewise-linear LogGP-style host cost model: the per-message software
/// time (packing, matching, buffer handoff) as o + G*bytes on the segment
/// containing `bytes`. Segments are calibrated from recorded message-size
/// distributions (fit), so the replay's overhead term comes from measured
/// traffic rather than guessed constants. Wire time is NOT in here — the
/// topology's link specs own serialization and latency.
class LogGpModel {
 public:
  struct Segment {
    std::uint64_t max_bytes = 0;  ///< inclusive upper bound; last = UINT64_MAX
    double overhead_s = 0.0;      ///< o: per-message fixed cost
    double per_byte_s = 0.0;      ///< G: gap per byte
  };

  /// Single-segment fallback model (o = 1 us, G = 0.25 ns/B ~ 4 GB/s memcpy).
  LogGpModel();
  explicit LogGpModel(std::vector<Segment> segments);

  double message_time(std::uint64_t bytes) const;
  const std::vector<Segment>& segments() const { return segments_; }

  /// Least-squares fit of (o, G) per size segment. Breakpoints are inclusive
  /// upper bounds of all but the last segment (e.g. {256, 4096, 65536} makes
  /// four segments). Segments with too few samples or degenerate spread fall
  /// back to the global fit over all samples; negative fitted coefficients
  /// are clamped to zero. With no samples at all, returns the default model.
  static LogGpModel fit(std::span<const MsgSample> samples,
                        std::span<const std::uint64_t> breakpoints);

 private:
  std::vector<Segment> segments_;
};

/// Capacities of one link class.
struct LinkSpec {
  double bandwidth_bps = 0.0;  ///< bytes/s
  double latency_s = 0.0;      ///< one-way hop latency
};

/// TaihuLight-shaped hierarchy: ranks (core groups) pack onto nodes, nodes
/// onto supernodes, supernodes onto the central fat-tree. The supernode
/// uplink trunk is oversubscribed (256 nodes share `uplinks_per_supernode`
/// uplinks), which is what bends the weak-scaling curve at scale.
struct PlatformConfig {
  std::string name = "taihulight";
  int ranks_per_node = 4;          ///< 4 core groups per SW26010 node
  int nodes_per_supernode = 256;
  LinkSpec intra_node{32.0e9, 0.2e-6};  ///< on-chip / memory fabric
  LinkSpec node_link{14.0e9, 1.0e-6};   ///< node NIC into the supernode switch
  LinkSpec uplink{14.0e9, 2.2e-6};      ///< supernode trunk toward the core
  int uplinks_per_supernode = 64;       ///< 256 nodes : 64 uplinks = 4:1

  static PlatformConfig taihulight() { return PlatformConfig{}; }
};

/// Flow-level contention accounting over the platform graph.
///
/// Callers lay out one *communication round* (every rank's messages for one
/// step) with add_message; the round's cost is then the bottleneck link's
/// serialization time (per-link byte totals over per-link capacity) plus the
/// busiest rank's host time (LogGP) plus the deepest latency crossed. The
/// no-contention variant prices the same messages with every link private —
/// the flat-model assumption — so the contention penalty is directly
/// reportable as their ratio.
class TopologyPlatform {
 public:
  TopologyPlatform(PlatformConfig cfg, std::uint64_t nranks);

  const PlatformConfig& config() const { return cfg_; }
  std::uint64_t nranks() const { return nranks_; }
  std::uint64_t nnodes() const { return nnodes_; }
  std::uint64_t nsupernodes() const { return nsupernodes_; }

  std::uint64_t node_of(std::uint64_t rank) const {
    return rank / static_cast<std::uint64_t>(cfg_.ranks_per_node);
  }
  std::uint64_t supernode_of(std::uint64_t rank) const {
    return node_of(rank) / static_cast<std::uint64_t>(cfg_.nodes_per_supernode);
  }

  struct RoundCost {
    double total_s = 0.0;    ///< link_s + host_s + latency_s
    double link_s = 0.0;     ///< bottleneck link serialization
    double host_s = 0.0;     ///< busiest rank's software overhead
    double latency_s = 0.0;  ///< deepest link class crossed
    std::string bottleneck;  ///< "intra_node" | "node_link" | "supernode_uplink"
  };

  void reset();
  /// One directed message in the round; host cost priced by `host` on both
  /// the sending and receiving rank.
  void add_message(std::uint64_t src, std::uint64_t dst, std::uint64_t bytes,
                   const LogGpModel& host);

  /// Bottleneck cost of the laid-out round with shared links.
  RoundCost round_cost() const;
  /// Same messages, every link private (contention-free lower bound).
  RoundCost round_cost_no_contention() const;

  /// Hierarchical tree allreduce/barrier: up+down through the intra-node,
  /// intra-supernode, and trunk levels actually present at `nranks`.
  double collective_time() const;

 private:
  PlatformConfig cfg_;
  std::uint64_t nranks_ = 0;
  std::uint64_t nnodes_ = 0;
  std::uint64_t nsupernodes_ = 0;
  // Per-link directed byte accumulators for the current round.
  std::vector<std::uint64_t> intra_bytes_;      ///< per node
  std::vector<std::uint64_t> node_up_bytes_;    ///< per node, into the switch
  std::vector<std::uint64_t> node_down_bytes_;  ///< per node, out of the switch
  std::vector<std::uint64_t> sn_up_bytes_;      ///< per supernode trunk, out
  std::vector<std::uint64_t> sn_down_bytes_;    ///< per supernode trunk, in
  std::vector<double> host_s_;                  ///< per rank software time
  std::vector<double> private_s_;               ///< per rank, private-link cost
  double max_latency_s_ = 0.0;
};

/// TaihuLight core accounting: the paper counts "master+slave cores", i.e.
/// 65 cores per core group (1 MPE + 64 CPEs), with one MPI rank per group.
inline constexpr std::uint64_t kCoresPerGroup = 65;

inline std::uint64_t ranks_from_cores(std::uint64_t master_plus_slave_cores) {
  return master_plus_slave_cores / kCoresPerGroup;
}

inline std::uint64_t cores_from_ranks(std::uint64_t ranks) {
  return ranks * kCoresPerGroup;
}

/// Near-cubic 3D factorization of n (px >= py >= pz, px*py*pz == n),
/// minimizing surface area — the rank grid the replay projects onto.
struct Grid3 {
  std::uint64_t x = 1, y = 1, z = 1;
};
Grid3 near_cubic_grid(std::uint64_t n);

}  // namespace mmd::perf
