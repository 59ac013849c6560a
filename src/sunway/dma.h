#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace mmd::sw {

/// Traffic and op counters for one DMA engine. The paper's Fig. 9 result —
/// compacted tables beat traditional tables by 54.7% — is driven entirely by
/// the number of DMA get operations, which these counters expose.
struct DmaStats {
  std::uint64_t get_ops = 0;
  std::uint64_t put_ops = 0;
  std::uint64_t get_bytes = 0;
  std::uint64_t put_bytes = 0;

  DmaStats& operator+=(const DmaStats& o) {
    get_ops += o.get_ops;
    put_ops += o.put_ops;
    get_bytes += o.get_bytes;
    put_bytes += o.put_bytes;
    return *this;
  }

  std::uint64_t total_ops() const { return get_ops + put_ops; }
  std::uint64_t total_bytes() const { return get_bytes + put_bytes; }
};

/// Alpha-beta cost parameters for modeled DMA time. Defaults approximate the
/// SW26010: ~0.25 us fixed cost per DMA descriptor round trip, ~8 GB/s
/// per-CPE bandwidth for well-formed transfers.
struct DmaCostModel {
  double latency_s = 0.25e-6;           // per-op startup
  double bandwidth_bytes_per_s = 8e9;   // streaming bandwidth

  double cost(std::uint64_t ops, std::uint64_t bytes) const {
    return static_cast<double>(ops) * latency_s +
           static_cast<double>(bytes) / bandwidth_bytes_per_s;
  }
};

/// Software model of a CPE DMA engine moving data between main memory and the
/// local store.
///
/// Transfers are executed as immediate memcpys (both "memories" are host
/// RAM), but every operation is metered: counters feed the table-compaction
/// benchmarks, and `modeled_time()` applies the alpha-beta model so benches
/// can report Sunway-shaped runtimes. The double-buffer strategy accounts for
/// overlap by combining `modeled_time()` with its own compute timeline (see
/// md::SlaveForceCompute::modeled_time).
class DmaEngine {
 public:
  explicit DmaEngine(DmaCostModel cost = {}) : cost_(cost) {}

  /// Main memory -> local store.
  void get(void* local_dst, const void* main_src, std::size_t bytes) {
    std::memcpy(local_dst, main_src, bytes);
    ++stats_.get_ops;
    stats_.get_bytes += bytes;
  }

  /// Local store -> main memory.
  void put(void* main_dst, const void* local_src, std::size_t bytes) {
    std::memcpy(main_dst, local_src, bytes);
    ++stats_.put_ops;
    stats_.put_bytes += bytes;
  }

  /// One strided transfer segment of a batched (descriptor-chained) DMA.
  struct Run {
    void* dst;
    const void* src;
    std::size_t bytes;
  };

  /// Gather several main-memory runs into the local store with a single DMA
  /// descriptor chain — the SW26010 supports strided transfers, so a block
  /// window fetch costs one op regardless of its row count.
  void get_batched(const Run* runs, std::size_t n) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(runs[i].dst, runs[i].src, runs[i].bytes);
      total += runs[i].bytes;
    }
    ++stats_.get_ops;
    stats_.get_bytes += total;
  }

  const DmaStats& stats() const { return stats_; }
  void reset_stats() { stats_ = DmaStats{}; }

  /// Modeled wall time [s] of all transfers so far under the cost model.
  double modeled_time() const {
    return cost_.cost(stats_.total_ops(), stats_.total_bytes());
  }

  const DmaCostModel& cost_model() const { return cost_; }

 private:
  DmaCostModel cost_;
  DmaStats stats_;
};

}  // namespace mmd::sw
