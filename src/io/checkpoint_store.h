#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mmd::io {

class FaultInjector;

/// On-disk layout and failure discipline of checkpoint epochs.
///
/// One directory holds per-rank files plus a manifest:
///
///   <dir>/epoch_<E>_rank_<R>.mmdc   one v3 Checkpoint stream per rank
///   <dir>/MANIFEST                  the epochs whose every rank file landed
///
/// Writes are atomic and durable (io::write_file_atomic): blob -> <path>.tmp,
/// write, fsync, rename, directory fsync. A crash at any point leaves either
/// the old file or the new one, never a half-written checkpoint under the
/// final name. An epoch becomes *committed* only when rank 0 rewrites the
/// manifest (same atomic discipline) after every rank reported success — so
/// the manifest never names an epoch with missing rank files. Loaders walk the manifest newest
/// first and fall back on any validation failure (graceful degradation).
///
/// Old epochs are pruned at commit, keeping the last kKeepEpochs so a
/// corrupt newest epoch still has a good predecessor to fall back to.
///
/// An armed FaultInjector intercepts rank-blob writes (not manifest writes,
/// so write counts in tests stay predictable).
class CheckpointStore {
 public:
  /// Committed epochs retained on disk: the newest plus one fallback.
  static constexpr int kKeepEpochs = 2;

  CheckpointStore(std::string dir, int nranks);

  const std::string& dir() const { return dir_; }
  int nranks() const { return nranks_; }

  void set_fault_injector(FaultInjector* fi) { fault_ = fi; }

  std::string rank_path(std::uint64_t epoch, int rank) const;
  std::string manifest_path() const;

  /// Atomically persist one rank's blob for `epoch`. Returns false on an
  /// injected or real I/O failure (the tmp file is cleaned up).
  bool write_rank_blob(std::uint64_t epoch, int rank, const std::string& blob);

  /// Record `epoch` as complete (call on rank 0, after every rank's write
  /// succeeded) and prune epochs beyond the retention window.
  bool commit_epoch(std::uint64_t epoch);

  /// Committed epochs, ascending. Empty when there is no usable manifest or
  /// it was written for a different rank count.
  std::vector<std::uint64_t> committed_epochs() const;

  std::optional<std::string> read_rank_blob(std::uint64_t epoch,
                                            int rank) const;

  /// Best-effort removal of this rank's file of an epoch that failed to
  /// complete on some rank (keeps the directory from accumulating orphans).
  void discard_rank_blob(std::uint64_t epoch, int rank) const;

 private:
  void remove_epoch_files(std::uint64_t epoch) const;

  std::string dir_;
  int nranks_;
  FaultInjector* fault_ = nullptr;
};

}  // namespace mmd::io
