#include "io/checkpoint_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "io/atomic_file.h"
#include "io/fault_injector.h"

namespace mmd::io {

namespace fs = std::filesystem;

CheckpointStore::CheckpointStore(std::string dir, int nranks)
    : dir_(std::move(dir)), nranks_(nranks) {
  std::error_code ec;
  fs::create_directories(dir_, ec);  // surfaced as write failures later
}

std::string CheckpointStore::rank_path(std::uint64_t epoch, int rank) const {
  std::ostringstream os;
  os << dir_ << "/epoch_" << epoch << "_rank_" << rank << ".mmdc";
  return os.str();
}

std::string CheckpointStore::manifest_path() const { return dir_ + "/MANIFEST"; }

bool CheckpointStore::write_rank_blob(std::uint64_t epoch, int rank,
                                      const std::string& blob) {
  std::string out = blob;
  if (fault_ != nullptr && !fault_->apply(out)) return false;
  return write_file_atomic(rank_path(epoch, rank), out);
}

std::vector<std::uint64_t> CheckpointStore::committed_epochs() const {
  std::ifstream is(manifest_path());
  if (!is) return {};
  std::string word;
  int version = 0, ranks = 0;
  if (!(is >> word >> version >> ranks) || word != "mmdc-manifest" ||
      version != 2 || ranks != nranks_) {
    return {};
  }
  std::vector<std::uint64_t> epochs;
  std::uint64_t e = 0;
  while (is >> word >> e) {
    if (word == "epoch") epochs.push_back(e);
  }
  std::sort(epochs.begin(), epochs.end());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
  return epochs;
}

bool CheckpointStore::commit_epoch(std::uint64_t epoch) {
  std::vector<std::uint64_t> epochs = committed_epochs();
  epochs.push_back(epoch);
  std::sort(epochs.begin(), epochs.end());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
  std::vector<std::uint64_t> dropped;
  while (epochs.size() > static_cast<std::size_t>(kKeepEpochs)) {
    dropped.push_back(epochs.front());
    epochs.erase(epochs.begin());
  }
  std::ostringstream os;
  os << "mmdc-manifest 2 " << nranks_ << "\n";
  for (const std::uint64_t e : epochs) os << "epoch " << e << "\n";
  if (!write_file_atomic(manifest_path(), os.str())) {
    return false;
  }
  for (const std::uint64_t e : dropped) remove_epoch_files(e);
  return true;
}

std::optional<std::string> CheckpointStore::read_rank_blob(std::uint64_t epoch,
                                                           int rank) const {
  std::ifstream is(rank_path(epoch, rank), std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream os;
  os << is.rdbuf();
  return std::move(os).str();
}

void CheckpointStore::discard_rank_blob(std::uint64_t epoch, int rank) const {
  std::error_code ec;
  fs::remove(rank_path(epoch, rank), ec);
}

void CheckpointStore::remove_epoch_files(std::uint64_t epoch) const {
  for (int r = 0; r < nranks_; ++r) discard_rank_blob(epoch, r);
}

}  // namespace mmd::io
