// Fault-tolerant checkpoint/restart of the coupled MD-KMC pipeline:
//   - io::CheckpointStore atomic-write / commit / prune discipline,
//   - io::FaultInjector units (truncate, bit-flip, fail-on-nth-write),
//   - restart equivalence: run N cycles vs run N/2, "crash", resume — the
//     reports (defect census included) must be bit-identical,
//   - graceful degradation: every injected fault is detected at load or at
//     write time, and the run falls back to the previous good epoch instead
//     of crashing.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/simulation.h"
#include "io/checkpoint_store.h"
#include "io/fault_injector.h"
#include "util/crc32.h"

namespace mmd {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty scratch directory under the test temp root.
std::string fresh_dir(const std::string& name) {
  const fs::path d = fs::path(::testing::TempDir()) / ("mmd_ckpt_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return d.string();
}

core::SimulationConfig base_config() {
  core::SimulationConfig cfg;
  cfg.md.nx = cfg.md.ny = cfg.md.nz = 8;
  cfg.md.temperature = 300.0;
  cfg.md.table_segments = 800;
  cfg.kmc_table_segments = 400;
  cfg.md_time_ps = 0.03;
  cfg.pka_count = 2;
  cfg.pka_energy_ev = 70.0;
  cfg.kmc_cycles = 8;
  cfg.nranks = 2;
  return cfg;
}

/// The reference: one uninterrupted run of base_config(), computed once.
const core::SimulationReport& clean_full_report() {
  static const core::SimulationReport r = [] {
    core::Simulation sim(base_config());
    return sim.run();
  }();
  return r;
}

/// Restart equivalence is *bit* identity, so doubles compare with ==.
void expect_same_physics(const core::SimulationReport& a,
                         const core::SimulationReport& b) {
  EXPECT_EQ(a.md_defects.atoms, b.md_defects.atoms);
  EXPECT_EQ(a.md_defects.vacancies, b.md_defects.vacancies);
  EXPECT_EQ(a.md_defects.interstitials, b.md_defects.interstitials);
  EXPECT_EQ(a.kmc_events, b.kmc_events);
  EXPECT_EQ(a.kmc_mc_time, b.kmc_mc_time);
  EXPECT_EQ(a.vacancy_concentration, b.vacancy_concentration);
  EXPECT_EQ(a.real_time_days, b.real_time_days);
  EXPECT_EQ(a.clusters_after_md.num_vacancies, b.clusters_after_md.num_vacancies);
  EXPECT_EQ(a.clusters_after_md.num_clusters, b.clusters_after_md.num_clusters);
  EXPECT_EQ(a.clusters_after_md.mean_size, b.clusters_after_md.mean_size);
  EXPECT_EQ(a.clusters_after_md.max_size, b.clusters_after_md.max_size);
  EXPECT_EQ(a.clusters_after_kmc.num_vacancies, b.clusters_after_kmc.num_vacancies);
  EXPECT_EQ(a.clusters_after_kmc.num_clusters, b.clusters_after_kmc.num_clusters);
  EXPECT_EQ(a.clusters_after_kmc.mean_size, b.clusters_after_kmc.mean_size);
  EXPECT_EQ(a.clusters_after_kmc.max_size, b.clusters_after_kmc.max_size);
  EXPECT_EQ(a.final_vacancies, b.final_vacancies);
}

// ---------------------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------------------

TEST(CheckpointStore, CommitPrunesOldEpochsAndLeavesNoTempFiles) {
  const std::string dir = fresh_dir("store_prune");
  io::CheckpointStore store(dir, 2);
  ASSERT_EQ(io::CheckpointStore::kKeepEpochs, 2);

  const std::string blob = "pretend-checkpoint-payload";
  for (std::uint64_t e : {1u, 2u, 3u}) {
    EXPECT_TRUE(store.write_rank_blob(e, 0, blob));
    EXPECT_TRUE(store.write_rank_blob(e, 1, blob + "-r1"));
    EXPECT_TRUE(store.commit_epoch(e));
  }

  EXPECT_EQ(store.committed_epochs(), (std::vector<std::uint64_t>{2, 3}));
  // Epoch 1 was pruned; 2 and 3 survive with every rank file.
  EXPECT_FALSE(fs::exists(store.rank_path(1, 0)));
  EXPECT_FALSE(fs::exists(store.rank_path(1, 1)));
  for (std::uint64_t e : {2u, 3u}) {
    EXPECT_TRUE(fs::exists(store.rank_path(e, 0)));
    EXPECT_TRUE(fs::exists(store.rank_path(e, 1)));
  }
  // Round trip, including the pruned epoch reading as absent.
  ASSERT_TRUE(store.read_rank_blob(3, 1).has_value());
  EXPECT_EQ(*store.read_rank_blob(3, 1), blob + "-r1");
  EXPECT_FALSE(store.read_rank_blob(1, 0).has_value());
  // Atomic rename discipline: no .tmp stragglers.
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }

  fs::remove_all(dir);
}

TEST(CheckpointStore, ConcurrentSiblingStoresStayIsolated) {
  // Campaign service mode gives every job its own CheckpointStore in a
  // sibling subdirectory of one root. Drive several stores concurrently and
  // check there is no manifest cross-talk and pruning stays per-store.
  const std::string root = fresh_dir("store_siblings");
  constexpr int kStores = 4;
  constexpr std::uint64_t kEpochs = 6;
  std::vector<std::unique_ptr<io::CheckpointStore>> stores;
  for (int s = 0; s < kStores; ++s) {
    stores.push_back(std::make_unique<io::CheckpointStore>(
        root + "/job" + std::to_string(s), /*nranks=*/1));
  }
  std::vector<std::thread> threads;
  for (int s = 0; s < kStores; ++s) {
    threads.emplace_back([&, s] {
      for (std::uint64_t e = 1; e <= kEpochs; ++e) {
        // Payload unique per (store, epoch) so cross-talk would be visible.
        ASSERT_TRUE(stores[static_cast<std::size_t>(s)]->write_rank_blob(
            e, 0, "store" + std::to_string(s) + "-epoch" + std::to_string(e)));
        ASSERT_TRUE(stores[static_cast<std::size_t>(s)]->commit_epoch(e));
      }
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_EQ(io::CheckpointStore::kKeepEpochs, 2);
  for (int s = 0; s < kStores; ++s) {
    auto& store = *stores[static_cast<std::size_t>(s)];
    // Per-store keep-2 pruning: exactly the two newest epochs survive.
    EXPECT_EQ(store.committed_epochs(),
              (std::vector<std::uint64_t>{kEpochs - 1, kEpochs}));
    for (std::uint64_t e = 1; e <= kEpochs - 2; ++e) {
      EXPECT_FALSE(fs::exists(store.rank_path(e, 0)));
    }
    // Each store's blobs are its own (no manifest or payload cross-talk).
    const auto blob = store.read_rank_blob(kEpochs, 0);
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(*blob, "store" + std::to_string(s) + "-epoch" +
                         std::to_string(kEpochs));
  }
  fs::remove_all(root);
}

TEST(CheckpointStore, ManifestForDifferentRankCountIsIgnored) {
  const std::string dir = fresh_dir("store_ranks");
  {
    io::CheckpointStore store(dir, 2);
    ASSERT_TRUE(store.write_rank_blob(5, 0, "a"));
    ASSERT_TRUE(store.write_rank_blob(5, 1, "b"));
    ASSERT_TRUE(store.commit_epoch(5));
    EXPECT_EQ(store.committed_epochs().size(), 1u);
  }
  // The same directory seen by a 4-rank run offers nothing to resume from.
  io::CheckpointStore other(dir, 4);
  EXPECT_TRUE(other.committed_epochs().empty());
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjector, TruncateFiresOnceThenPassesThrough) {
  io::FaultInjector fi;
  fi.arm_truncate_at(10);
  std::string blob(100, 'x');
  EXPECT_TRUE(fi.apply(blob));
  EXPECT_EQ(blob.size(), 10u);
  std::string blob2(100, 'y');
  EXPECT_TRUE(fi.apply(blob2));  // fire_once: second write is untouched
  EXPECT_EQ(blob2.size(), 100u);
  EXPECT_EQ(fi.writes_seen(), 2);
  EXPECT_EQ(fi.faults_injected(), 1);
}

TEST(FaultInjector, BitFlipInvertsExactlyOneBit) {
  io::FaultInjector fi;
  fi.arm_bit_flip(/*byte=*/5, /*bit=*/3);
  std::string blob(16, '\0');
  EXPECT_TRUE(fi.apply(blob));
  for (std::size_t i = 0; i < blob.size(); ++i) {
    EXPECT_EQ(static_cast<unsigned char>(blob[i]), i == 5 ? 0x08 : 0x00) << i;
  }
  EXPECT_EQ(fi.faults_injected(), 1);
}

TEST(FaultInjector, FailsExactlyTheNthWrite) {
  io::FaultInjector fi;
  fi.arm_fail_on_nth_write(3);
  std::string blob = "payload";
  EXPECT_TRUE(fi.apply(blob));
  EXPECT_TRUE(fi.apply(blob));
  EXPECT_FALSE(fi.apply(blob));  // the 3rd write dies
  EXPECT_TRUE(fi.apply(blob));   // fire_once: later writes succeed again
  EXPECT_EQ(fi.writes_seen(), 4);
  EXPECT_EQ(fi.faults_injected(), 1);
}

TEST(FaultInjector, TruncateThroughStoreShrinksThePersistedFile) {
  const std::string dir = fresh_dir("store_truncate");
  io::FaultInjector fi;
  fi.arm_truncate_at(100);
  io::CheckpointStore store(dir, 1);
  store.set_fault_injector(&fi);
  const std::string blob(4096, 'z');
  EXPECT_TRUE(store.write_rank_blob(7, 0, blob));  // "succeeds", short
  EXPECT_EQ(fs::file_size(store.rank_path(7, 0)), 100u);
  EXPECT_EQ(fi.faults_injected(), 1);
  fs::remove_all(dir);
}

TEST(FaultInjector, FailedWriteLeavesNoFileBehind) {
  const std::string dir = fresh_dir("store_fail");
  io::FaultInjector fi;
  fi.arm_fail_on_nth_write(1);
  io::CheckpointStore store(dir, 1);
  store.set_fault_injector(&fi);
  EXPECT_FALSE(store.write_rank_blob(7, 0, "doomed"));
  EXPECT_FALSE(fs::exists(store.rank_path(7, 0)));
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Restart equivalence and graceful degradation through core::Simulation
// ---------------------------------------------------------------------------

TEST(CheckpointRestart, ResumeMatchesUninterruptedRun) {
  const std::string dir = fresh_dir("resume_equiv");

  // Run the first half only and checkpoint at cycle 4 — the "killed" run.
  core::SimulationConfig half = base_config();
  half.kmc_cycles = 4;
  half.checkpoint_dir = dir;
  half.checkpoint_every = 4;
  const auto killed = core::Simulation(half).run();
  EXPECT_FALSE(killed.resumed);

  // Resume and finish all 8 cycles.
  core::SimulationConfig rest = base_config();
  rest.checkpoint_dir = dir;
  rest.checkpoint_every = 4;
  rest.resume = true;
  const auto resumed = core::Simulation(rest).run();
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_from_cycle, 4u);

  expect_same_physics(clean_full_report(), resumed);
  fs::remove_all(dir);
}

TEST(CheckpointRestart, IncrementalResumeMatchesRescanOracle) {
  const std::string dir = fresh_dir("resume_incremental_oracle");

  // The oracle: one uninterrupted run with the incremental event tables OFF
  // (full table rebuild after every executed event). The default pipeline is
  // incremental, so this pins end-to-end bit-equivalence of the two modes.
  core::SimulationConfig oracle = base_config();
  oracle.kmc_incremental = false;
  const auto rescan = core::Simulation(oracle).run();
  expect_same_physics(clean_full_report(), rescan);

  // Kill an incremental run mid-campaign and resume it. The resumed
  // incremental run must still match the rescan oracle bit for bit: the
  // per-sector event table is rebuilt from the restored site states, so no
  // table state needs to survive the crash.
  core::SimulationConfig half = base_config();
  half.kmc_cycles = 4;
  half.checkpoint_dir = dir;
  half.checkpoint_every = 4;
  core::Simulation(half).run();

  core::SimulationConfig rest = base_config();
  rest.checkpoint_dir = dir;
  rest.checkpoint_every = 4;
  rest.resume = true;
  const auto resumed = core::Simulation(rest).run();
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_from_cycle, 4u);
  expect_same_physics(rescan, resumed);
  fs::remove_all(dir);
}

TEST(CheckpointRestart, FallsBackPastCorruptNewestEpoch) {
  const std::string dir = fresh_dir("resume_fallback");

  // A full checkpointed run commits epochs 4 and 8 (keep = 2).
  core::SimulationConfig cfg = base_config();
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_every = 4;
  const auto full = core::Simulation(cfg).run();
  expect_same_physics(clean_full_report(), full);

  io::CheckpointStore paths(dir, cfg.nranks);
  ASSERT_EQ(paths.committed_epochs(), (std::vector<std::uint64_t>{4, 8}));

  // Media corruption on ONE rank's newest file: flip a byte mid-payload. The
  // other rank validates fine, but adoption is collective, so both must fall
  // back together.
  const std::string victim = paths.rank_path(8, 0);
  const auto size = fs::file_size(victim);
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(size / 2));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.put(static_cast<char>(c ^ 0x40));
  }

  core::SimulationConfig rest = base_config();
  rest.checkpoint_dir = dir;
  rest.checkpoint_every = 4;
  rest.resume = true;
  const auto resumed = core::Simulation(rest).run();
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_from_cycle, 4u);  // epoch 8 rejected, 4 adopted
  expect_same_physics(clean_full_report(), resumed);
  fs::remove_all(dir);
}

TEST(CheckpointRestart, WriteFailureDegradesToPreviousEpoch) {
  const std::string dir = fresh_dir("write_failure");

  // Epoch 4 needs writes 1-2 (two ranks); the 3rd write — epoch 8 — dies.
  io::FaultInjector fi;
  fi.arm_fail_on_nth_write(3);
  core::SimulationConfig cfg = base_config();
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_every = 4;
  cfg.fault_injector = &fi;
  const auto report = core::Simulation(cfg).run();
  EXPECT_EQ(fi.faults_injected(), 1);

  // The run completed with unchanged physics; only epoch 4 was committed.
  expect_same_physics(clean_full_report(), report);
  io::CheckpointStore paths(dir, cfg.nranks);
  EXPECT_EQ(paths.committed_epochs(), (std::vector<std::uint64_t>{4}));
  // The abandoned epoch's files were discarded on every rank.
  EXPECT_FALSE(fs::exists(paths.rank_path(8, 0)));
  EXPECT_FALSE(fs::exists(paths.rank_path(8, 1)));
  fs::remove_all(dir);
}

TEST(CheckpointRestart, TruncatedFileDetectedAtLoad) {
  const std::string dir = fresh_dir("truncate_load");

  // Epoch 4 lands intact; one epoch-8 file is silently cut to 100 bytes (a
  // crash mid-write that the rename discipline could not catch because the
  // truncation happened before fsync). The epoch still commits — detection
  // must happen at load time.
  io::FaultInjector fi;
  fi.arm_truncate_at(100, /*after_writes=*/2);
  core::SimulationConfig cfg = base_config();
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_every = 4;
  cfg.fault_injector = &fi;
  const auto full = core::Simulation(cfg).run();
  EXPECT_EQ(fi.faults_injected(), 1);
  expect_same_physics(clean_full_report(), full);

  io::CheckpointStore paths(dir, cfg.nranks);
  ASSERT_EQ(paths.committed_epochs(), (std::vector<std::uint64_t>{4, 8}));

  core::SimulationConfig rest = base_config();
  rest.checkpoint_dir = dir;
  rest.checkpoint_every = 4;
  rest.resume = true;
  const auto resumed = core::Simulation(rest).run();
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_from_cycle, 4u);
  expect_same_physics(clean_full_report(), resumed);
  fs::remove_all(dir);
}

TEST(CheckpointRestart, CheckpointFromDifferentRunConfigStartsFresh) {
  const std::string dir = fresh_dir("wrong_seed");

  core::SimulationConfig half = base_config();
  half.kmc_cycles = 4;
  half.checkpoint_dir = dir;
  half.checkpoint_every = 4;
  core::Simulation(half).run();

  // Same directory, different seed: the checkpoint belongs to another run
  // and must be refused — the simulation starts over instead of mixing state.
  core::SimulationConfig rest = base_config();
  rest.md.seed += 1;
  rest.checkpoint_dir = dir;
  rest.checkpoint_every = 4;
  rest.resume = true;
  const auto report = core::Simulation(rest).run();
  EXPECT_FALSE(report.resumed);
  EXPECT_EQ(report.resumed_from_cycle, 0u);
  // The fresh run is still a complete, healthy simulation.
  EXPECT_GT(report.md_defects.vacancies, 0u);
  EXPECT_GT(report.kmc_mc_time, 0.0);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Format golden: the v3 bytes of a fixed run's epoch files
// ---------------------------------------------------------------------------

/// CRC-32 of every committed rank file after a fixed 2-rank run that
/// checkpoints every 4 KMC cycles, indexed [epoch 4, epoch 8][rank].
std::vector<std::vector<std::uint32_t>> epoch_file_crcs(
    core::SimulationConfig cfg, const std::string& dir) {
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_every = 4;
  core::Simulation(cfg).run();
  const io::CheckpointStore store(dir, cfg.nranks);
  EXPECT_EQ(store.committed_epochs(), (std::vector<std::uint64_t>{4, 8}));
  std::vector<std::vector<std::uint32_t>> crcs;
  for (const std::uint64_t epoch : store.committed_epochs()) {
    crcs.emplace_back();
    for (int rank = 0; rank < cfg.nranks; ++rank) {
      const auto blob = store.read_rank_blob(epoch, rank);
      EXPECT_TRUE(blob.has_value()) << "epoch " << epoch << " rank " << rank;
      crcs.back().push_back(blob ? util::crc32(*blob) : 0u);
    }
  }
  fs::remove_all(dir);
  return crcs;
}

// The expected values were recorded from the v3 writer; they move only if the
// serialized fields, their order, or the state they capture change. A change
// that means to move them is a format change and needs a version bump.
TEST(CheckpointGolden, AllDetailedEpochFilesKeepTheirV3Bytes) {
  const auto crcs = epoch_file_crcs(base_config(), fresh_dir("golden_kmc"));
  const std::vector<std::vector<std::uint32_t>> golden = {
      {0x6060f600u, 0x812fb5d9u}, {0x304e4132u, 0xe1205514u}};
  EXPECT_EQ(crcs, golden);
}

TEST(CheckpointGolden, SampledEpochFilesKeepTheirV3Bytes) {
  // Schedule 4 detailed + 12 SCD + 4 detailed + 4 SCD: the epoch-8 META
  // carries the "sampling" tag and a nonzero sampled cursor.
  core::SimulationConfig cfg = base_config();
  cfg.kmc_cycles = 24;
  cfg.sampling.mode = core::SamplingPolicy::Mode::Scd;
  cfg.sampling.window = 4;
  cfg.sampling.stride = 12;
  cfg.sampling.replicates = 4;
  const auto crcs = epoch_file_crcs(cfg, fresh_dir("golden_sampling"));
  const std::vector<std::vector<std::uint32_t>> golden = {
      {0x78b4808cu, 0xc95b86b4u}, {0x112968b2u, 0x547a9a37u}};
  EXPECT_EQ(crcs, golden);
}

}  // namespace
}  // namespace mmd
