#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "kmc/model.h"
#include "lattice/lattice_neighbor_list.h"

namespace mmd::io {

/// Binary checkpointing of simulation state: versioned, CRC-guarded section
/// stream. An MD section captures every owned entry (atoms, vacancies,
/// velocities, forces) plus the run-away pool; a KMC section captures the
/// owned site states; a META section captures the coupled-pipeline clocks,
/// cycle/event counters, and RNG state that restart equivalence depends on.
///
/// Format v3 (see docs/CHECKPOINTING.md):
///   file    := magic u32 | version u32 | section*
///   section := kind u32 | payload_len u64 | crc32(payload) u32 | payload
///
/// Payload fields are serialized one by one (little-endian) — no struct
/// padding ever reaches the file, so blobs are byte-deterministic and the
/// CRCs are stable. Every load validates the CRC, bounds every length field
/// against the bytes actually present, and verifies geometry/decomposition
/// before mutating state, failing loudly instead of corrupting the run.
///
/// Checkpoints are per rank (as on real machines: one file per rank). A rank
/// file is header | META | MD | KMC, composed and read back in one place
/// (core::EpochCheckpointer); the on-disk atomic-write/manifest discipline
/// lives in io::CheckpointStore.
class Checkpoint {
 public:
  static constexpr std::uint32_t kMagic = 0x4d4d4443;  // "MMDC"
  static constexpr std::uint32_t kVersion = 3;

  enum Kind : std::uint32_t {
    kKindMd = 1,
    kKindKmc = 2,
    kKindMeta = 3,
  };

  /// Coupled-pipeline state beyond the raw lattice/site arrays: everything a
  /// resumed run needs to continue bit-identically to an uninterrupted one.
  struct MetaState {
    std::int32_t rank = 0;
    std::int32_t nranks = 1;
    std::uint64_t seed = 0;             ///< run seed, cross-checked at load
    double md_time_ps = 0.0;            ///< MD clock at the MD->KMC handoff
    std::uint64_t kmc_cycles = 0;       ///< KMC cycles completed
    std::uint64_t kmc_events = 0;       ///< events executed on this rank
    double kmc_mc_time = 0.0;           ///< MC clock [s]
    double kmc_last_max_rate = 0.0;     ///< seeds the next cycle's dt sync
    std::uint64_t kmc_rng_state = 0;    ///< generator state, not the seed
    // --- v3: stage-pipeline schedule position (docs/SAMPLING.md) ---
    /// Which KMC-side propagator wrote the epoch ("kmc" for the all-detailed
    /// pipeline, "sampling" for the sampled window/stride scheduler);
    /// cross-checked at load so a sampled checkpoint never resumes under a
    /// different schedule.
    std::string stage_tag = "kmc";
    std::uint64_t sample_windows = 0;   ///< warming strides completed
    double scd_time_s = 0.0;            ///< MC time covered by SCD warming
    double sample_est_clusters = 0.0;   ///< last stride's replicate mean
    double sample_ci_halfwidth = 0.0;   ///< ... and its 95% CI halfwidth
  };

  // --- composing multi-section rank files (core/pipeline.cpp) ---

  static void write_file_header(std::ostream& os);
  /// Throws on bad magic or version; a v1 file gets an explicit migration
  /// message rather than a generic mismatch.
  static void read_file_header(std::istream& is);

  static void write_md_section(std::ostream& os,
                               const lat::LatticeNeighborList& lnl,
                               double time_ps);
  static double read_md_section(std::istream& is, lat::LatticeNeighborList& lnl);

  static void write_kmc_section(std::ostream& os, const kmc::KmcModel& model,
                                double mc_time_s);
  static double read_kmc_section(std::istream& is, kmc::KmcModel& model);

  static void write_meta_section(std::ostream& os, const MetaState& meta);
  static MetaState read_meta_section(std::istream& is);

 private:
  static void write_section(std::ostream& os, std::uint32_t kind,
                            const std::string& payload);
  /// Reads one section, validating kind, length (bounded by the bytes left
  /// in the stream) and CRC; returns the payload.
  static std::string read_section(std::istream& is, std::uint32_t expected_kind);
};

}  // namespace mmd::io
