#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/simulation.h"
#include "core/stage.h"
#include "util/timer.h"

namespace mmd::io {
class CheckpointStore;
}
namespace mmd::kmc {
class ScdStage;
}

namespace mmd::core {

/// An ordered composition of stage propagators — the paper's fixed MD->KMC
/// handoff generalized so new propagators (the SCD warming stage, future
/// OKMC or rate-theory backends) plug in without touching the facade. One
/// Pipeline instance is built per rank inside Simulation::run() — [resume],
/// MD cascade, then KMC or the sampled scheduler; run() advances every
/// stage in order and records per-stage reports plus `stage.<name>.seconds`
/// gauges.
class Pipeline {
 public:
  StagePropagator& add(std::unique_ptr<StagePropagator> stage);

  /// Collective across ranks: every rank calls run() with its own state.
  void run(comm::Comm& comm, StageState& state, StageClock& clock);

  const std::vector<StageReport>& reports() const { return reports_; }

 private:
  std::vector<std::unique_ptr<StagePropagator>> stages_;
  std::vector<StageReport> reports_;
};

/// Checkpoint epochs of the coupled pipeline: the one place that maps the
/// pipeline state (engines, StageState, StageClock) onto a v3 rank file
/// (header | META | MD | KMC, docs/CHECKPOINTING.md) and back. KmcStage
/// saves at epoch boundaries; ResumeStage restores before the MD cascade.
/// One instance per rank, over the run's shared io::CheckpointStore.
class EpochCheckpointer {
 public:
  EpochCheckpointer(const SimulationConfig& cfg, io::CheckpointStore& store,
                    md::MdEngine& md, kmc::KmcEngine& kmc);

  /// Collective: write this rank's file of `epoch`, then rank 0 commits the
  /// epoch to the manifest once every rank's write landed. A failed write on
  /// any rank abandons the epoch; the previous one stays the restart point.
  void save(comm::Comm& comm, std::uint64_t epoch, const StageState& state,
            const StageClock& clock);

  /// Collective: adopt the newest committed epoch that EVERY rank validates
  /// (an allreduce decides), falling back epoch by epoch together. When none
  /// survives the run starts fresh, with any partially loaded KMC sites
  /// reset. Sets state.restored on success.
  void restore(comm::Comm& comm, StageState& state, StageClock& clock);

 private:
  const SimulationConfig& cfg_;
  io::CheckpointStore& store_;
  md::MdEngine& md_;
  kmc::KmcEngine& kmc_;
};

/// Stage 0, present only when the run resumes: restores the newest usable
/// checkpoint epoch (EpochCheckpointer::restore) inside a `sim.resume` span,
/// so the stages after it continue where the interrupted run left off.
class ResumeStage : public StagePropagator {
 public:
  explicit ResumeStage(EpochCheckpointer& checkpointer)
      : checkpointer_(checkpointer) {}

  const char* name() const override { return "resume"; }
  StageReport advance(comm::Comm& comm, StageState& state,
                      StageClock& clock) override;

 private:
  EpochCheckpointer& checkpointer_;
};

/// Stage 1 of the coupled pipeline: cascade-collision defect generation.
/// Initializes the lattice, seeds solutes, injects the PKAs and integrates
/// the cascade window; a checkpoint-restored run skips the dynamics (the
/// lattice was loaded) but still produces the census and the handoff.
class MdCascadeStage : public StagePropagator {
 public:
  MdCascadeStage(const SimulationConfig& cfg, std::uint64_t num_sites,
                 md::MdEngine& md);

  const char* name() const override { return "md_cascade"; }
  StageReport advance(comm::Comm& comm, StageState& state,
                      StageClock& clock) override;

 private:
  const SimulationConfig& cfg_;
  std::uint64_t num_sites_;
  md::MdEngine& md_;
};

/// Stage 2: vacancy clustering and evolution on the KMC engine. Owns the
/// MD->KMC handoff application, the chunked cycle loop that saves a
/// checkpoint epoch at every boundary, and the final vacancy census. The
/// begin/run_detailed/finish pieces are public so SamplingScheduler can
/// interleave detailed windows with SCD warming while executing the
/// byte-identical cycle sequence.
class KmcStage : public StagePropagator {
 public:
  /// `checkpointer` may be null (no checkpoint directory configured).
  KmcStage(const SimulationConfig& cfg, kmc::KmcEngine& kmc,
           EpochCheckpointer* checkpointer);

  const char* name() const override { return "kmc"; }
  StageReport advance(comm::Comm& comm, StageState& state,
                      StageClock& clock) override;

  /// Handoff application (fresh run) or pre-KMC census reconstruction
  /// (restored run); fills state.vacancies_before on rank 0.
  void begin(comm::Comm& comm, StageState& state);

  /// Advance the detailed engine to absolute cycle `target` (chunked at
  /// checkpoint-epoch boundaries; every epoch saves a stage-tagged META so a
  /// sampled schedule resumes mid-window). No-op when already there.
  void run_detailed(comm::Comm& comm, StageState& state, StageClock& clock,
                    std::uint64_t target);

  /// Final census + global concentration; fills state.vacancies_after.
  void finish(comm::Comm& comm, StageState& state, StageClock& clock);

  std::uint64_t detailed_done() const { return done_; }
  double mc_time() const;
  std::vector<std::int64_t> gather_vacancies(comm::Comm& comm) const;

 private:
  const SimulationConfig& cfg_;
  kmc::KmcEngine& kmc_;
  EpochCheckpointer* checkpointer_;
  std::uint64_t done_ = 0;
  util::Timer timer_;
};

/// The SMARTS-style sampled schedule (docs/SAMPLING.md): alternate detailed
/// KMC windows with cheap SCD warming strides until the coverage target
/// (kmc.cycles, counted in detailed-equivalent cycles) is reached.
/// Detailed windows advance the lattice; warming strides advance the
/// population estimate and the clock only.
class SamplingScheduler : public StagePropagator {
 public:
  SamplingScheduler(const SimulationConfig& cfg,
                    std::unique_ptr<KmcStage> detailed,
                    std::unique_ptr<kmc::ScdStage> scd);
  ~SamplingScheduler() override;

  const char* name() const override { return "sampling"; }
  StageReport advance(comm::Comm& comm, StageState& state,
                      StageClock& clock) override;

 private:
  const SimulationConfig& cfg_;
  std::unique_ptr<KmcStage> detailed_;
  std::unique_ptr<kmc::ScdStage> scd_;
};

}  // namespace mmd::core
