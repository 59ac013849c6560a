#include "core/pipeline.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/checkpoint.h"
#include "io/checkpoint_store.h"
#include "kmc/engine.h"
#include "kmc/scd.h"
#include "md/engine.h"
#include "telemetry/session.h"
#include "telemetry/trace.h"
#include "util/rng.h"

namespace mmd::core {

namespace {

/// The stage tag an epoch carries: the name of the KMC-side propagator the
/// pipeline runs. The cycle counter means different things under the two
/// schedules, so resume refuses an epoch written under the other one.
const char* stage_tag(const SimulationConfig& cfg) {
  return cfg.sampling.enabled() ? "sampling" : "kmc";
}

}  // namespace

// --- EpochCheckpointer ---

EpochCheckpointer::EpochCheckpointer(const SimulationConfig& cfg,
                                     io::CheckpointStore& store,
                                     md::MdEngine& md, kmc::KmcEngine& kmc)
    : cfg_(cfg), store_(store), md_(md), kmc_(kmc) {}

void EpochCheckpointer::save(comm::Comm& comm, std::uint64_t epoch,
                             const StageState& state, const StageClock& clock) {
  MMD_TRACE_SCOPE("sim.checkpoint");
  util::Timer t;
  // Pipeline state -> META: everything beyond the raw lattice and site
  // arrays that a bit-identical resume needs (adopted in restore()).
  const kmc::KmcEngineState st = kmc_.engine_state();
  io::Checkpoint::MetaState meta;
  meta.rank = comm.rank();
  meta.nranks = comm.size();
  meta.seed = cfg_.md.seed;
  meta.md_time_ps = md_.simulated_time();
  meta.kmc_cycles = st.cycles;
  meta.kmc_events = st.events;
  meta.kmc_mc_time = st.mc_time;
  meta.kmc_last_max_rate = st.last_max_rate;
  meta.kmc_rng_state = st.rng_state;
  meta.stage_tag = stage_tag(cfg_);
  meta.sample_windows = state.sampled.windows;
  meta.scd_time_s = clock.scd_time_s;
  meta.sample_est_clusters = state.sampled.est_clusters;
  meta.sample_ci_halfwidth = state.sampled.ci_halfwidth;
  std::ostringstream os;
  io::Checkpoint::write_file_header(os);
  io::Checkpoint::write_meta_section(os, meta);
  io::Checkpoint::write_md_section(os, md_.lattice(), md_.simulated_time());
  io::Checkpoint::write_kmc_section(os, kmc_.model(), st.mc_time);
  const std::string blob = os.str();
  const bool ok = store_.write_rank_blob(epoch, comm.rank(), blob);
  telemetry::count("ckpt.bytes", blob.size());
  telemetry::observe("ckpt.write_seconds", t.elapsed());
  const std::uint64_t failures = comm.allreduce_sum_u64(ok ? 0u : 1u);
  if (failures == 0) {
    if (comm.rank() == 0) {
      if (store_.commit_epoch(epoch)) {
        telemetry::count("ckpt.epochs");
      } else {
        telemetry::count("ckpt.failed_epochs");
      }
    }
  } else {
    store_.discard_rank_blob(epoch, comm.rank());
    if (comm.rank() == 0) {
      telemetry::count("ckpt.failed_epochs");
      std::fprintf(stderr,
                   "mmd: checkpoint epoch %llu failed on %llu rank(s); "
                   "keeping the previous epoch\n",
                   static_cast<unsigned long long>(epoch),
                   static_cast<unsigned long long>(failures));
    }
  }
  comm.barrier();
}

void EpochCheckpointer::restore(comm::Comm& comm, StageState& state,
                                StageClock& clock) {
  // Committed epochs, tried newest first; every rank walks the same list in
  // lock step (nothing commits before every rank has passed this point).
  const std::vector<std::uint64_t> epochs = store_.committed_epochs();
  for (auto it = epochs.rbegin(); it != epochs.rend(); ++it) {
    const std::uint64_t epoch = *it;
    io::Checkpoint::MetaState meta;
    bool ok = true;
    std::string error;
    try {
      const auto blob = store_.read_rank_blob(epoch, comm.rank());
      if (!blob) throw std::runtime_error("missing rank file");
      std::istringstream is(*blob);
      io::Checkpoint::read_file_header(is);
      meta = io::Checkpoint::read_meta_section(is);
      if (meta.rank != comm.rank() || meta.nranks != comm.size() ||
          meta.seed != cfg_.md.seed || meta.stage_tag != stage_tag(cfg_)) {
        throw std::runtime_error(
            "checkpoint was written by a different run configuration");
      }
      md_.set_simulated_time(io::Checkpoint::read_md_section(is, md_.lattice()));
      io::Checkpoint::read_kmc_section(is, kmc_.model());
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
    }
    if (comm.allreduce_sum_u64(ok ? 0u : 1u) == 0) {
      // META -> pipeline state: the inverse of save().
      kmc::KmcEngineState st;
      st.events = meta.kmc_events;
      st.cycles = meta.kmc_cycles;
      st.mc_time = meta.kmc_mc_time;
      st.last_max_rate = meta.kmc_last_max_rate;
      st.rng_state = meta.kmc_rng_state;
      kmc_.restore_state(comm, st);
      // Events executed before the checkpoint re-enter the registry so a
      // resumed run reports the same totals as an uninterrupted one.
      if (meta.kmc_events > 0) telemetry::count("kmc.events", meta.kmc_events);
      telemetry::count("ckpt.resumed_ranks");
      state.restored = true;
      state.restored_cycles = meta.kmc_cycles;
      // Sampled-schedule position: the scheduler re-enters the window/
      // stride loop exactly where the interrupted run left off.
      state.sampled.windows = meta.sample_windows;
      state.sampled.est_clusters = meta.sample_est_clusters;
      state.sampled.ci_halfwidth = meta.sample_ci_halfwidth;
      clock.scd_time_s = meta.scd_time_s;
      return;
    }
    telemetry::count("ckpt.load_fallbacks");
    if (!ok) {
      std::fprintf(stderr,
                   "mmd: rank %d: checkpoint epoch %llu rejected (%s); "
                   "falling back\n",
                   comm.rank(), static_cast<unsigned long long>(epoch),
                   error.c_str());
    }
  }
  if (!epochs.empty()) {
    // A partially-applied failed load must not leak into a fresh run.
    for (std::size_t i = 0; i < kmc_.model().size(); ++i) {
      kmc_.model().set_state(i, kmc::SiteState::Fe);
    }
  }
}

// --- ResumeStage ---

StageReport ResumeStage::advance(comm::Comm& comm, StageState& state,
                                 StageClock& clock) {
  MMD_TRACE_SCOPE("sim.resume");
  util::Timer wall;
  checkpointer_.restore(comm, state, clock);
  return {name(), wall.elapsed(), state.restored_cycles};
}

// --- Pipeline ---

StagePropagator& Pipeline::add(std::unique_ptr<StagePropagator> stage) {
  stages_.push_back(std::move(stage));
  return *stages_.back();
}

void Pipeline::run(comm::Comm& comm, StageState& state, StageClock& clock) {
  reports_.clear();
  for (auto& stage : stages_) {
    StageReport r = stage->advance(comm, state, clock);
    telemetry::set_gauge("stage." + r.stage + ".seconds", r.wall_seconds);
    reports_.push_back(std::move(r));
  }
}

// --- MdCascadeStage ---

MdCascadeStage::MdCascadeStage(const SimulationConfig& cfg,
                               std::uint64_t num_sites, md::MdEngine& md)
    : cfg_(cfg), num_sites_(num_sites), md_(md) {}

StageReport MdCascadeStage::advance(comm::Comm& comm, StageState& state,
                                    StageClock& clock) {
  util::Timer wall;
  if (!state.restored) {
    // --- MD stage: cascade-collision defect generation ---
    MMD_TRACE_SCOPE("sim.md");
    md_.initialize(comm);
    if (cfg_.solute_fraction > 0.0) {
      md_.seed_solutes(comm, cfg_.solute_fraction);
    }
    util::Rng rng(cfg_.md.seed ^ 0x7a3d5e9bull);
    for (int p = 0; p < cfg_.pka_count; ++p) {
      const auto site = static_cast<std::int64_t>(rng.uniform_index(num_sites_));
      md_.inject_pka(comm, site, rng.unit_vector(), cfg_.pka_energy_ev);
    }
    md_.run_for(comm, cfg_.md_time_ps);
  }
  // A restored run skips the dynamics (the lattice was loaded) but still
  // produces the census and the handoff from the frozen MD lattice.
  state.md_defects = md_.defects(comm);
  state.handoff = HandoffState::capture(md_);
  clock.md_time_ps = md_.simulated_time();
  telemetry::set_gauge("md.wall_seconds", wall.elapsed());
  telemetry::set_gauge("md.compute_seconds", md_.computation_seconds());
  telemetry::set_gauge("md.comm_seconds", md_.communication_seconds());
  return {name(), wall.elapsed(), static_cast<std::uint64_t>(cfg_.pka_count)};
}

// --- KmcStage ---

KmcStage::KmcStage(const SimulationConfig& cfg, kmc::KmcEngine& kmc,
                   EpochCheckpointer* checkpointer)
    : cfg_(cfg), kmc_(kmc), checkpointer_(checkpointer) {}

double KmcStage::mc_time() const { return kmc_.mc_time(); }

std::vector<std::int64_t> KmcStage::gather_vacancies(comm::Comm& comm) const {
  return kmc_.gather_vacancies(comm);
}

void KmcStage::begin(comm::Comm& comm, StageState& state) {
  timer_.reset();
  done_ = state.restored ? state.restored_cycles : 0;
  if (!state.restored) {
    state.handoff.apply(comm, kmc_);
    state.vacancies_before = kmc_.gather_vacancies(comm);
  } else {
    // The restored sites already contain the handoff (vacancies AND any
    // solute arrangement); reconstruct the pre-KMC vacancy census from
    // the frozen MD lattice instead of the evolved KMC state.
    state.vacancies_before = comm.gather_to<std::int64_t>(
        0, state.handoff.vacancy_sites, comm::tags::kSimVacancyGather);
    std::sort(state.vacancies_before.begin(), state.vacancies_before.end());
  }
}

void KmcStage::run_detailed(comm::Comm& comm, StageState& state,
                            StageClock& clock, std::uint64_t target) {
  // Chunked run_cycles calls execute the identical cycle sequence, so
  // checkpointing does not perturb the physics.
  const std::uint64_t every =
      checkpointer_ != nullptr && cfg_.checkpoint_every > 0
          ? static_cast<std::uint64_t>(cfg_.checkpoint_every)
          : 0;
  while (done_ < target) {
    std::uint64_t chunk = target - done_;
    if (every > 0) chunk = std::min(chunk, every - done_ % every);
    kmc_.run_cycles(comm, static_cast<int>(chunk));
    done_ += chunk;
    if (every > 0 && done_ % every == 0) {
      checkpointer_->save(comm, done_, state, clock);
    }
  }
}

void KmcStage::finish(comm::Comm& comm, StageState& state, StageClock& clock) {
  state.vacancies_after = kmc_.gather_vacancies(comm);
  state.vacancy_concentration = kmc_.vacancy_concentration(comm);
  clock.kmc_mc_time_s = kmc_.mc_time();
  telemetry::set_gauge("kmc.wall_seconds", timer_.elapsed());
  telemetry::set_gauge("kmc.compute_seconds", kmc_.computation_seconds());
  telemetry::set_gauge("kmc.comm_seconds", kmc_.communication_seconds());
}

StageReport KmcStage::advance(comm::Comm& comm, StageState& state,
                              StageClock& clock) {
  MMD_TRACE_SCOPE("sim.kmc");
  begin(comm, state);
  run_detailed(comm, state, clock, static_cast<std::uint64_t>(cfg_.kmc_cycles));
  finish(comm, state, clock);
  return {name(), timer_.elapsed(), done_};
}

// --- SamplingScheduler ---

SamplingScheduler::SamplingScheduler(const SimulationConfig& cfg,
                                     std::unique_ptr<KmcStage> detailed,
                                     std::unique_ptr<kmc::ScdStage> scd)
    : cfg_(cfg), detailed_(std::move(detailed)), scd_(std::move(scd)) {}

SamplingScheduler::~SamplingScheduler() = default;

StageReport SamplingScheduler::advance(comm::Comm& comm, StageState& state,
                                       StageClock& clock) {
  MMD_TRACE_SCOPE("sim.kmc");
  util::Timer wall;
  const auto target = static_cast<std::uint64_t>(cfg_.kmc_cycles);
  const auto window = static_cast<std::uint64_t>(cfg_.sampling.window);
  const auto stride = static_cast<std::uint64_t>(cfg_.sampling.stride);
  detailed_->begin(comm, state);
  // Schedule position: `covered` counts detailed-equivalent cycles. On a
  // mid-schedule resume state.sampled.windows and detailed_done() come from
  // the checkpoint META, so the loop re-enters exactly where the interrupted
  // run left off (strides never touch the lattice, so the detailed cycle
  // sequence is the all-detailed run's prefix either way).
  std::uint64_t windows = state.sampled.windows;
  std::uint64_t covered = detailed_->detailed_done() + windows * stride;
  while (covered < target) {
    const std::uint64_t done = detailed_->detailed_done();
    const bool stride_pending =
        done > 0 && done % window == 0 && windows < done / window;
    if (!stride_pending) {
      // Detailed window (a partial one when resuming mid-window or when the
      // coverage target lands inside it).
      const std::uint64_t w =
          std::min(window - done % window, target - covered);
      detailed_->run_detailed(comm, state, clock, done + w);
      covered += w;
      continue;
    }
    // Warming stride: seed the SCD estimator from the current census and
    // advance it by the stride's MC-time budget. The budget derives from the
    // cumulative per-cycle MC time, which is a pure function of checkpointed
    // engine state — a resumed schedule recomputes the identical budget.
    const std::uint64_t stride_cov = std::min(stride, target - covered);
    const double dt_cycle = detailed_->mc_time() / static_cast<double>(done);
    state.vacancies_after = detailed_->gather_vacancies(comm);
    scd_->set_window(windows, dt_cycle * static_cast<double>(stride_cov));
    scd_->advance(comm, state, clock);
    covered += stride_cov;
    ++windows;
    state.sampled.windows = windows;
    if (comm.rank() == 0) {
      telemetry::set_gauge("sample.windows", static_cast<double>(windows));
    }
  }
  state.sampled.windows = windows;
  state.sampled.replicates = cfg_.sampling.replicates;
  detailed_->finish(comm, state, clock);
  return {name(), wall.elapsed(), windows};
}

}  // namespace mmd::core
