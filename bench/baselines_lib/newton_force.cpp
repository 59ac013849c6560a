#include "baselines_lib/newton_force.h"

#include <cmath>
#include <stdexcept>

namespace mmd::md {

namespace {

/// Run-away complement shared with the reference semantics: every chain node
/// (owned or ghost) contributes to nearby OWNED lattice atoms; every owned
/// run-away computes its own full sums. Mirrors the slave-kernel complement.
template <typename PerPair>
void complement_chains(lat::LatticeNeighborList& lnl, double cutoff,
                       PerPair&& add_to_entry) {
  const lat::LocalBox box = lnl.box();
  const double cut2 = cutoff * cutoff;
  for (std::size_t host = 0; host < lnl.size(); ++host) {
    for (std::int32_t ri = lnl.entry(host).runaway_head;
         ri != lat::AtomEntry::kNoRunaway; ri = lnl.runaway(ri).next) {
      const lat::RunawayAtom& a = lnl.runaway(ri);
      const lat::LocalCoord hc = box.coord_of(host);
      auto visit = [&](std::size_t idx) {
        lat::AtomEntry& e = lnl.entry(idx);
        if (!e.is_atom() || !box.owns(box.coord_of(idx))) return;
        const double r2 = (a.r - e.r).norm2();
        if (r2 > cut2 || r2 == 0.0) return;
        add_to_entry(e, a, std::sqrt(r2));
      };
      visit(host);
      for (const auto& o : lnl.offsets(hc.sub)) {
        const lat::LocalCoord nc{hc.x + o.dx, hc.y + o.dy, hc.z + o.dz, o.to_sub};
        if (box.in_storage(nc)) visit(box.entry_index(nc));
      }
    }
  }
}

}  // namespace

NewtonForce::NewtonForce(const pot::EamTableSet& tables) : tables_(&tables) {
  if (tables.num_species != 1) {
    throw std::invalid_argument("NewtonForce: single-species (Fe) only");
  }
}

void NewtonForce::compute_rho(comm::Comm& comm, lat::LatticeNeighborList& lnl,
                              lat::GhostExchange& ghosts) const {
  const double cut2 = tables_->cutoff * tables_->cutoff;
  const double r_min = tables_->r_min;
  const auto& ftab = tables_->f(0, 0);
  for (std::size_t i = 0; i < lnl.size(); ++i) lnl.entry(i).rho = 0.0;

  // Half loops over lattice pairs: the rank owning the smaller-id atom
  // evaluates the pair and credits both sides.
  for (std::size_t idx : lnl.owned_indices()) {
    lat::AtomEntry& e = lnl.entry(idx);
    if (!e.is_atom()) continue;
    const int sub = static_cast<int>(idx & 1);
    for (const std::int64_t d : lnl.deltas(sub)) {
      const std::size_t n = idx + static_cast<std::size_t>(d);
      lat::AtomEntry& o = lnl.entry(n);
      if (!o.is_atom() || o.id <= e.id) continue;
      const double r2 = (o.r - e.r).norm2();
      if (r2 > cut2) continue;
      const double f = ftab.value(std::max(std::sqrt(r2), r_min));
      e.rho += f;
      o.rho += f;  // possibly a ghost: returned by the reverse accumulation
    }
  }
  // Run-aways: full-loop complement.
  complement_chains(lnl, tables_->cutoff,
                    [&](lat::AtomEntry& e, const lat::RunawayAtom&, double r) {
                      e.rho += ftab.value(std::max(r, r_min));
                    });
  lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
    lat::RunawayAtom& a = lnl.runaway(ri);
    double rho = 0.0;
    lnl.for_each_neighbor_of_runaway(ri, host, [&](const lat::ParticleView& p) {
      const double r2 = (p.r - a.r).norm2();
      if (r2 > cut2) return;
      rho += ftab.value(std::max(std::sqrt(r2), r_min));
    });
    a.rho = rho;
  });

  ghosts.reverse_accumulate_rho(comm);
  ghosts.exchange_rho(comm);
}

void NewtonForce::compute_forces(comm::Comm& comm, lat::LatticeNeighborList& lnl,
                                 lat::GhostExchange& ghosts) const {
  const double cut2 = tables_->cutoff * tables_->cutoff;
  const double r_min = tables_->r_min;
  const auto& ftab = tables_->f(0, 0);
  const auto& phit = tables_->phi(0, 0);
  const auto& embed = tables_->embed_of(0);
  for (std::size_t i = 0; i < lnl.size(); ++i) lnl.entry(i).f = {};

  for (std::size_t idx : lnl.owned_indices()) {
    lat::AtomEntry& e = lnl.entry(idx);
    if (!e.is_atom()) continue;
    const double fp_e = embed.derivative(e.rho);
    const int sub = static_cast<int>(idx & 1);
    for (const std::int64_t d : lnl.deltas(sub)) {
      const std::size_t n = idx + static_cast<std::size_t>(d);
      lat::AtomEntry& o = lnl.entry(n);
      if (!o.is_atom() || o.id <= e.id) continue;
      const util::Vec3 dv = o.r - e.r;
      const double r2 = dv.norm2();
      if (r2 > cut2 || r2 == 0.0) continue;
      const double r = std::max(std::sqrt(r2), r_min);
      double dphi, df;
      phit.eval(r, nullptr, &dphi);
      ftab.eval(r, nullptr, &df);
      const double fp_o = embed.derivative(o.rho);
      const util::Vec3 pair = dv * ((dphi + (fp_e + fp_o) * df) / r);
      e.f += pair;
      o.f -= pair;
    }
  }
  // Run-aways: full complement (adds to owned atoms and computes own force).
  complement_chains(lnl, tables_->cutoff,
                    [&](lat::AtomEntry& e, const lat::RunawayAtom& a, double r_true) {
                      const double r = std::max(r_true, r_min);
                      double dphi, df;
                      phit.eval(r, nullptr, &dphi);
                      ftab.eval(r, nullptr, &df);
                      const double fp_e = embed.derivative(e.rho);
                      const double fp_a = embed.derivative(a.rho);
                      const util::Vec3 dv = a.r - e.r;
                      e.f += dv * ((dphi + (fp_e + fp_a) * df) / r_true);
                    });
  lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
    lat::RunawayAtom& a = lnl.runaway(ri);
    const double fp_a = embed.derivative(a.rho);
    util::Vec3 force{};
    lnl.for_each_neighbor_of_runaway(ri, host, [&](const lat::ParticleView& p) {
      const util::Vec3 dv = p.r - a.r;
      const double r2 = dv.norm2();
      if (r2 > cut2 || r2 == 0.0) return;
      const double r = std::max(std::sqrt(r2), r_min);
      double dphi, df;
      phit.eval(r, nullptr, &dphi);
      ftab.eval(r, nullptr, &df);
      const double fp_p = embed.derivative(p.rho);
      force += dv * ((dphi + (fp_a + fp_p) * df) / r);
    });
    a.f = force;
  });

  ghosts.reverse_accumulate_force(comm);
}

}  // namespace mmd::md
