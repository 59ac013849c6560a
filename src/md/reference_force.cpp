#include "md/reference_force.h"

#include <algorithm>
#include <cmath>

namespace mmd::md {

namespace {

int sp(lat::Species s) { return static_cast<int>(s); }

}  // namespace

void ReferenceForce::compute_rho(lat::LatticeNeighborList& lnl) const {
  const double cut2 = tables_->cutoff * tables_->cutoff;
  const double r_min = tables_->r_min;
  auto accumulate = [&](const util::Vec3& r0, int t0, auto&& visit) {
    double rho = 0.0;
    visit([&](const lat::ParticleView& p) {
      const double r2 = (p.r - r0).norm2();
      if (r2 > cut2) return;
      const double r = std::max(std::sqrt(r2), r_min);
      rho += tables_->f(t0, sp(p.type)).value(r);
    });
    return rho;
  };
  for (std::size_t idx : lnl.owned_indices()) {
    lat::AtomEntry& e = lnl.entry(idx);
    if (!e.is_atom()) continue;
    e.rho = accumulate(e.r, sp(e.type), [&](auto&& f) {
      lnl.for_each_neighbor_of_entry(idx, f);
    });
  }
  lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
    lat::RunawayAtom& a = lnl.runaway(ri);
    a.rho = accumulate(a.r, sp(a.type), [&](auto&& f) {
      lnl.for_each_neighbor_of_runaway(ri, host, f);
    });
  });
}

namespace {

/// The pass-2 per-particle kernel, shared by the entry and run-away drivers.
template <typename Visit>
util::Vec3 eam_force_on(const pot::EamTableSet& tables, const util::Vec3& r0,
                        int t0, double rho0, Visit&& visit) {
  const double cut2 = tables.cutoff * tables.cutoff;
  const double r_min = tables.r_min;
  const double fp0 = tables.embed_of(t0).derivative(rho0);
  util::Vec3 force;
  visit([&](const lat::ParticleView& p) {
    const util::Vec3 d = p.r - r0;
    const double r2 = d.norm2();
    if (r2 > cut2 || r2 == 0.0) return;
    const double r = std::max(std::sqrt(r2), r_min);
    const int t1 = sp(p.type);
    double dphi, df;
    tables.phi(t0, t1).eval(r, nullptr, &dphi);
    tables.f(t0, t1).eval(r, nullptr, &df);
    const double fp1 = tables.embed_of(t1).derivative(p.rho);
    const double scale = (dphi + (fp0 + fp1) * df) / r;
    force += d * scale;
  });
  return force;
}

}  // namespace

void ReferenceForce::compute_forces(lat::LatticeNeighborList& lnl) const {
  for (std::size_t idx : lnl.owned_indices()) {
    lat::AtomEntry& e = lnl.entry(idx);
    if (!e.is_atom()) continue;
    e.f = eam_force_on(*tables_, e.r, sp(e.type), e.rho, [&](auto&& f) {
      lnl.for_each_neighbor_of_entry(idx, f);
    });
  }
  lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
    lat::RunawayAtom& a = lnl.runaway(ri);
    a.f = eam_force_on(*tables_, a.r, sp(a.type), a.rho, [&](auto&& f) {
      lnl.for_each_neighbor_of_runaway(ri, host, f);
    });
  });
}

double ReferenceForce::potential_energy(const lat::LatticeNeighborList& lnl) const {
  const double cut2 = tables_->cutoff * tables_->cutoff;
  const double r_min = tables_->r_min;
  auto energy_of = [&](const util::Vec3& r0, int t0, double rho0, auto&& visit) {
    double e = tables_->embed_of(t0).value(rho0);
    visit([&](const lat::ParticleView& p) {
      const double r2 = (p.r - r0).norm2();
      if (r2 > cut2 || r2 == 0.0) return;
      const double r = std::max(std::sqrt(r2), r_min);
      e += 0.5 * tables_->phi(t0, sp(p.type)).value(r);
    });
    return e;
  };
  double total = 0.0;
  for (std::size_t idx : lnl.owned_indices()) {
    const lat::AtomEntry& e = lnl.entry(idx);
    if (!e.is_atom()) continue;
    total += energy_of(e.r, sp(e.type), e.rho, [&](auto&& f) {
      lnl.for_each_neighbor_of_entry(idx, f);
    });
  }
  lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
    const lat::RunawayAtom& a = lnl.runaway(ri);
    total += energy_of(a.r, sp(a.type), a.rho, [&](auto&& f) {
      lnl.for_each_neighbor_of_runaway(ri, host, f);
    });
  });
  return total;
}

}  // namespace mmd::md
