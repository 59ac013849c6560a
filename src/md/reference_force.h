#pragma once

#include "lattice/lattice_neighbor_list.h"
#include "potential/eam.h"

namespace mmd::md {

/// Master-core (reference) EAM evaluation over the lattice neighbor list.
///
/// All arithmetic goes through the compacted interpolation tables — the same
/// tables and the same Hermite evaluation the slave-core kernels use — so the
/// accelerated strategies can be tested for exact agreement against this
/// path. Two-pass EAM:
///   pass 1: rho_i = sum_j f_{t_i t_j}(r_ij)           (+ ghost rho exchange)
///   pass 2: F_i  += [phi'(r) + (F'(rho_i) + F'(rho_j)) f'(r)] * d_hat
/// Forces are written for owned lattice atoms and owned run-away atoms; ghost
/// entries are read-only.
class ReferenceForce {
 public:
  explicit ReferenceForce(const pot::EamTableSet& tables) : tables_(&tables) {}

  /// Pass 1: electron density at every owned atom (lattice + run-away).
  void compute_rho(lat::LatticeNeighborList& lnl) const;

  /// Pass 2: forces on every owned atom. Requires rho valid on owned AND
  /// ghost entries (run exchange_rho between passes in parallel runs).
  void compute_forces(lat::LatticeNeighborList& lnl) const;

  /// Potential energy attributed to this rank's owned atoms:
  /// sum_i [ F(rho_i) + 1/2 sum_j phi(r_ij) ].
  double potential_energy(const lat::LatticeNeighborList& lnl) const;

  /// Embedding derivative F'(rho) for a species, via the tables.
  double fprime(int species, double rho) const {
    return tables_->embed_of(species).derivative(rho);
  }

  const pot::EamTableSet& tables() const { return *tables_; }

 private:
  const pot::EamTableSet* tables_;
};

}  // namespace mmd::md
