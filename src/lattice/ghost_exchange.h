#pragma once

#include <cstdint>
#include <vector>

#include "comm/world.h"
#include "lattice/decomposition.h"
#include "lattice/lattice_neighbor_list.h"

namespace mmd::lat {

/// Three-phase (x, then y, then z) face-neighbor ghost exchange for the
/// lattice neighbor list.
///
/// For the regularly distributed lattice points "the communication pattern is
/// static, which can be reused at each time step" (paper §2.1.1): the send
/// and receive entry-index lists are precomputed once. Run-away atoms ride
/// along as variable-length side messages, and run-aways whose nearest
/// lattice point left this rank's subdomain are routed to their new owner
/// during the same three phases (dimension-ordered routing handles edge and
/// corner crossings).
///
/// All paths are nonblocking neighborhood rounds (comm::NeighborhoodExchange):
/// within a phase both sides' receives are posted up front, each side's
/// categories (entries + run-away chains + emigrants, or rho + chain rho) are
/// aggregated into ONE message per peer, and completion is out of order.
/// The phases themselves stay sequential — later axes relay the corner data
/// that earlier axes deposited in the halo.
///
/// Positions are translated by +-L when a message crosses the periodic
/// boundary, which keeps every rank's storage in a continuous local frame.
class GhostExchange {
 public:
  GhostExchange(LatticeNeighborList& lnl, const DomainDecomposition& dd, int rank);

  /// Refresh all ghost entries and chains; route `emigrants` (run-aways that
  /// left the subdomain, from rehome_runaways) to their owners.
  void exchange(comm::Comm& comm, std::vector<RunawayAtom> emigrants = {});

  /// Refresh only the electron density (rho) of ghost entries and ghost
  /// run-away chains. Must be called after an `exchange()` with no chain
  /// mutations in between, so the ghost chain layout still mirrors the
  /// sender's.
  void exchange_rho(comm::Comm& comm);

  /// Reverse accumulation (the LAMMPS `reverse_comm` pattern): each rank's
  /// HALO values flow back to the owners and are ADDED to the owned
  /// entries, phases in reverse (z, y, x) order so corner contributions
  /// route through intermediate slabs. Only the selected field moves; ghost
  /// copies are garbage afterwards. Only the Newton-third-law baseline
  /// (bench/baselines_lib/newton_force.h) calls it; it lives here because
  /// it walks the exchange's private per-side plans.
  void reverse_accumulate_rho(comm::Comm& comm);
  void reverse_accumulate_force(comm::Comm& comm);

  /// Bytes sent by this rank over ALL ghost traffic so far — full exchanges,
  /// rho-only refreshes, and reverse accumulations — for the weak-scaling
  /// communication split and the telemetry fold.
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  struct Side {
    int peer = 0;                          ///< neighbor rank on this side
    util::Vec3 shift;                      ///< position shift applied when sending
    std::vector<std::size_t> send_idx;     ///< canonical slab order, sender view
    std::vector<std::size_t> recv_idx;     ///< canonical slab order, receiver view
  };

  /// Serialized run-away record: which slab entry hosts it plus the node.
  struct PackedRunaway {
    std::int32_t slab_pos;
    std::int32_t pad = 0;
    RunawayAtom atom;
  };

  /// Build one aggregated forward-exchange payload for (axis, side):
  /// sections are [entries][chains][emigrants], all position-shifted.
  void pack_side(int axis, int side, std::vector<RunawayAtom> migrants,
                 comm::SectionWriter& w) const;
  /// Unpack a forward payload into the (axis, side) halo slab; returns the
  /// emigrants riding along (adopted later, in fixed side order).
  std::vector<RunawayAtom> unpack_side(int axis, int side,
                                       const comm::Message& m);

  /// Shared reverse-accumulate driver: ship halo values of one field back to
  /// their owners and add, nonblocking per axis, fixed side-apply order.
  template <typename T, typename Get, typename Add>
  void reverse_accumulate_field(comm::Comm& comm, int base_tag, Get get,
                                Add add);

  /// Split emigrants into (low, high, keep-for-now) along `axis`.
  void route_emigrants(int axis, std::vector<RunawayAtom>& pending,
                       std::vector<RunawayAtom>& low,
                       std::vector<RunawayAtom>& high) const;
  void adopt(std::vector<RunawayAtom>& settled);

  LatticeNeighborList* lnl_;
  int rank_;
  Side sides_[3][2];  ///< [axis][0 = low, 1 = high]
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace mmd::lat
