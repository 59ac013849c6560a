#include "lattice/ghost_exchange.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "comm/neighborhood.h"

namespace mmd::lat {

namespace {

using comm::tags::axis_side;

struct Range {
  int lo, hi;
};

// Canonical slab index list: iterate z, y, x ascending, two subs per cell.
std::vector<std::size_t> slab_indices(const LocalBox& b, Range xr, Range yr,
                                      Range zr) {
  std::vector<std::size_t> out;
  out.reserve(2ull * static_cast<std::size_t>(xr.hi - xr.lo) *
              static_cast<std::size_t>(yr.hi - yr.lo) *
              static_cast<std::size_t>(zr.hi - zr.lo));
  for (int z = zr.lo; z < zr.hi; ++z) {
    for (int y = yr.lo; y < yr.hi; ++y) {
      for (int x = xr.lo; x < xr.hi; ++x) {
        for (int sub = 0; sub <= 1; ++sub) {
          out.push_back(b.entry_index({x, y, z, sub}));
        }
      }
    }
  }
  return out;
}

}  // namespace

GhostExchange::GhostExchange(LatticeNeighborList& lnl,
                             const DomainDecomposition& dd, int rank)
    : lnl_(&lnl), rank_(rank) {
  const LocalBox& b = lnl.box();
  const BccGeometry& geo = lnl.geometry();
  const int h = b.halo;
  const auto grid = dd.grid();
  const auto coords = dd.coords_of(rank);
  const util::Vec3 L = geo.box_length();
  const int owned[3] = {b.lx, b.ly, b.lz};

  for (int axis = 0; axis < 3; ++axis) {
    // Extents on the other two axes grow as earlier phases fill the halo.
    auto cross_range = [&](int other_axis) -> Range {
      const int len = owned[other_axis];
      return other_axis < axis ? Range{-h, len + h} : Range{0, len};
    };
    Range xr{0, b.lx}, yr{0, b.ly}, zr{0, b.lz};
    Range* ranges[3] = {&xr, &yr, &zr};
    for (int o = 0; o < 3; ++o) {
      if (o != axis) *ranges[o] = cross_range(o);
    }
    for (int side = 0; side < 2; ++side) {
      Side& s = sides_[axis][side];
      const int dir = side == 0 ? -1 : +1;
      s.peer = dd.neighbor(rank, axis, dir);
      // Send slab: my border of width h on this side. Receive slab: my halo
      // on this side (filled by the peer's border from the opposite side).
      Range send_r = side == 0 ? Range{0, h} : Range{owned[axis] - h, owned[axis]};
      Range recv_r = side == 0 ? Range{-h, 0} : Range{owned[axis], owned[axis] + h};
      *ranges[axis] = send_r;
      s.send_idx = slab_indices(b, xr, yr, zr);
      *ranges[axis] = recv_r;
      s.recv_idx = slab_indices(b, xr, yr, zr);
      // Crossing the periodic boundary shifts positions by the box length.
      s.shift = {};
      const bool crossing = (side == 0 && coords[static_cast<std::size_t>(axis)] == 0) ||
                            (side == 1 && coords[static_cast<std::size_t>(axis)] ==
                                              grid[static_cast<std::size_t>(axis)] - 1);
      if (crossing) {
        const double l = axis == 0 ? L.x : (axis == 1 ? L.y : L.z);
        (axis == 0 ? s.shift.x : axis == 1 ? s.shift.y : s.shift.z) =
            side == 0 ? +l : -l;
      }
    }
  }
}

// Each phase is one nonblocking neighborhood round: both halo receives are
// posted before either aggregated send, and the two sides complete out of
// order. Entries and chains land in disjoint slabs so they unpack on
// arrival; emigrants are staged and merged in fixed side order, so the
// downstream adopt() sequence — and with it the trajectory — is independent
// of which neighbor answered first.
void GhostExchange::exchange(comm::Comm& comm, std::vector<RunawayAtom> emigrants) {
  lnl_->clear_ghosts();
  for (int axis = 0; axis < 3; ++axis) {
    std::array<std::vector<RunawayAtom>, 2> outbound;
    route_emigrants(axis, emigrants, outbound[0], outbound[1]);

    comm::NeighborhoodExchange nx(comm);
    for (int side = 0; side < 2; ++side) {
      // Channel index == side; my `side` halo is filled by that peer's
      // opposite-side send.
      nx.expect(sides_[axis][side].peer,
                axis_side(comm::tags::kGhostHalo, axis, 1 - side));
    }
    for (int side = 0; side < 2; ++side) {
      comm::SectionWriter w;
      pack_side(axis, side, std::move(outbound[static_cast<std::size_t>(side)]), w);
      bytes_sent_ += w.bytes().size();
      nx.send(sides_[axis][side].peer,
              axis_side(comm::tags::kGhostHalo, axis, side), w.bytes());
    }
    std::array<std::vector<RunawayAtom>, 2> arrived;
    nx.complete([&](std::size_t side, comm::Message&& m) {
      arrived[side] = unpack_side(axis, static_cast<int>(side), m);
    });
    for (const auto& a : arrived) {
      emigrants.insert(emigrants.end(), a.begin(), a.end());
    }
  }
  adopt(emigrants);
}

void GhostExchange::pack_side(int axis, int side,
                              std::vector<RunawayAtom> migrants,
                              comm::SectionWriter& w) const {
  const Side& s = sides_[axis][side];
  std::vector<AtomEntry> entries;
  entries.reserve(s.send_idx.size());
  std::vector<PackedRunaway> chains;
  for (std::size_t pos = 0; pos < s.send_idx.size(); ++pos) {
    AtomEntry e = lnl_->entry(s.send_idx[pos]);
    for (std::int32_t ri = e.runaway_head; ri != AtomEntry::kNoRunaway;
         ri = lnl_->runaway(ri).next) {
      PackedRunaway p{static_cast<std::int32_t>(pos), 0, lnl_->runaway(ri)};
      p.atom.r += s.shift;
      p.atom.next = AtomEntry::kNoRunaway;
      chains.push_back(p);
    }
    e.runaway_head = AtomEntry::kNoRunaway;
    e.r += s.shift;
    entries.push_back(e);
  }
  for (RunawayAtom& a : migrants) a.r += s.shift;
  w.add(std::span<const AtomEntry>(entries));
  w.add(std::span<const PackedRunaway>(chains));
  w.add(std::span<const RunawayAtom>(migrants));
}

std::vector<RunawayAtom> GhostExchange::unpack_side(int axis, int side,
                                                    const comm::Message& m) {
  const Side& s = sides_[axis][side];
  comm::SectionReader r(m.payload);
  auto entries = r.take<AtomEntry>();
  if (entries.size() != s.recv_idx.size()) {
    throw std::runtime_error("GhostExchange: slab size mismatch between peers");
  }
  for (std::size_t pos = 0; pos < entries.size(); ++pos) {
    entries[pos].runaway_head = AtomEntry::kNoRunaway;
    lnl_->entry(s.recv_idx[pos]) = entries[pos];
  }
  auto chains = r.take<PackedRunaway>();
  // add_runaway pushes at the head, so insert each host's nodes in reverse to
  // preserve the sender's chain order (exchange_rho depends on it).
  for (auto it = chains.rbegin(); it != chains.rend(); ++it) {
    lnl_->add_runaway(it->atom, s.recv_idx[static_cast<std::size_t>(it->slab_pos)]);
  }
  return r.take<RunawayAtom>();
}

void GhostExchange::route_emigrants(int axis, std::vector<RunawayAtom>& pending,
                                    std::vector<RunawayAtom>& low,
                                    std::vector<RunawayAtom>& high) const {
  const LocalBox& b = lnl_->box();
  const double a = lnl_->geometry().lattice_constant();
  const int origin[3] = {b.ox, b.oy, b.oz};
  const int owned[3] = {b.lx, b.ly, b.lz};
  std::vector<RunawayAtom> still;
  for (const RunawayAtom& r : pending) {
    const double coord = axis == 0 ? r.r.x : (axis == 1 ? r.r.y : r.r.z);
    const double cell = coord / a - origin[axis];
    if (cell < 0.0) {
      low.push_back(r);
    } else if (cell >= static_cast<double>(owned[axis])) {
      high.push_back(r);
    } else {
      still.push_back(r);
    }
  }
  pending.swap(still);
}

void GhostExchange::adopt(std::vector<RunawayAtom>& settled) {
  const double thr = lnl_->reattach_threshold();
  for (RunawayAtom& a : settled) {
    // Owned host always: a ghost-hosted chain node would vanish at the next
    // clear_ghosts(). Routing guarantees the position lies in an owned cell.
    const std::size_t host = lnl_->nearest_owned_entry(a.r);
    AtomEntry& h = lnl_->entry(host);
    if (h.is_vacancy() &&
        (a.r - lnl_->ideal_position(host)).norm2() <= thr * thr) {
      h.id = a.id;
      h.type = a.type;
      h.r = a.r;
      h.v = a.v;
      h.f = a.f;
      h.rho = a.rho;
    } else {
      a.next = AtomEntry::kNoRunaway;
      lnl_->add_runaway(a, host);
    }
  }
  settled.clear();
}

// Reverse accumulation ships each side's halo values (recv_idx lists) back
// to the peer, which ADDS them onto its border entries (send_idx lists).
// Axis order is reversed relative to the forward exchange so that corner
// halo contributions hop through the intermediate slabs. Both sides of an
// axis fly concurrently; the additions are applied in fixed side order
// because the two border slabs OVERLAP when the subdomain is thinner than
// two halo widths, and floating-point addition order must not depend on
// message arrival.
template <typename T, typename Get, typename Add>
void GhostExchange::reverse_accumulate_field(comm::Comm& comm, int base_tag,
                                             Get get, Add add) {
  for (int axis = 2; axis >= 0; --axis) {
    comm::NeighborhoodExchange nx(comm);
    for (int side = 0; side < 2; ++side) {
      nx.expect(sides_[axis][side].peer, axis_side(base_tag, axis, 1 - side));
    }
    for (int side = 0; side < 2; ++side) {
      const Side& s = sides_[axis][side];
      std::vector<T> vals;
      vals.reserve(s.recv_idx.size());
      for (std::size_t idx : s.recv_idx) vals.push_back(get(lnl_->entry(idx)));
      bytes_sent_ += vals.size() * sizeof(T);
      nx.send(s.peer, axis_side(base_tag, axis, side),
              std::as_bytes(std::span<const T>(vals)));
    }
    std::array<std::vector<T>, 2> in;
    nx.complete([&](std::size_t side, comm::Message&& m) {
      in[side] = comm::unpack<T>(m.payload);
    });
    for (int side = 0; side < 2; ++side) {
      const Side& s = sides_[axis][side];
      const auto& vals = in[static_cast<std::size_t>(side)];
      if (vals.size() != s.send_idx.size()) {
        throw std::runtime_error("GhostExchange: reverse slab size mismatch");
      }
      for (std::size_t pos = 0; pos < vals.size(); ++pos) {
        add(lnl_->entry(s.send_idx[pos]), vals[pos]);
      }
    }
  }
}

void GhostExchange::reverse_accumulate_rho(comm::Comm& comm) {
  reverse_accumulate_field<double>(
      comm, comm::tags::kGhostReverseRho,
      [](const AtomEntry& e) { return e.rho; },
      [](AtomEntry& e, double v) { e.rho += v; });
}

void GhostExchange::reverse_accumulate_force(comm::Comm& comm) {
  reverse_accumulate_field<util::Vec3>(
      comm, comm::tags::kGhostReverseForce,
      [](const AtomEntry& e) { return e.f; },
      [](AtomEntry& e, const util::Vec3& v) { e.f += v; });
}

void GhostExchange::exchange_rho(comm::Comm& comm) {
  // The y and z phases relay what x deposited in the halo, so each axis
  // completes before the next is posted; each is a concurrent two-sided round.
  for (int axis = 0; axis < 3; ++axis) {
    comm::NeighborhoodExchange nx(comm);
    for (int side = 0; side < 2; ++side) {
      nx.expect(sides_[axis][side].peer,
                axis_side(comm::tags::kGhostRho, axis, 1 - side));
    }
    for (int side = 0; side < 2; ++side) {
      const Side& s = sides_[axis][side];
      std::vector<double> rho;
      rho.reserve(s.send_idx.size());
      std::vector<double> chain_rho;
      for (std::size_t idx : s.send_idx) {
        const AtomEntry& e = lnl_->entry(idx);
        rho.push_back(e.rho);
        for (std::int32_t ri = e.runaway_head; ri != AtomEntry::kNoRunaway;
             ri = lnl_->runaway(ri).next) {
          chain_rho.push_back(lnl_->runaway(ri).rho);
        }
      }
      comm::SectionWriter w;
      w.add(std::span<const double>(rho));
      w.add(std::span<const double>(chain_rho));
      bytes_sent_ += w.bytes().size();
      nx.send(s.peer, axis_side(comm::tags::kGhostRho, axis, side), w.bytes());
    }
    nx.complete([&](std::size_t side, comm::Message&& m) {
      // The two sides' slabs are disjoint: unpack on arrival.
      const Side& s = sides_[axis][side];
      comm::SectionReader r(m.payload);
      auto rho = r.take<double>();
      auto chain_rho = r.take<double>();
      if (rho.size() != s.recv_idx.size()) {
        throw std::runtime_error("GhostExchange: rho slab size mismatch");
      }
      std::size_t ci = 0;
      for (std::size_t pos = 0; pos < rho.size(); ++pos) {
        AtomEntry& e = lnl_->entry(s.recv_idx[pos]);
        e.rho = rho[pos];
        for (std::int32_t ri = e.runaway_head; ri != AtomEntry::kNoRunaway;
             ri = lnl_->runaway(ri).next) {
          lnl_->runaway(ri).rho = chain_rho.at(ci++);
        }
      }
    });
  }
}

}  // namespace mmd::lat
