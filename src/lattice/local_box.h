#pragma once

#include <cstddef>
#include <cstdint>

namespace mmd::lat {

/// Local cell coordinates within one rank's storage: owned cells span
/// [0, l*) per axis; ghost (halo) cells extend to [-halo, l*+halo).
struct LocalCoord {
  int x = 0;
  int y = 0;
  int z = 0;
  int sub = 0;

  friend bool operator==(const LocalCoord&, const LocalCoord&) = default;
};

/// The cell-aligned subdomain owned by one rank, plus its halo. Storage is a
/// dense 3D array of (l+2*halo) cells per axis with two sites per cell, so
/// neighbor lookups reduce to constant flat-index deltas for every interior
/// site — the essence of the lattice neighbor list.
struct LocalBox {
  int ox = 0, oy = 0, oz = 0;  ///< global cell coords of owned origin
  int lx = 0, ly = 0, lz = 0;  ///< owned extent in unit cells
  int halo = 0;                ///< ghost shell width in unit cells

  int sx() const { return lx + 2 * halo; }
  int sy() const { return ly + 2 * halo; }
  int sz() const { return lz + 2 * halo; }

  std::size_t num_cells() const {
    return static_cast<std::size_t>(sx()) * sy() * sz();
  }
  std::size_t num_entries() const { return 2 * num_cells(); }
  std::size_t num_owned_sites() const {
    return 2ull * static_cast<std::size_t>(lx) * ly * lz;
  }

  /// Flat entry index of a local coordinate (must be inside storage).
  std::size_t entry_index(const LocalCoord& c) const {
    const std::size_t cell =
        (static_cast<std::size_t>(c.z + halo) * sy() + (c.y + halo)) * sx() +
        (c.x + halo);
    return 2 * cell + static_cast<std::size_t>(c.sub);
  }

  LocalCoord coord_of(std::size_t idx) const {
    LocalCoord c;
    c.sub = static_cast<int>(idx & 1);
    std::size_t cell = idx >> 1;
    c.x = static_cast<int>(cell % sx()) - halo;
    cell /= static_cast<std::size_t>(sx());
    c.y = static_cast<int>(cell % sy()) - halo;
    c.z = static_cast<int>(cell / sy()) - halo;
    return c;
  }

  bool owns(const LocalCoord& c) const {
    return c.x >= 0 && c.x < lx && c.y >= 0 && c.y < ly && c.z >= 0 && c.z < lz;
  }

  bool in_storage(const LocalCoord& c) const {
    return c.x >= -halo && c.x < lx + halo && c.y >= -halo && c.y < ly + halo &&
           c.z >= -halo && c.z < lz + halo && (c.sub == 0 || c.sub == 1);
  }

  /// Flat-index displacement of a cell offset (dx,dy,dz) plus sublattice
  /// change; valid for any central site whose neighbors stay in storage.
  std::int64_t flat_delta(int dx, int dy, int dz, int dsub) const {
    return 2 * ((static_cast<std::int64_t>(dz) * sy() + dy) * sx() + dx) + dsub;
  }
};

}  // namespace mmd::lat
