// In-text memory claim (paper §3): with the lattice neighbor list the MD
// stage fits 4e12 atoms on the machine, where "using the traditional data
// structures (such as neighbor list), we only simulate about 8e11 atoms" —
// roughly a 5x memory advantage per atom.
//
// This harness measures actual per-atom heap bytes of the three structures
// on the same crystal and derives the max-atoms ratio for the paper's 8 GB
// core groups.

#include "bench_common.h"
#include "baselines_lib/verlet_list.h"
#include "lattice/lattice_neighbor_list.h"

using namespace mmd;

int main() {
  bench::title("Table (in-text)",
               "memory per atom: lattice neighbor list vs Verlet list vs linked cell");

  const double a = 2.855, cutoff = 5.0, skin = 0.6;
  std::printf("\n  %8s %22s %22s %22s\n", "atoms", "LNL [B/atom]",
              "Verlet list [B/atom]", "linked cell [B/atom]");

  double lnl_bpa = 0.0, verlet_bpa = 0.0, cell_bpa = 0.0;
  for (const int n : {8, 12, 16, 20}) {
    lat::BccGeometry geo(n, n, n, a);
    const auto atoms = static_cast<double>(geo.num_sites());

    lat::LocalBox box{0, 0, 0, n, n, n, 2};
    lat::LatticeNeighborList lnl(geo, box, cutoff + skin);
    lnl.fill_perfect(lat::Species::Fe);

    std::vector<util::Vec3> pos(static_cast<std::size_t>(geo.num_sites()));
    for (std::int64_t id = 0; id < geo.num_sites(); ++id) {
      pos[static_cast<std::size_t>(id)] = geo.position(geo.site_coord(id));
    }
    lat::VerletNeighborList verlet(cutoff, skin);
    verlet.build(pos, geo.box_length());
    lat::LinkedCellList cells(cutoff);
    cells.build(pos, geo.box_length());

    // Apples to apples: every structure also needs the per-atom state
    // (position/velocity/force/rho/id ~ 96 B); the difference is the
    // neighbor bookkeeping on top.
    constexpr double kAtomState = 96.0;
    lnl_bpa = static_cast<double>(lnl.memory_bytes()) / atoms;
    verlet_bpa = kAtomState + static_cast<double>(verlet.memory_bytes()) / atoms;
    cell_bpa = kAtomState + static_cast<double>(cells.memory_bytes()) / atoms;
    std::printf("  %8.0f %22.1f %22.1f %22.1f\n", atoms, lnl_bpa, verlet_bpa,
                cell_bpa);
  }

  std::printf("\n  Paper's capacity argument (8 GB per core group):\n");
  const double gb = 8.0 * (1ull << 30);
  bench::note("max atoms/CG with LNL          : %.3g", gb / lnl_bpa);
  bench::note("max atoms/CG with Verlet list  : %.3g", gb / verlet_bpa);
  bench::note("capacity ratio                 : %.1fx  (paper: 4e12 / 8e11 = 5x)",
              verlet_bpa / lnl_bpa);
  bench::note("LNL stores no neighbor indices at all: neighbors come from a");
  bench::note("fixed offset table shared by every lattice point, and the ghost");
  bench::note("halo is the only per-rank overhead.");
  return 0;
}
