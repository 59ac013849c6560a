// Microbenchmarks (BenchHarness) for the lattice data structures: neighbor
// iteration over the lattice neighbor list vs the Verlet-list and linked-cell
// baselines, and the run-away bookkeeping ablation the paper calls out
// against [Hu 2017] — linked lists (O(N) re-homing via chained hosts) vs a
// flat array of run-aways (O(N^2) mutual search). Emits
// BENCH_micro_structures.json for tools/mmd_perf_diff.

#include <vector>

#include "bench_common.h"
#include "harness.h"
#include "baselines_lib/verlet_list.h"
#include "lattice/lattice_neighbor_list.h"
#include "util/rng.h"

using namespace mmd;

namespace {

constexpr double kA = 2.855;
constexpr double kCut = 5.0;

struct Crystal {
  lat::BccGeometry geo{12, 12, 12, kA};
  lat::LatticeNeighborList lnl{geo, lat::LocalBox{0, 0, 0, 12, 12, 12, 2}, kCut};
  std::vector<util::Vec3> pos;

  Crystal() {
    lnl.fill_perfect(lat::Species::Fe);
    pos.resize(static_cast<std::size_t>(geo.num_sites()));
    for (std::int64_t id = 0; id < geo.num_sites(); ++id) {
      pos[static_cast<std::size_t>(id)] = geo.position(geo.site_coord(id));
    }
  }
};

Crystal& crystal() {
  static Crystal c;
  return c;
}

}  // namespace

int main() {
  bench::title("micro_structures",
               "lattice neighbor structures and run-away bookkeeping ablation");
  bench::BenchHarness h("micro_structures");
  auto& c = crystal();

  // One op = one full-lattice neighbor sweep, so the per-op time is
  // comparable across the three structures at identical geometry.
  {
    double acc = 0.0;
    h.time_per_op("lnl_neighbor_sweep", [&] {
      for (std::size_t idx : c.lnl.owned_indices()) {
        c.lnl.for_each_neighbor_of_entry(
            idx, [&](const lat::ParticleView& p) { acc += p.r.x; });
      }
    });
    bench::keep(acc);
  }

  {
    lat::VerletNeighborList verlet(kCut, 0.6);
    verlet.build(c.pos, c.geo.box_length());
    double acc = 0.0;
    h.time_per_op("verlet_neighbor_sweep", [&] {
      for (std::size_t i = 0; i < c.pos.size(); ++i) {
        for (std::int32_t j : verlet.neighbors(i)) {
          acc += c.pos[static_cast<std::size_t>(j)].x;
        }
      }
    });
    bench::keep(acc);
  }

  {
    lat::VerletNeighborList verlet(kCut, 0.6);
    h.time_per_op("verlet_rebuild",
                  [&] { verlet.build(c.pos, c.geo.box_length()); });
    bench::keep(verlet);
  }

  {
    lat::LinkedCellList cells(kCut);
    double acc = 0.0;
    h.time_per_op("linked_cell_sweep", [&] {
      cells.build(c.pos, c.geo.box_length());  // rebuilt every step (IMD-style)
      for (std::size_t i = 0; i < c.pos.size(); ++i) {
        cells.for_each_neighbor(i, [&](std::size_t, const util::Vec3& d) {
          acc += d.x;
        });
      }
    });
    bench::keep(acc);
  }

  // Ablation: run-away neighbor discovery with chained hosts (the paper's
  // improvement) — each run-away checks only the chains in its host's
  // neighbor region. Detachment is done once per run-away count; the
  // iteration itself does not mutate the list.
  for (const int n_runaways : {16, 64, 256}) {
    lat::BccGeometry geo(12, 12, 12, kA);
    lat::LatticeNeighborList lnl(geo, lat::LocalBox{0, 0, 0, 12, 12, 12, 2}, kCut);
    lnl.fill_perfect(lat::Species::Fe);
    util::Rng rng(7);
    for (int i = 0; i < n_runaways; ++i) {
      const auto idx = lnl.box().entry_index(
          {static_cast<int>(rng.uniform_index(12)),
           static_cast<int>(rng.uniform_index(12)),
           static_cast<int>(rng.uniform_index(12)), 0});
      if (lnl.entry(idx).is_atom()) lnl.detach(idx);
    }
    double acc = 0.0;
    h.time_per_op("runaway_chained_rehome_" + std::to_string(n_runaways), [&] {
      lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
        lnl.for_each_neighbor_of_runaway(
            ri, host, [&](const lat::ParticleView& p) { acc += p.rho; });
      });
    });
    bench::keep(acc);
  }

  // Ablation baseline: flat-array run-aways with no positional linkage —
  // every run-away must test every other run-away (the O(N^2) cost of
  // [Hu 2017]).
  for (const int n_runaways : {16, 64, 256}) {
    util::Rng rng(7);
    std::vector<util::Vec3> runaways;
    runaways.reserve(static_cast<std::size_t>(n_runaways));
    for (int i = 0; i < n_runaways; ++i) {
      runaways.push_back({rng.uniform(0, 12 * kA), rng.uniform(0, 12 * kA),
                          rng.uniform(0, 12 * kA)});
    }
    const double cut2 = kCut * kCut;
    double acc = 0.0;
    h.time_per_op("runaway_flat_array_pairs_" + std::to_string(n_runaways), [&] {
      for (std::size_t i = 0; i < runaways.size(); ++i) {
        for (std::size_t j = 0; j < runaways.size(); ++j) {
          if (i != j && (runaways[i] - runaways[j]).norm2() < cut2) acc += 1.0;
        }
      }
    });
    bench::keep(acc);
  }

  return h.write();
}
