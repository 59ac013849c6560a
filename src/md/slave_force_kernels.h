#pragma once

#include <cstdint>

#include "util/vec3.h"

// Internal interface between the slave-core sweep driver (slave_force.cpp)
// and the vectorized block kernels (slave_force_simd.cpp). The two TUs are
// compiled with different target flags (-mavx2 -mfma only on the SIMD one),
// so everything crossing the boundary is a POD and all kernels are out of
// line — no inline function may be defined here, or the mixed codegen would
// be an ODR hazard.

namespace mmd::md::detail {

/// A compact table staged resident in the local store with edge-replicated
/// padding: `padded[j + 2]` holds nominal sample j, `padded[0..1]` replicate
/// sample 0 and the last three slots replicate sample n-1. With that layout
/// the clamped 6-sample window of segment i is the contiguous run
/// `padded[i..i+5]` — six vector gathers, no per-lane clamping of the window
/// indices (only of i itself).
struct SimdTable {
  const double* padded = nullptr;
  double x_min = 0.0;
  double dx = 1.0;
  double xmin_over_dx = 0.0;  ///< x_min/dx, matching CompactTable::param
  std::int32_t last_segment = 0;  ///< segments - 1 (clamp bound for i)
};

/// Pointers to the SoA window planes staged in the local store. Each plane is
/// laid out `[sub][window_row][cell]` with `row_cells` doubles per row, rows
/// back-to-back, and a >= 4-double zeroed tail pad so full-width remainder
/// loads stay inside the allocation.
struct WindowPlanes {
  const double* x = nullptr;
  const double* y = nullptr;
  const double* z = nullptr;
  const double* fprime = nullptr;  ///< null in the rho stage
  const double* id = nullptr;
};

/// One block of central cells: both sublattices, `bw` cells along x.
/// `central_base[sub] + xi` is the plane index of central cell xi;
/// `deltas[sub][j] + xi` is the plane index of its j-th stencil neighbor
/// (the offsets are absolute within the window, so neighbor loads are plain
/// unit-stride unaligned vector loads).
struct BlockArgs {
  WindowPlanes w;
  std::int32_t central_base[2] = {0, 0};
  const std::int32_t* deltas[2] = {nullptr, nullptr};
  std::int32_t num_deltas[2] = {0, 0};
  double cut2 = 0.0;
  double r_min = 0.0;
  std::int32_t bw = 0;
};

/// True when the AVX2+FMA kernels were compiled in AND this CPU executes
/// them (runtime __builtin_cpu_supports check).
bool simd_available();

/// Block kernels. `out` is the interleaved per-entry staging buffer of the
/// block (`out[xi * 2 + sub]`), exactly what the result DMA put ships.
/// Contract: bit-identical per atom regardless of block width or lane
/// position (lane-independent arithmetic, masked remainder lanes).
void simd_rho_block(const BlockArgs& a, const SimdTable& f, double* out);
void simd_pair_block(const BlockArgs& a, const SimdTable& phi, util::Vec3* out);
void simd_dens_block(const BlockArgs& a, const SimdTable& f, util::Vec3* out);
void simd_fused_block(const BlockArgs& a, const SimdTable& phi,
                      const SimdTable& f, util::Vec3* out);

}  // namespace mmd::md::detail
