// Ablation (paper §2.1.2 alternative + §5 future-work suggestion): alloy
// tables do not all fit one 64 KB local store. Compare, per EAM table
// lookup, the modeled cost of:
//   (a) resident compacted table        (the paper's choice for the majority
//                                        species — zero per-lookup traffic),
//   (b) register-mesh sharded table     (the rejected-then-suggested layout:
//                                        table split across the 64 CPEs,
//                                        6-sample windows pulled one-sided),
//   (c) per-lookup main-memory DMA      (window fetch, what a non-resident
//                                        compact table costs),
//   (d) traditional coefficient row DMA (the unoptimized baseline).
// Emits BENCH_micro_register_sharding.json for tools/mmd_perf_diff.

#include "bench_common.h"
#include "harness.h"
#include "potential/eam.h"
#include "potential/sharded_table.h"
#include "potential/table_access.h"
#include "sunway/dma.h"
#include "sunway/local_store.h"
#include "util/rng.h"

using namespace mmd;

namespace {

const pot::EamTableSet& tables() {
  static const pot::EamTableSet t =
      pot::EamTableSet::build(pot::EamModel::iron_copper(), 5000);
  return t;
}

}  // namespace

int main() {
  bench::title("micro_register_sharding",
               "alloy-table layouts: resident vs sharded vs DMA per lookup");
  bench::BenchHarness h("micro_register_sharding");

  {
    sw::RegisterMesh mesh;
    pot::ShardedTableAccess access(tables().f(0, 1), mesh, /*my_core=*/27);
    util::Rng rng(5);
    double x = 0;
    std::uint64_t lookups = 0;
    h.time_per_op("sharded_register_lookup", [&] {
      double v, d;
      access.eval(1.5 + 3.4 * rng.uniform(), &v, &d);
      x += v;
      ++lookups;
    });
    bench::keep(x);
    const auto s = mesh.total_stats();
    h.add_value("sharded_mesh_msgs_per_lookup", "msgs",
                static_cast<double>(s.messages) /
                    static_cast<double>(std::max<std::uint64_t>(1, lookups)));
    h.add_value("sharded_modeled_ns_per_lookup", "ns/op",
                1e9 * mesh.modeled_time(27) /
                    static_cast<double>(std::max<std::uint64_t>(1, lookups)));
  }

  {
    sw::LocalStore store;
    sw::DmaEngine dma;
    pot::CompactTableAccess access(tables().f(0, 1), store, dma, true);
    util::Rng rng(5);
    double x = 0;
    h.time_per_op("resident_lookup_baseline", [&] {
      double v, d;
      access.eval(1.5 + 3.4 * rng.uniform(), &v, &d);
      x += v;
    });
    bench::keep(x);
  }

  {
    sw::LocalStore store(512);  // no residency possible
    sw::DmaEngine dma;
    pot::CompactTableAccess access(tables().f(0, 1), store, dma, true);
    util::Rng rng(5);
    double x = 0;
    std::uint64_t lookups = 0;
    h.time_per_op("main_memory_window_dma", [&] {
      double v, d;
      access.eval(1.5 + 3.4 * rng.uniform(), &v, &d);
      x += v;
      ++lookups;
    });
    bench::keep(x);
    h.add_value("window_dma_modeled_ns_per_lookup", "ns/op",
                1e9 * dma.modeled_time() /
                    static_cast<double>(std::max<std::uint64_t>(1, lookups)));
  }

  {
    sw::DmaEngine dma;
    const auto phi = tables().phi(0, 0).to_coefficients();
    pot::CoefficientTableAccess access(phi, dma);
    util::Rng rng(5);
    double x = 0;
    std::uint64_t lookups = 0;
    h.time_per_op("traditional_row_dma", [&] {
      double v, d;
      access.eval(1.5 + 3.4 * rng.uniform(), &v, &d);
      x += v;
      ++lookups;
    });
    bench::keep(x);
    h.add_value("traditional_row_dma_modeled_ns_per_lookup", "ns/op",
                1e9 * dma.modeled_time() /
                    static_cast<double>(std::max<std::uint64_t>(1, lookups)));
  }

  return h.write();
}
