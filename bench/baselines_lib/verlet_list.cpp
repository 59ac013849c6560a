#include "baselines_lib/verlet_list.h"

#include <cmath>
#include <stdexcept>

namespace mmd::lat {

void VerletNeighborList::build(std::span<const util::Vec3> positions,
                               const util::Vec3& box) {
  // Bin with a linked-cell pass, then record all pairs within cutoff + skin.
  LinkedCellList cells(cutoff_ + skin_);
  cells.build(positions, box);
  const double r2 = (cutoff_ + skin_) * (cutoff_ + skin_);
  neighbors_.clear();
  starts_.assign(1, 0);
  starts_.reserve(positions.size() + 1);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    cells.for_each_neighbor(i, [&](std::size_t j, const util::Vec3& d) {
      if (d.norm2() <= r2) neighbors_.push_back(static_cast<std::int32_t>(j));
    });
    starts_.push_back(static_cast<std::int64_t>(neighbors_.size()));
  }
}

void LinkedCellList::build(std::span<const util::Vec3> positions,
                           const util::Vec3& box) {
  if (box.x < cutoff_ || box.y < cutoff_ || box.z < cutoff_) {
    throw std::invalid_argument("LinkedCellList: box smaller than cutoff");
  }
  box_ = box;
  ncx_ = std::max(1, static_cast<int>(box.x / cutoff_));
  ncy_ = std::max(1, static_cast<int>(box.y / cutoff_));
  ncz_ = std::max(1, static_cast<int>(box.z / cutoff_));
  positions_.assign(positions.begin(), positions.end());
  head_.assign(static_cast<std::size_t>(ncx_) * ncy_ * ncz_, -1);
  next_.assign(positions.size(), -1);
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    const auto c = cell_of(positions_[i]);
    const std::size_t ci = cell_index(c[0], c[1], c[2]);
    next_[i] = head_[ci];
    head_[ci] = static_cast<std::int32_t>(i);
  }
}

std::array<int, 3> LinkedCellList::cell_of(const util::Vec3& r) const {
  auto clampc = [](double x, double len, int n) {
    int c = static_cast<int>(std::floor(x / len * n));
    c %= n;
    return c < 0 ? c + n : c;
  };
  return {clampc(r.x, box_.x, ncx_), clampc(r.y, box_.y, ncy_),
          clampc(r.z, box_.z, ncz_)};
}

std::size_t LinkedCellList::cell_index(int x, int y, int z) const {
  auto mod = [](int v, int n) {
    const int m = v % n;
    return m < 0 ? m + n : m;
  };
  return (static_cast<std::size_t>(mod(z, ncz_)) * ncy_ + mod(y, ncy_)) * ncx_ +
         mod(x, ncx_);
}

util::Vec3 LinkedCellList::min_image(util::Vec3 d) const {
  d.x -= box_.x * std::nearbyint(d.x / box_.x);
  d.y -= box_.y * std::nearbyint(d.y / box_.y);
  d.z -= box_.z * std::nearbyint(d.z / box_.z);
  return d;
}

}  // namespace mmd::lat
