#include "baselines_lib/okmc.h"

#include <algorithm>
#include <cmath>

namespace mmd::kmc {

OkmcEngine::OkmcEngine(const OkmcConfig& cfg)
    : cfg_(cfg),
      geo_(cfg.nx, cfg.ny, cfg.nz, cfg.lattice_constant),
      rng_(cfg.seed),
      kT_(util::units::kBoltzmann * cfg.temperature),
      hop_dist_(std::sqrt(3.0) / 2.0 * cfg.lattice_constant) {}

void OkmcEngine::initialize(const std::vector<util::Vec3>& vacancy_positions) {
  objects_.clear();
  time_ = 0.0;
  events_ = 0;
  for (const util::Vec3& r : vacancy_positions) {
    objects_.push_back({wrap(r), 1});
    coalesce_around(objects_.size() - 1);
  }
}

double OkmcEngine::binding_energy(int size) const {
  if (size < 2) return 0.0;
  // Capillary law anchored at E_b(2) and approaching E_f for large n:
  // E_b(n) = E_f - (E_f - E_b2) * (n^(2/3) - (n-1)^(2/3)) / (2^(2/3) - 1).
  const double shape =
      (std::pow(static_cast<double>(size), 2.0 / 3.0) -
       std::pow(static_cast<double>(size - 1), 2.0 / 3.0)) /
      (std::pow(2.0, 2.0 / 3.0) - 1.0);
  return cfg_.formation_energy - (cfg_.formation_energy - cfg_.binding_e2) * shape;
}

double OkmcEngine::hop_rate(int size) const {
  const double barrier =
      cfg_.migration_barrier +
      cfg_.mobility_slope * std::log(static_cast<double>(size));
  return cfg_.prefactor * std::exp(-barrier / kT_);
}

double OkmcEngine::emission_rate(int size) const {
  if (size < 2) return 0.0;
  const double barrier = cfg_.migration_barrier + binding_energy(size);
  // A size-n cluster offers ~n surface vacancies as emission candidates.
  return static_cast<double>(size) * cfg_.prefactor * std::exp(-barrier / kT_);
}

util::Vec3 OkmcEngine::wrap(util::Vec3 r) const {
  const util::Vec3 box = geo_.box_length();
  r.x -= box.x * std::floor(r.x / box.x);
  r.y -= box.y * std::floor(r.y / box.y);
  r.z -= box.z * std::floor(r.z / box.z);
  return r;
}

void OkmcEngine::coalesce_around(std::size_t idx) {
  // Absorb every object within the sum of capture radii of `idx`; repeat
  // until stable (a merge grows the radius).
  bool merged = true;
  while (merged) {
    merged = false;
    for (std::size_t j = 0; j < objects_.size(); ++j) {
      if (j == idx) continue;
      const double reach =
          capture_radius(objects_[idx].size) + capture_radius(objects_[j].size);
      const double d2 = geo_.min_image(objects_[idx].r, objects_[j].r).norm2();
      if (d2 <= reach * reach) {
        // Size-weighted center of mass (minimum-image consistent).
        const auto wi = static_cast<double>(objects_[idx].size);
        const auto wj = static_cast<double>(objects_[j].size);
        const util::Vec3 d = geo_.min_image(objects_[idx].r, objects_[j].r);
        objects_[idx].r = wrap(objects_[idx].r + d * (wj / (wi + wj)));
        objects_[idx].size += objects_[j].size;
        objects_.erase(objects_.begin() + static_cast<std::ptrdiff_t>(j));
        if (j < idx) --idx;
        merged = true;
        break;
      }
    }
  }
}

bool OkmcEngine::step() {
  if (objects_.empty()) return false;
  // BKL over 2 event classes per object: hop, emission.
  double total = 0.0;
  for (const Object& o : objects_) {
    total += hop_rate(o.size) + emission_rate(o.size);
  }
  if (total <= 0.0) return false;
  time_ += -std::log(std::max(rng_.uniform(), 1e-300)) / total;
  double pick = rng_.uniform() * total;
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    const double h = hop_rate(objects_[i].size);
    const double e = emission_rate(objects_[i].size);
    if (pick < h) {
      objects_[i].r = wrap(objects_[i].r + rng_.unit_vector() * hop_dist_);
      coalesce_around(i);
      ++events_;
      return true;
    }
    pick -= h;
    if (pick < e) {
      // Emit a monovacancy just outside the capture radius, shrink the
      // cluster by one.
      const util::Vec3 dir = rng_.unit_vector();
      const double out = capture_radius(objects_[i].size) +
                         capture_radius(1) + 0.51 * hop_dist_;
      Object mono{wrap(objects_[i].r + dir * out), 1};
      objects_[i].size -= 1;
      if (objects_[i].size == 0) {
        objects_[i] = mono;  // a size-1 "cluster" emitting is just a hop
      } else {
        objects_.push_back(mono);
        coalesce_around(objects_.size() - 1);
      }
      ++events_;
      return true;
    }
    pick -= e;
  }
  // Numerical edge: attribute to the last object as a hop.
  objects_.back().r = wrap(objects_.back().r + rng_.unit_vector() * hop_dist_);
  coalesce_around(objects_.size() - 1);
  ++events_;
  return true;
}

void OkmcEngine::run_events(int n) {
  for (int i = 0; i < n; ++i) {
    if (!step()) return;
  }
}

void OkmcEngine::run_until(double t_s) {
  while (time_ < t_s) {
    if (!step()) return;
  }
}

std::int64_t OkmcEngine::total_vacancies() const {
  std::int64_t n = 0;
  for (const Object& o : objects_) n += o.size;
  return n;
}

util::Histogram OkmcEngine::size_histogram() const {
  util::Histogram h;
  for (const Object& o : objects_) h.add(o.size);
  return h;
}

double OkmcEngine::mean_cluster_size() const {
  if (objects_.empty()) return 0.0;
  return static_cast<double>(total_vacancies()) /
         static_cast<double>(objects_.size());
}

}  // namespace mmd::kmc
