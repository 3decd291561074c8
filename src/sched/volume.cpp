#include "sched/volume.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace corp::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

double unused_volume(const ResourceVector& available,
                     const ResourceVector& max_capacity) {
  double volume = 0.0;
  for (std::size_t k = 0; k < trace::kNumResources; ++k) {
    const double cap = max_capacity[k];
    if (cap > 0.0) volume += available[k] / cap;
  }
  return volume;
}

std::optional<std::size_t> most_matched(
    std::span<const VmAvailability> candidates, const ResourceVector& demand,
    const ResourceVector& max_capacity) {
  std::optional<std::size_t> best;
  double best_volume = kInf;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!demand.fits_within(candidates[i].available)) continue;
    const double volume =
        unused_volume(candidates[i].available, max_capacity);
    if (volume < best_volume) {
      best_volume = volume;
      best = i;
    }
  }
  return best;
}

CandidatePool::CandidatePool(const ResourceVector& max_capacity)
    : max_capacity_(max_capacity) {}

void CandidatePool::reserve(std::size_t n) {
  ids_.reserve(n);
  available_.reserve(n);
  volume_.reserve(n);
  const std::size_t blocks = (n + kBlockSize - 1) / kBlockSize;
  block_min_volume_.reserve(blocks);
  block_max_.reserve(blocks);
}

void CandidatePool::reset(const ResourceVector& max_capacity) {
  max_capacity_ = max_capacity;
  ids_.clear();
  available_.clear();
  volume_.clear();
  block_min_volume_.clear();
  block_max_.clear();
  scanned_ = 0;
}

void CandidatePool::add(std::uint32_t vm_id, const ResourceVector& available) {
  if (ids_.size() % kBlockSize == 0) {
    block_min_volume_.push_back(kInf);
    block_max_.push_back(ResourceVector::filled(-kInf));
  }
  ids_.push_back(vm_id);
  available_.push_back(available);
  volume_.push_back(unused_volume(available, max_capacity_));
  fold(ids_.size() - 1);
}

void CandidatePool::fold(std::size_t i) {
  const std::size_t b = i / kBlockSize;
  // A NaN volume never wins, so it must not lower the minimum.
  if (volume_[i] < block_min_volume_[b]) block_min_volume_[b] = volume_[i];
  // A NaN component passes fits_within (`d > NaN + eps` is false), so
  // the summary must pass it too.
  ResourceVector& max = block_max_[b];
  for (std::size_t k = 0; k < trace::kNumResources; ++k) {
    const double a = available_[i][k];
    max[k] = std::max(max[k], std::isnan(a) ? kInf : a);
  }
}

void CandidatePool::rebuild_block(std::size_t b) {
  block_min_volume_[b] = kInf;
  block_max_[b] = ResourceVector::filled(-kInf);
  const std::size_t end = std::min(size(), (b + 1) * kBlockSize);
  for (std::size_t i = b * kBlockSize; i < end; ++i) fold(i);
}

std::optional<std::size_t> CandidatePool::best(const ResourceVector& demand) {
  std::optional<std::size_t> best;
  double best_volume = kInf;
  for (std::size_t b = 0; b < block_min_volume_.size(); ++b) {
    if (block_min_volume_[b] >= best_volume) continue;
    if (!demand.fits_within(block_max_[b])) continue;
    const std::size_t end = std::min(size(), (b + 1) * kBlockSize);
    for (std::size_t i = b * kBlockSize; i < end; ++i) {
      if (!(volume_[i] < best_volume)) continue;
      ++scanned_;
      if (!demand.fits_within(available_[i])) continue;
      best_volume = volume_[i];
      best = i;
    }
  }
  return best;
}

void CandidatePool::ties(std::size_t first, const ResourceVector& demand,
                         std::vector<std::size_t>& out) {
  out.assign(1, first);
  const double volume = volume_[first];
  for (std::size_t b = first / kBlockSize; b < block_min_volume_.size();
       ++b) {
    if (block_min_volume_[b] > volume) continue;
    if (!demand.fits_within(block_max_[b])) continue;
    const std::size_t end = std::min(size(), (b + 1) * kBlockSize);
    for (std::size_t i = std::max(b * kBlockSize, first + 1); i < end; ++i) {
      if (volume_[i] != volume) continue;
      ++scanned_;
      if (demand.fits_within(available_[i])) out.push_back(i);
    }
  }
}

void CandidatePool::consume(std::size_t i, const ResourceVector& amount) {
  available_[i] -= amount;
  available_[i] = available_[i].clamped_non_negative();
  volume_[i] = unused_volume(available_[i], max_capacity_);
  rebuild_block(i / kBlockSize);
}

std::optional<std::size_t> random_feasible(
    std::span<const VmAvailability> candidates, const ResourceVector& demand,
    double pick) {
  // Two passes instead of a feasible-index list: count, then walk to the
  // selected feasible candidate.
  std::size_t feasible = 0;
  for (const VmAvailability& candidate : candidates) {
    if (demand.fits_within(candidate.available)) ++feasible;
  }
  if (feasible == 0) return std::nullopt;
  const double clamped = std::clamp(pick, 0.0, 1.0 - 1e-12);
  const std::size_t target = std::min(
      static_cast<std::size_t>(clamped * static_cast<double>(feasible)),
      feasible - 1);
  std::size_t seen = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!demand.fits_within(candidates[i].available)) continue;
    if (seen == target) return i;
    ++seen;
  }
  return std::nullopt;  // unreachable: target < feasible
}

}  // namespace corp::sched
