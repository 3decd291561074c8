// Unused-resource volume and most-matched VM selection (Eq. 22).
//
//   volume_j = sum_k r_hat_{jk} / C'_k
//
// where C' is the component-wise maximum VM capacity in the cluster. Among
// the VMs whose available vector satisfies the entity's demand, the one
// with the SMALLEST volume is the "most matched" — it leaves the least
// stranded capacity behind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "trace/resources.hpp"

namespace corp::sched {

using trace::ResourceVector;

/// One candidate VM's availability snapshot.
struct VmAvailability {
  std::uint32_t vm_id = 0;
  ResourceVector available;
};

/// Eq. 22. `max_capacity` must be strictly positive in every component.
double unused_volume(const ResourceVector& available,
                     const ResourceVector& max_capacity);

/// Index (into `candidates`) of the feasible VM with the smallest volume,
/// or nullopt when no candidate satisfies `demand`. Ties resolve to the
/// first candidate. The linear reference scan; placement uses
/// CandidatePool, which returns the same index.
std::optional<std::size_t> most_matched(
    std::span<const VmAvailability> candidates, const ResourceVector& demand,
    const ResourceVector& max_capacity);

/// Exact block index over one candidate pool of the Eq. 22 rule.
///
/// Candidates are held as structure-of-arrays (ids, available vectors,
/// and each vector's cached unused_volume) and grouped into fixed
/// kBlockSize-entry blocks. Each block keeps two summaries: the minimum
/// cached volume (NaN volumes excluded) and the component-wise maximum
/// available vector (a NaN component counts as +inf). best() walks the
/// blocks in index order and skips a block that cannot hold a strictly
/// better feasible candidate, so it returns exactly the index
/// most_matched returns over the same candidates:
///  - the strict `<` keeps the first minimum, as the linear scan does;
///  - IEEE rounding is monotone, so `d > max + eps` implies `d > a + eps`
///    for every candidate in the block;
///  - a NaN volume is never `<` anything, so neither path chooses it.
class CandidatePool {
 public:
  /// Candidates per block summary. A constant, not a tuning knob.
  static constexpr std::size_t kBlockSize = 64;

  /// `max_capacity` is the Eq. 22 normalizer (see unused_volume).
  explicit CandidatePool(const ResourceVector& max_capacity);

  void reserve(std::size_t n);

  /// Empties the pool and sets its normalizer, keeping the storage so a
  /// pool refilled on every place() call does not allocate again.
  void reset(const ResourceVector& max_capacity);

  /// Appends a candidate at index size().
  void add(std::uint32_t vm_id, const ResourceVector& available);

  std::size_t size() const { return ids_.size(); }
  std::uint32_t vm_id(std::size_t i) const { return ids_[i]; }
  const ResourceVector& available(std::size_t i) const {
    return available_[i];
  }

  /// most_matched over the current candidates: the index of the first
  /// feasible candidate with the smallest volume, or nullopt.
  std::optional<std::size_t> best(const ResourceVector& demand);

  /// Replaces `out` with `first` and, in index order, every later
  /// candidate that satisfies `demand` with exactly `first`'s volume.
  /// With `first` = best(demand) this is the whole tie set: no feasible
  /// candidate before the first minimum can share its volume.
  void ties(std::size_t first, const ResourceVector& demand,
            std::vector<std::size_t>& out);

  /// Subtracts `amount` from candidate `i` and clamps at zero (the
  /// tentative in-batch consumption), then refreshes its cached volume
  /// and its block's summaries.
  void consume(std::size_t i, const ResourceVector& amount);

  /// Candidates whose feasibility best()/ties() have tested since the
  /// last reset().
  std::uint64_t scanned() const { return scanned_; }

 private:
  /// Resets block `b`'s summaries and folds its candidates back in.
  void rebuild_block(std::size_t b);
  /// Folds candidate `i` into its block's summaries.
  void fold(std::size_t i);

  ResourceVector max_capacity_;
  std::vector<std::uint32_t> ids_;
  std::vector<ResourceVector> available_;
  std::vector<double> volume_;
  std::vector<double> block_min_volume_;
  std::vector<ResourceVector> block_max_;
  std::uint64_t scanned_ = 0;
};

/// Index of a uniformly random feasible candidate (the RCCR / CloudScale /
/// DRA placement rule: "randomly chose a VM that can satisfy the resource
/// demands"), or nullopt when none fits. `pick` must be a uniform draw in
/// [0, 1).
std::optional<std::size_t> random_feasible(
    std::span<const VmAvailability> candidates, const ResourceVector& demand,
    double pick);

}  // namespace corp::sched
