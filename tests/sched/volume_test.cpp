#include "sched/volume.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace corp::sched {
namespace {

TEST(VolumeTest, Eq22PaperExample) {
  // Sec. III-B: C' = <25, 2, 30>; VM1 unused <5, 0, 20> -> 0.867.
  const ResourceVector max_cap(25, 2, 30);
  EXPECT_NEAR(unused_volume(ResourceVector(5, 0, 20), max_cap), 0.8667,
              1e-3);
  EXPECT_NEAR(unused_volume(ResourceVector(10, 1, 10), max_cap), 1.2333,
              1e-3);
  EXPECT_NEAR(unused_volume(ResourceVector(20, 2, 30), max_cap), 2.8, 1e-3);
  EXPECT_NEAR(unused_volume(ResourceVector(10, 1, 8.5), max_cap), 1.1833,
              1e-3);
}

TEST(VolumeTest, ZeroCapacityComponentSkipped) {
  EXPECT_DOUBLE_EQ(
      unused_volume(ResourceVector(5, 5, 5), ResourceVector(10, 0, 10)),
      1.0);
}

std::vector<VmAvailability> paper_vms() {
  // The Fig. 5 walk-through: four VMs with the listed unused vectors.
  return {{1, ResourceVector(5, 0, 20)},
          {2, ResourceVector(10, 1, 10)},
          {3, ResourceVector(20, 2, 30)},
          {4, ResourceVector(10, 1, 8.5)}};
}

TEST(MostMatchedTest, ReproducesPaperEntityPlacement) {
  const ResourceVector max_cap(25, 2, 30);
  // Entity (job3, job4) demand: feasible on VM2 and VM3 only; VM2's
  // volume (1.233) < VM3's (2.8) -> pick VM2 (index 1).
  const ResourceVector entity_34(8, 1, 9);
  const auto pick = most_matched(paper_vms(), entity_34, max_cap);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(paper_vms()[*pick].vm_id, 2u);
}

TEST(MostMatchedTest, SecondEntityPrefersVm4) {
  const ResourceVector max_cap(25, 2, 30);
  // Entity (job5, job6): feasible on VM2, VM3, VM4; VM4's volume is the
  // smallest (1.183 < 1.233 < 2.8).
  const ResourceVector entity_56(9, 1, 8);
  const auto pick = most_matched(paper_vms(), entity_56, max_cap);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(paper_vms()[*pick].vm_id, 4u);
}

TEST(MostMatchedTest, InfeasibleEverywhereReturnsNull) {
  const ResourceVector max_cap(25, 2, 30);
  EXPECT_FALSE(
      most_matched(paper_vms(), ResourceVector(100, 1, 1), max_cap)
          .has_value());
}

TEST(MostMatchedTest, EmptyCandidates) {
  EXPECT_FALSE(most_matched({}, ResourceVector(1, 1, 1),
                            ResourceVector(10, 10, 10))
                   .has_value());
}

TEST(RandomFeasibleTest, OnlyPicksFeasible) {
  const std::vector<VmAvailability> vms{
      {1, ResourceVector(1, 1, 1)},
      {2, ResourceVector(10, 10, 10)},
      {3, ResourceVector(2, 2, 2)},
  };
  const ResourceVector demand(5, 5, 5);
  for (double pick : {0.0, 0.3, 0.7, 0.999}) {
    const auto idx = random_feasible(vms, demand, pick);
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(vms[*idx].vm_id, 2u);
  }
}

TEST(RandomFeasibleTest, SpansAllFeasible) {
  const std::vector<VmAvailability> vms{
      {1, ResourceVector(10, 10, 10)},
      {2, ResourceVector(10, 10, 10)},
  };
  const ResourceVector demand(1, 1, 1);
  EXPECT_EQ(vms[*random_feasible(vms, demand, 0.0)].vm_id, 1u);
  EXPECT_EQ(vms[*random_feasible(vms, demand, 0.99)].vm_id, 2u);
}

TEST(RandomFeasibleTest, NoneFeasibleReturnsNull) {
  const std::vector<VmAvailability> vms{{1, ResourceVector(1, 1, 1)}};
  EXPECT_FALSE(
      random_feasible(vms, ResourceVector(2, 2, 2), 0.5).has_value());
}

TEST(RandomFeasibleTest, UnitUniformPicksLastFeasible) {
  // Regression: u == 1.0 (the rng's uniform(0.0, 1.0) can return exactly
  // 1.0) must clamp onto the last feasible index instead of reading one
  // past the end of the feasible list.
  const std::vector<VmAvailability> vms{
      {1, ResourceVector(10, 10, 10)},
      {2, ResourceVector(1, 1, 1)},
      {3, ResourceVector(10, 10, 10)},
  };
  const auto idx = random_feasible(vms, ResourceVector(5, 5, 5), 1.0);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(vms[*idx].vm_id, 3u);
}

TEST(RandomFeasibleTest, SingleCandidateAlwaysPicked) {
  // With one feasible VM, every u in [0, 1] — including the endpoints —
  // must land on it (the floor(u * n) index would be 1 at u == 1.0; the
  // clamp keeps it at 0).
  const std::vector<VmAvailability> vms{{7, ResourceVector(5, 5, 5)}};
  const ResourceVector demand(1, 1, 1);
  for (double u : {0.0, 0.25, 0.5, 0.75, 0.999, 1.0}) {
    const auto idx = random_feasible(vms, demand, u);
    ASSERT_TRUE(idx.has_value()) << "u = " << u;
    EXPECT_EQ(vms[*idx].vm_id, 7u) << "u = " << u;
  }
}

TEST(RandomFeasibleTest, PickClamped) {
  const std::vector<VmAvailability> vms{{1, ResourceVector(5, 5, 5)}};
  EXPECT_TRUE(random_feasible(vms, ResourceVector(1, 1, 1), 1.5).has_value());
  EXPECT_TRUE(
      random_feasible(vms, ResourceVector(1, 1, 1), -0.5).has_value());
}

// --- CandidatePool: exact differential against the linear scan ---------

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// A draw on a 0.25 grid: volumes of grid vectors over power-of-two
/// capacities are exact, so equal-volume ties are common.
double grid(util::Rng& rng, double hi) {
  return 0.25 *
         static_cast<double>(rng.uniform_int(0, static_cast<int>(hi * 4)));
}

/// Mixed VM shapes (1x, 2x, 4x), some zero components, and optionally
/// NaN components.
std::vector<VmAvailability> random_candidates(util::Rng& rng, std::size_t n,
                                              bool with_nan) {
  constexpr double kScales[] = {1.0, 2.0, 4.0};
  std::vector<VmAvailability> vms;
  for (std::size_t i = 0; i < n; ++i) {
    const double scale = kScales[rng.uniform_int(0, 2)];
    ResourceVector a(grid(rng, 2.0) * scale, grid(rng, 2.0) * scale,
                     grid(rng, 2.0) * scale);
    if (rng.bernoulli(0.1)) a[rng.uniform_int(0, 2)] = 0.0;
    if (with_nan && rng.bernoulli(0.05)) {
      a[rng.uniform_int(0, 2)] = std::numeric_limits<double>::quiet_NaN();
    }
    vms.push_back({static_cast<std::uint32_t>(i), a});
  }
  return vms;
}

/// Either a small grid demand, or one placed on a candidate's fits_within
/// boundary: a component at exactly available + 1e-9, or one ulp either
/// side of it.
ResourceVector random_demand(util::Rng& rng,
                             const std::vector<VmAvailability>& vms) {
  ResourceVector demand(grid(rng, 1.0), grid(rng, 1.0), grid(rng, 1.0));
  if (vms.empty() || rng.bernoulli(0.5)) return demand;
  const ResourceVector& a =
      vms[rng.uniform_int(0, static_cast<int>(vms.size()) - 1)].available;
  const auto k = static_cast<std::size_t>(rng.uniform_int(0, 2));
  if (std::isnan(a[k])) return demand;
  const double edge = a[k] + 1e-9;
  const double ulps[] = {edge, std::nextafter(edge, 0.0),
                         std::nextafter(edge, 1e300)};
  demand[k] = ulps[rng.uniform_int(0, 2)];
  return demand;
}

std::size_t linear_best(const std::vector<VmAvailability>& vms,
                        const ResourceVector& demand,
                        const ResourceVector& max_cap) {
  return most_matched(vms, demand, max_cap).value_or(kNone);
}

/// Brute-force tie set of `best`: every feasible candidate with exactly
/// its volume, in index order.
std::vector<std::size_t> linear_ties(const std::vector<VmAvailability>& vms,
                                     const ResourceVector& demand,
                                     const ResourceVector& max_cap,
                                     std::size_t best) {
  const double volume = unused_volume(vms[best].available, max_cap);
  std::vector<std::size_t> ties;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    if (demand.fits_within(vms[i].available) &&
        unused_volume(vms[i].available, max_cap) == volume) {
      ties.push_back(i);
    }
  }
  return ties;
}

/// Refills `pool` with `vms` and runs `steps` best/ties/consume rounds on
/// it and on a mirrored linear candidate list, asserting the same index
/// every round.
void check_against_linear(CandidatePool& pool, std::vector<VmAvailability> vms,
                          const ResourceVector& max_cap, util::Rng& rng,
                          std::size_t steps) {
  pool.reset(max_cap);
  EXPECT_EQ(pool.scanned(), 0u);
  pool.reserve(vms.size());
  for (const VmAvailability& vm : vms) pool.add(vm.vm_id, vm.available);
  ASSERT_EQ(pool.size(), vms.size());
  std::vector<std::size_t> ties;
  for (std::size_t step = 0; step < steps; ++step) {
    const ResourceVector demand = random_demand(rng, vms);
    const std::size_t expected = linear_best(vms, demand, max_cap);
    const std::size_t got = pool.best(demand).value_or(kNone);
    ASSERT_EQ(got, expected) << "step " << step << " demand " << demand;
    if (got == kNone) continue;
    EXPECT_EQ(pool.vm_id(got), vms[got].vm_id);
    pool.ties(got, demand, ties);
    EXPECT_EQ(ties, linear_ties(vms, demand, max_cap, got))
        << "step " << step;
    pool.consume(got, demand);
    vms[got].available -= demand;
    vms[got].available = vms[got].available.clamped_non_negative();
    EXPECT_EQ(pool.available(got), vms[got].available);
  }
}

void check_against_linear(std::vector<VmAvailability> vms,
                          const ResourceVector& max_cap, util::Rng& rng,
                          std::size_t steps) {
  CandidatePool pool(max_cap);
  check_against_linear(pool, std::move(vms), max_cap, rng, steps);
}

TEST(CandidatePoolTest, MatchesLinearScanAtBlockBoundarySizes) {
  for (std::size_t n : {0, 1, 63, 64, 65, 1000}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " seed=" << seed);
      util::Rng rng(seed * 1000 + n);
      check_against_linear(random_candidates(rng, n, /*with_nan=*/false),
                           ResourceVector(8, 8, 8), rng, 200);
    }
  }
}

TEST(CandidatePoolTest, MatchesLinearScanWithNanAndZeroCapacity) {
  // A zero max-capacity component drops out of Eq. 22, so a NaN there
  // leaves a finite, winnable volume; elsewhere it makes the volume NaN,
  // which neither path may choose.
  const ResourceVector caps[] = {ResourceVector(8, 8, 8),
                                 ResourceVector(8, 0, 8),
                                 ResourceVector(6, 10, 0)};
  for (std::size_t n : {1, 63, 64, 65, 1000}) {
    for (const ResourceVector& cap : caps) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " cap=" << cap << " seed=" << seed);
        util::Rng rng(seed * 7919 + n);
        check_against_linear(random_candidates(rng, n, /*with_nan=*/true),
                             cap, rng, 200);
      }
    }
  }
}

TEST(CandidatePoolTest, ResetPoolMatchesLinearScanOnEveryRefill) {
  // One pool refilled with candidate lists of changing sizes and
  // normalizers, as a scheduler refills its pools on every place() call:
  // no block summary, volume or count may carry over from the last fill.
  const ResourceVector caps[] = {ResourceVector(8, 8, 8),
                                 ResourceVector(6, 10, 0)};
  CandidatePool pool(caps[0]);
  util::Rng rng(4242);
  std::size_t fill = 0;
  for (std::size_t n : {1000, 65, 0, 64, 1, 130}) {
    const ResourceVector& cap = caps[fill++ % 2];
    SCOPED_TRACE(testing::Message() << "fill " << fill << " n=" << n);
    check_against_linear(pool, random_candidates(rng, n, /*with_nan=*/true),
                         cap, rng, 100);
    ASSERT_EQ(pool.size(), n);
  }
  // Block summaries left over from an earlier fill would still give the
  // right index, but would stop blocks from being skipped.
  pool.reset(ResourceVector(8, 8, 8));
  pool.add(0, ResourceVector(1, 1, 1));
  for (std::uint32_t i = 1; i < 640; ++i) {
    pool.add(i, ResourceVector(5, 5, 5));
  }
  EXPECT_EQ(pool.best(ResourceVector(1, 1, 1)),
            std::optional<std::size_t>(0));
  EXPECT_FALSE(pool.best(ResourceVector(6, 1, 1)).has_value());
  EXPECT_EQ(pool.scanned(), 1u);
}

TEST(CandidatePoolTest, EqualVolumesKeepTheFirstCandidate) {
  // 130 identical candidates span three blocks; every one ties.
  const ResourceVector max_cap(8, 8, 8);
  CandidatePool pool(max_cap);
  for (std::uint32_t i = 0; i < 130; ++i) {
    pool.add(i, ResourceVector(2, 2, 2));
  }
  const ResourceVector demand(1, 1, 1);
  ASSERT_EQ(pool.best(demand), std::optional<std::size_t>(0));
  std::vector<std::size_t> ties;
  pool.ties(0, demand, ties);
  EXPECT_EQ(ties.size(), 130u);
  // Consuming the winner hands the first-minimum to the next candidate.
  pool.consume(0, ResourceVector(2, 2, 2));
  EXPECT_EQ(pool.best(demand), std::optional<std::size_t>(1));
}

TEST(CandidatePoolTest, SkipsBlocksThatCannotWin) {
  // Candidate 0 is the unique smallest feasible volume; every other
  // block's minimum volume is larger, so one feasibility test decides.
  CandidatePool pool(ResourceVector(8, 8, 8));
  pool.add(0, ResourceVector(1, 1, 1));
  for (std::uint32_t i = 1; i < 640; ++i) {
    pool.add(i, ResourceVector(5, 5, 5));
  }
  EXPECT_EQ(pool.best(ResourceVector(1, 1, 1)),
            std::optional<std::size_t>(0));
  EXPECT_EQ(pool.scanned(), 1u);
  // A demand no block maximum admits is rejected without any test.
  EXPECT_FALSE(pool.best(ResourceVector(6, 1, 1)).has_value());
  EXPECT_EQ(pool.scanned(), 1u);
}

}  // namespace
}  // namespace corp::sched
