#include "sched/pred_aware_scheduler.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/packing.hpp"
#include "sched/volume.hpp"
#include "util/seed_streams.hpp"

namespace corp::sched {

namespace {

/// Eq. 22 selection with uniform tie-breaking: when several feasible
/// candidates share the exactly-smallest unused volume, one of them is
/// picked uniformly from `rng` (one draw per tied selection). With
/// rng == nullptr this is plain most_matched (first candidate wins).
/// `ties` is caller-owned scratch.
std::optional<std::size_t> most_matched_tiebreak(
    CandidatePool& candidates, const ResourceVector& demand, util::Rng* rng,
    obs::Counter* tie_counter, std::vector<std::size_t>& ties) {
  const auto best = candidates.best(demand);
  if (!best.has_value() || rng == nullptr) return best;
  candidates.ties(*best, demand, ties);
  if (ties.size() <= 1) return best;
  if (tie_counter != nullptr) tie_counter->add(1);
  const double pick = rng->uniform(0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      std::clamp(pick, 0.0, 1.0 - 1e-12) * static_cast<double>(ties.size()));
  return ties[std::min(idx, ties.size() - 1)];
}

}  // namespace

PredictionAwareScheduler::PredictionAwareScheduler(PredictionAwareConfig config)
    : config_(config),
      controller_(config.adaptation),
      tie_break_rng_(util::derive_seed(config.seed,
                                       util::seed_stream::kTrustAdaptation)),
      lambda_(config.adaptive ? 1.0 : std::clamp(config.trust, 0.0, 1.0)) {}

std::vector<PlacementDecision> PredictionAwareScheduler::place(
    const std::vector<const Job*>& batch, const SchedulerContext& ctx) {
  const obs::ScopedTimer timer("sched.place");
  std::vector<PlacementDecision> decisions;
  if (batch.empty()) return decisions;

  lambda_ = config_.adaptive
                ? controller_.update(ctx.trust != nullptr ? *ctx.trust
                                                          : TrustSignals{})
                : std::clamp(config_.trust, 0.0, 1.0);
  const double lambda = lambda_;
  // Blended admission thresholds. Both expressions are algebraically
  // exact at the endpoints — λ=1 reproduces CorpScheduler's knobs bit
  // for bit, λ=0 sizes every admission at the full demand — so the
  // endpoint differential tests can EXPECT_EQ doubles.
  const double pool_scale = lambda * config_.corp.pool_safety;
  const double carve_sizing =
      lambda * config_.corp.opportunistic_sizing + (1.0 - lambda) * 1.0;
  const bool opportunistic =
      config_.corp.enable_opportunistic && lambda > 0.0;

  obs::MetricRegistry& reg = obs::registry();
  const bool metrics = reg.enabled();
  obs::Counter* m_pairs =
      metrics ? &reg.counter("sched.packing_pair_matches") : nullptr;
  obs::Counter* m_opp_grants =
      metrics ? &reg.counter("sched.opportunistic_grants") : nullptr;
  obs::Counter* m_opp_fallbacks =
      metrics ? &reg.counter("sched.opportunistic_fallbacks") : nullptr;
  obs::Counter* m_unplaced =
      metrics ? &reg.counter("sched.entities_unplaced") : nullptr;
  obs::Counter* m_ties =
      metrics ? &reg.counter("sched.pred_aware.tie_breaks") : nullptr;
  if (metrics) obs::set_gauge("sched.pred_aware.trust", lambda);

  const std::vector<JobEntity> entities = config_.corp.enable_packing
                                              ? pack_jobs(batch)
                                              : singleton_entities(batch);
  if (m_pairs != nullptr) {
    for (const JobEntity& entity : entities) {
      if (entity.members.size() > 1) m_pairs->add(1);
    }
  }

  // The same candidate pools as CorpScheduler, with the opportunistic
  // one scaled by λ.
  build_candidate_pools(ctx, opportunistic, pool_scale, pools_);
  CandidatePool& pool = pools_.opportunistic;
  CandidatePool& fresh = pools_.fresh;

  // Stochastic tie-breaking engages only at interior trust; see the
  // header. Fresh reservations keep the deterministic first-candidate
  // rule at every λ — only the scaled opportunistic pool manufactures
  // artificial ties.
  util::Rng* tie_rng =
      (lambda > 0.0 && lambda < 1.0) ? &tie_break_rng_ : nullptr;
  std::vector<std::size_t> ties;

  for (const JobEntity& entity : entities) {
    PlacementDecision decision;
    decision.batch_indices = entity.members;
    decision.allocated = entity.demand;

    if (opportunistic) {
      const ResourceVector carve = entity.demand * carve_sizing;
      const auto slot =
          most_matched_tiebreak(pool, carve, tie_rng, m_ties, ties);
      if (slot.has_value()) {
        decision.vm_id = pool.vm_id(*slot);
        decision.kind = AllocationKind::kOpportunistic;
        decision.allocated = carve;
        decision.request_fraction = carve_sizing;
        pool.consume(*slot, carve);
        decisions.push_back(std::move(decision));
        if (m_opp_grants != nullptr) m_opp_grants->add(1);
        continue;
      }
      if (m_opp_fallbacks != nullptr) m_opp_fallbacks->add(1);
    }

    const auto slot = fresh.best(entity.demand);
    if (slot.has_value()) {
      decision.vm_id = fresh.vm_id(*slot);
      decision.kind = AllocationKind::kReserved;
      fresh.consume(*slot, entity.demand);
      decisions.push_back(std::move(decision));
    } else if (m_unplaced != nullptr) {
      m_unplaced->add(1);
    }
  }
  if (metrics) {
    reg.counter("sched.vms_scanned").add(pool.scanned() + fresh.scanned());
  }
  return decisions;
}

}  // namespace corp::sched
