// Prediction-aware allocation with an explicit consistency–robustness
// trust knob (ROADMAP item 4; Buchbinder et al., "Online Virtual Machine
// Allocation with Predictions").
//
// The scheduler runs CORP's placement loop over CORP's forecasts, but
// scales how much of the predicted temporarily-unused pool it is willing
// to pledge by a trust parameter λ in [0, 1]:
//
//   λ = 1   — follow the forecast exactly like CorpScheduler: identical
//             candidate pools, carve sizing and decisions (the endpoint
//             differential tests EXPECT_EQ every field);
//   λ = 0   — ignore the forecast: every entity takes a demand-based
//             fresh reservation, the worst-case-safe admission rule
//             (bit-identical to CorpScheduler with opportunistic
//             placement disabled);
//   0<λ<1   — blend the admission thresholds: the opportunistic pool
//             shrinks to λ x pool_safety of the predicted unused
//             resource, and carve-outs grow from the trusting
//             opportunistic_sizing toward the full demand as trust falls.
//
// In adaptive mode λ is recomputed before every placement from the
// predictor's observed health (sched/trust.hpp) — a continuous
// degradation path in place of the health-monitor ladder's cliff.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/corp_scheduler.hpp"
#include "sched/scheduler.hpp"
#include "sched/trust.hpp"
#include "util/rng.hpp"

namespace corp::sched {

struct PredictionAwareConfig {
  /// Base placement knobs shared with CorpScheduler (packing, carve
  /// sizing, pool safety). enable_opportunistic=false forces λ=0
  /// behavior regardless of trust.
  CorpSchedulerConfig corp;
  /// Fixed trust λ, clamped to [0, 1]; ignored when `adaptive` is set.
  double trust = 1.0;
  /// Drive λ online from predictor-health signals (SchedulerContext::
  /// trust) instead of the fixed value.
  bool adaptive = false;
  TrustAdaptationConfig adaptation;
  /// Base seed of the tie-breaking stream (seed_stream::kTrustAdaptation);
  /// the simulation threads its run seed through here.
  std::uint64_t seed = 42;
};

class PredictionAwareScheduler final : public Scheduler {
 public:
  explicit PredictionAwareScheduler(PredictionAwareConfig config = {});

  Method method() const override { return Method::kPredAware; }

  std::vector<PlacementDecision> place(const std::vector<const Job*>& batch,
                                       const SchedulerContext& ctx) override;

  const PredictionAwareConfig& config() const { return config_; }

  /// λ used by the most recent place() call (the adaptive trajectory's
  /// latest point; the configured value before any placement).
  double current_trust() const { return lambda_; }

 private:
  PredictionAwareConfig config_;
  TrustController controller_;
  /// Tie-break stream among exactly-equal most-matched volumes, drawn
  /// only at interior λ: uniform λ-scaling of the candidate pools
  /// manufactures exact volume ties that the reference rule would
  /// resolve by VM index forever. The λ∈{0,1} endpoints never draw, so
  /// they stay bit-identical to the reference schedulers.
  util::Rng tie_break_rng_;
  double lambda_ = 1.0;
  CandidatePools pools_;
};

}  // namespace corp::sched
