// The CORP scheduler (Sec. III-B).
//
// For each slot's arrivals:
//   1. pack complementary jobs into entities (maximizing DV);
//   2. place each entity on the *most-matched* VM — smallest unused
//      resource volume (Eq. 22) — among VMs whose unlocked predicted
//      unused resource satisfies the entity's demand (opportunistic);
//   3. fall back to unallocated VM resources with the same most-matched
//      rule (fresh reservation);
//   4. otherwise the entity waits (the simulator re-queues it).
#pragma once

#include "sched/packing.hpp"
#include "sched/scheduler.hpp"
#include "sched/volume.hpp"

namespace corp::sched {

struct CorpSchedulerConfig {
  /// Ablation switch: disable complementary packing.
  bool enable_packing = true;
  /// Ablation switch: disable opportunistic placement entirely (entities
  /// then always take fresh reservations).
  bool enable_opportunistic = true;
  /// Opportunistic carve-out as a fraction of the entity's request:
  /// expected demand plus headroom, not the full reservation. CORP can
  /// afford a wider carve than RCCR because its per-donor forecasts are
  /// tighter; the wider carve protects tenants through their own demand
  /// peaks.
  double opportunistic_sizing = 0.9;
  /// CORP only consumes this fraction of a VM's unlocked predicted-unused
  /// pool — the conservative stance of Sec. III (min() corrections, lower
  /// confidence bounds) applied to placement.
  double pool_safety = 0.80;
};

/// The two Eq. 22 candidate pools of one CORP-family place() call. They
/// are tentative copies of the snapshot: placements within the batch
/// consume from them so the batch cannot oversubscribe it. A scheduler
/// owns one set and refills it on every call, so the pools' storage is
/// allocated once rather than on every slot.
struct CandidatePools {
  /// Unlocked VMs' predicted-unused resource, scaled.
  CandidatePool opportunistic{ResourceVector()};
  /// Unallocated resource of VMs that accept new reservations.
  CandidatePool fresh{ResourceVector()};
};

/// Refills both pools from `ctx.vms`; `opportunistic` stays empty unless
/// `with_opportunistic`, and holds predicted_unused * `pool_scale`.
void build_candidate_pools(const SchedulerContext& ctx,
                           bool with_opportunistic, double pool_scale,
                           CandidatePools& pools);

class CorpScheduler final : public Scheduler {
 public:
  explicit CorpScheduler(CorpSchedulerConfig config = {});

  Method method() const override { return Method::kCorp; }

  std::vector<PlacementDecision> place(const std::vector<const Job*>& batch,
                                       const SchedulerContext& ctx) override;

  const CorpSchedulerConfig& config() const { return config_; }

 private:
  CorpSchedulerConfig config_;
  CandidatePools pools_;
};

}  // namespace corp::sched
