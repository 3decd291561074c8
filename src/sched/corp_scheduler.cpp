#include "sched/corp_scheduler.hpp"

#include "obs/metrics.hpp"

namespace corp::sched {

void build_candidate_pools(const SchedulerContext& ctx,
                           bool with_opportunistic, double pool_scale,
                           CandidatePools& pools) {
  pools.opportunistic.reset(ctx.max_vm_capacity);
  pools.fresh.reset(ctx.max_vm_capacity);
  if (with_opportunistic) pools.opportunistic.reserve(ctx.vms.size());
  pools.fresh.reserve(ctx.vms.size());
  for (const VmView& vm : ctx.vms) {
    if (with_opportunistic && vm.unlocked) {
      pools.opportunistic.add(vm.vm_id, vm.predicted_unused * pool_scale);
    }
    // Partition admission caps gate *new* reservations only; the
    // opportunistic pool above stays available on capped partitions.
    if (vm.accepts_reserved) pools.fresh.add(vm.vm_id, vm.unallocated);
  }
}

CorpScheduler::CorpScheduler(CorpSchedulerConfig config) : config_(config) {}

std::vector<PlacementDecision> CorpScheduler::place(
    const std::vector<const Job*>& batch, const SchedulerContext& ctx) {
  const obs::ScopedTimer timer("sched.place");
  std::vector<PlacementDecision> decisions;
  if (batch.empty()) return decisions;

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

  const std::vector<JobEntity> entities =
      config_.enable_packing ? pack_jobs(batch) : singleton_entities(batch);
  if (m_pairs != nullptr) {
    for (const JobEntity& entity : entities) {
      if (entity.members.size() > 1) m_pairs->add(1);
    }
  }

  build_candidate_pools(ctx, config_.enable_opportunistic,
                        config_.pool_safety, pools_);
  CandidatePool& opportunistic = pools_.opportunistic;
  CandidatePool& fresh = pools_.fresh;

  for (const JobEntity& entity : entities) {
    PlacementDecision decision;
    decision.batch_indices = entity.members;
    decision.allocated = entity.demand;

    if (config_.enable_opportunistic) {
      const ResourceVector carve =
          entity.demand * config_.opportunistic_sizing;
      const auto slot = opportunistic.best(carve);
      if (slot.has_value()) {
        decision.vm_id = opportunistic.vm_id(*slot);
        decision.kind = AllocationKind::kOpportunistic;
        decision.allocated = carve;
        decision.request_fraction = config_.opportunistic_sizing;
        opportunistic.consume(*slot, carve);
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
      // Unplaced; the simulator re-queues the entity's jobs.
      m_unplaced->add(1);
    }
  }
  if (metrics) {
    reg.counter("sched.vms_scanned").add(opportunistic.scanned() +
                                         fresh.scanned());
  }
  return decisions;
}

}  // namespace corp::sched
