//! Stage 2 — batch formation and prefetch expansion: drain the fault
//! buffer, sort and deduplicate, expand via the [`Prefetcher`] strategy,
//! and open the batch's fault-handling window.
//!
//! [`Prefetcher`]: crate::strategies::Prefetcher

use super::{BatchPlan, State, UvmEvent, UvmOutput, UvmRuntime};
use crate::adaptive::AdaptiveSignals;
use crate::batch::BatchRecord;
use batmem_types::probe::{EvictionCause, ProbeEvent};
use batmem_types::{Cycle, PageId, SimError};

impl UvmRuntime {
    /// Appends the opened batch's commands to `outputs` (the engine's
    /// recycled scratch).
    pub(crate) fn start_batch(
        &mut self,
        now: Cycle,
        outputs: &mut Vec<UvmOutput>,
    ) -> Result<(), SimError> {
        debug_assert_eq!(self.state, State::Idle);
        let faulted: Vec<PageId> = self
            .buffer
            .drain_sorted()
            .into_iter()
            .filter(|p| !self.mem.is_resident(*p))
            .collect();
        if faulted.is_empty() {
            return Ok(());
        }
        let prefetched = {
            let mem = &self.mem;
            self.prefetcher.expand(&faulted, &|p| mem.is_resident(p), self.valid_pages)
        };
        // Adaptive throttle: when the probe saw too many premature
        // refaults last epoch, prefetch density drops to zero for this
        // epoch (the candidates were being evicted before use anyway).
        // Like the injector filter below, this runs after `expand` so the
        // prefetcher's issue counter reflects what the policy *asked* for.
        let prefetched: Vec<PageId> =
            if self.signals.as_ref().is_some_and(AdaptiveSignals::throttle_prefetch) {
                Vec::new()
            } else {
                prefetched
            };
        // Injected prefetch drops: the candidate silently never migrates,
        // so its eventual demand access must fault and recover.
        let prefetched: Vec<PageId> = match &mut self.injector {
            Some(inj) => prefetched.into_iter().filter(|_| !inj.drop_prefetch()).collect(),
            None => prefetched,
        };
        let num_faults = faulted.len();
        let mut pages = faulted;
        pages.extend(prefetched);
        pages.sort_unstable();
        pages.dedup();

        // Coalescing completion: when the batch plus already-resident pages
        // cover enough of a large-page group (the policy's density
        // threshold), pull in the group's missing pages so the group can
        // promote to a large mapping once everything lands.
        if !self.coalesce.is_off() {
            let ppl = self.installed.pages_per_region();
            let mut extra: Vec<PageId> = Vec::new();
            let mut i = 0;
            while i < pages.len() {
                let group = self.installed.region_of(pages[i]);
                let mut j = i;
                while j < pages.len() && self.installed.region_of(pages[j]) == group {
                    j += 1;
                }
                let first = group.index() * ppl;
                let end = (first + ppl).min(self.valid_pages);
                let mut resident = 0u64;
                for idx in first..end {
                    if self.mem.is_resident(PageId::new(idx)) {
                        resident += 1;
                    }
                }
                // Batch pages are non-resident by construction, so the two
                // counts are disjoint.
                let covered = (j - i) as u64 + resident;
                if self.coalesce.wants_completion(covered, ppl) {
                    for idx in first..end {
                        let p = PageId::new(idx);
                        if !self.mem.is_resident(p) && !pages[i..j].contains(&p) {
                            extra.push(p);
                        }
                    }
                }
                i = j;
            }
            if !extra.is_empty() {
                pages.extend(extra);
                pages.sort_unstable();
                pages.dedup();
            }
        }

        let handling = self.servicing.handling_window(
            self.cfg.fault_handling_base,
            self.cfg.fault_handling_per_fault,
            num_faults as u64,
        );
        let id = self.batch_seq;
        self.batch_seq += 1;
        let record = BatchRecord {
            id,
            start: now,
            handling_done: now + handling,
            first_migration_start: 0,
            end: 0,
            faults: num_faults as u32,
            prefetches: (pages.len() - num_faults) as u32,
            evictions: 0,
            forced_pinned_evictions: 0,
            migrated_bytes: 0,
        };
        self.batch_pages.clear();
        for &pg in &pages {
            self.batch_pages.insert(pg);
        }
        self.planned_arrival.clear();
        let mut plan = BatchPlan { record, remaining: pages.len(), pages };
        self.probes.emit_with(now, || ProbeEvent::BatchOpened {
            batch: id,
            faults: plan.record.faults,
            prefetches: plan.record.prefetches,
            handling_cycles: handling,
        });
        outputs.push(UvmOutput::Schedule { at: now + handling, event: UvmEvent::HandlingDone { batch: id } });

        // Unobtrusive Eviction: the top-half ISR checks the memory status
        // tracker and issues one preemptive eviction so the first migration
        // can start unhindered (§4.2, Fig. 9 steps 2-3).
        if self.eviction.preemptive() && self.mem.at_capacity() && self.pending_free.is_empty() {
            self.schedule_evictions(now, &mut plan, outputs, EvictionCause::Preemptive)?;
            self.preemptive_evictions += 1;
        }

        // ETC-style Proactive Eviction: predict the batch's frame demand
        // and evict ahead of the allocations, overlapped with the handling
        // window. Mispredicted victims show up as premature evictions,
        // which is why ETC disables PE for irregular applications. The
        // adaptive policy turns the same pass on for an epoch when its
        // probe saw healthy (non-premature) eviction behavior.
        let eager = !self.proactive_eviction
            && self.signals.as_ref().is_some_and(AdaptiveSignals::eager_eviction);
        if self.proactive_eviction || eager {
            let goal = plan.pages.len() as u64;
            let mut need = goal
                .saturating_sub(self.mem.available_without_eviction() + self.pending_free.len() as u64);
            while need > 0 && self.mem.resident_count() > 0 {
                let before = self.pending_free.len() as u64;
                self.schedule_evictions(now, &mut plan, outputs, EvictionCause::Proactive)?;
                let after = self.pending_free.len() as u64;
                // An eviction pass may only add pending frames; a shrink
                // here means the frame books are broken regardless of
                // audit level.
                let Some(freed) = after.checked_sub(before) else {
                    return Err(SimError::Accounting {
                        cycle: now,
                        detail: format!(
                            "proactive eviction consumed {} pending frames instead of freeing any",
                            before - after
                        ),
                    });
                };
                if freed == 0 {
                    break;
                }
                self.proactive_evictions += freed;
                let decremented = need.saturating_sub(freed);
                // Round-trip the frame ledger: the decremented shortfall
                // must equal one re-derived from the books. A pass that
                // frees more than requested clamps both sides to zero;
                // anything else (e.g. frames double-counted between the
                // free list and pending_free) is drift that the chained
                // saturating_sub used to hide.
                let rederived = goal.saturating_sub(
                    self.mem.available_without_eviction() + self.pending_free.len() as u64,
                );
                if decremented != rederived {
                    let snapshot = format!(
                        "goal={goal} need={need} freed={freed} decremented={decremented} \
                         rederived={rederived} ({})",
                        self.describe_state()
                    );
                    if self.audit.enabled() {
                        return Err(SimError::InvariantViolated {
                            cycle: now,
                            invariant: "proactive-eviction frame ledger round-trips",
                            snapshot,
                        });
                    }
                    debug_assert!(false, "proactive frame ledger drifted: {snapshot}");
                }
                need = decremented;
            }
        }

        self.current = Some(plan);
        self.state = State::Handling;
        Ok(())
    }
}
