//! Stage 4 — migration scheduling: place the batch's transfers on the
//! PCIe host-to-device pipe, install arrivals, close the batch, and replay
//! accumulated faults.

use super::{State, UvmEvent, UvmOutput, UvmRuntime};
use crate::inject::FaultInjector;
use batmem_types::probe::ProbeEvent;
use batmem_types::{Cycle, FrameId, PageId, SimError};

impl UvmRuntime {
    /// Appends the batch's migration commands to `outputs` (the engine's
    /// recycled scratch).
    pub(crate) fn plan_migrations(
        &mut self,
        batch: u64,
        now: Cycle,
        outputs: &mut Vec<UvmOutput>,
    ) -> Result<(), SimError> {
        if self.state != State::Handling {
            return Err(self.unexpected(
                now,
                &format!("HandlingDone(batch:{batch})"),
                "migration planning outside the handling window",
            ));
        }
        let Some(mut plan) = self.current.take() else {
            return Err(self.unexpected(
                now,
                &format!("HandlingDone(batch:{batch})"),
                "no batch is open",
            ));
        };
        if plan.record.id != batch {
            let open = plan.record.id;
            self.current = Some(plan);
            return Err(self.unexpected(
                now,
                &format!("HandlingDone(batch:{batch})"),
                &format!("stale batch (open batch is {open})"),
            ));
        }
        let page_bytes = self.cfg.page_bytes();
        for i in 0..plan.pages.len() {
            let page = plan.pages[i];
            // Contiguity-aware allocation for the coalescing path: prefer
            // the frame right after the previous page of the same group, so
            // promoted groups tend toward physically contiguous frames.
            let preferred = if self.coalesce.is_off() {
                None
            } else {
                page.index().checked_sub(1).and_then(|prev| {
                    let prev = PageId::new(prev);
                    if self.installed.region_of(prev) == self.installed.region_of(page) {
                        self.mem.frame_of(prev).map(|f| FrameId::new(f.index() + 1))
                    } else {
                        None
                    }
                })
            };
            let (frame, ready) = self.acquire_frame(now, &mut plan, outputs, preferred)?;
            // Injected PCIe perturbation: jitter/stalls delay when this
            // transfer may claim the host-to-device pipe.
            let extra = self.injector.as_mut().map_or(0, FaultInjector::transfer_delay);
            let tr = self.pipes.schedule_h2d(now.max(ready) + extra, page_bytes);
            if i == 0 {
                plan.record.first_migration_start = tr.start;
            }
            self.probes.emit_with(now, || ProbeEvent::MigrationStarted {
                batch,
                page,
                start: tr.start,
                end: tr.end,
            });
            for (victim, avail) in self.ideal_evicts.drain(..) {
                let at = tr.start.max(avail);
                outputs.push(UvmOutput::Schedule {
                    at,
                    event: UvmEvent::EvictionStarted { page: victim },
                });
                self.lifetime.on_evict(victim, at, self.audit)?;
            }
            plan.record.migrated_bytes += page_bytes;
            self.mem.mark_resident(page, frame, now)?;
            self.lifetime.on_install(page, tr.end);
            self.inflight.insert(page, frame);
            self.planned_arrival.insert(page, tr.end);
            // Injected lost DMA completion: the transfer occupies the pipe
            // but its PageArrived event never fires, stranding the batch.
            let lost = self.injector.as_mut().is_some_and(|i| i.drop_arrival());
            if !lost {
                outputs.push(UvmOutput::Schedule {
                    at: tr.end,
                    event: UvmEvent::PageArrived { page },
                });
            }
        }
        self.current = Some(plan);
        self.state = State::Migrating;
        Ok(())
    }

    /// Appends the arrival's commands to `outputs` (the engine's recycled
    /// scratch).
    pub(crate) fn page_arrived(
        &mut self,
        page: PageId,
        now: Cycle,
        outputs: &mut Vec<UvmOutput>,
    ) -> Result<(), SimError> {
        if self.state != State::Migrating {
            return Err(self.unexpected(
                now,
                &format!("PageArrived(page:{page})"),
                "no batch is migrating",
            ));
        }
        let Some(frame) = self.inflight.remove(page) else {
            return Err(SimError::Accounting {
                cycle: now,
                detail: format!("arrival of page {page} that is not in flight"),
            });
        };
        self.probes.emit_with(now, || ProbeEvent::MigrationCompleted { page, frame });
        outputs.push(UvmOutput::Install { page, frame });
        self.note_installed(page, now, outputs);
        let finished = {
            let Some(plan) = self.current.as_mut() else {
                return Err(self.unexpected(
                    now,
                    &format!("PageArrived(page:{page})"),
                    "no batch is open",
                ));
            };
            if plan.remaining == 0 {
                return Err(SimError::Accounting {
                    cycle: now,
                    detail: format!("arrival of page {page} after its batch completed"),
                });
            }
            plan.remaining -= 1;
            plan.remaining == 0
        };
        if finished {
            if let Some(mut plan) = self.current.take() {
                plan.record.end = now;
                let r = plan.record;
                self.probes.emit_with(now, || ProbeEvent::BatchClosed {
                    batch: r.id,
                    faults: r.faults,
                    prefetches: r.prefetches,
                    evictions: r.evictions,
                    forced_pinned_evictions: r.forced_pinned_evictions,
                    migrated_bytes: r.migrated_bytes,
                    opened_at: r.start,
                    first_migration_start: r.first_migration_start,
                });
                self.finished_batches.push(plan.record);
            }
            self.state = State::Idle;
            // Driver replay optimization (§2.2): service accumulated faults
            // immediately rather than waiting for a fresh interrupt.
            if !self.buffer.is_empty() {
                self.start_batch(now, outputs)?;
            }
        }
        Ok(())
    }
}
