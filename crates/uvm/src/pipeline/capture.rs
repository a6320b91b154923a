//! Stage 1 — fault capture: the top-half ISR path from a GPU MMU fault to
//! the replayable fault buffer, and the decision to open a batch.

use super::{State, UvmEvent, UvmOutput, UvmRuntime};
use batmem_types::probe::ProbeEvent;
use batmem_types::{Cycle, PageId, SimError};

impl UvmRuntime {
    /// Records a page fault raised by the GPU MMU at time `now` (the
    /// top-half ISR path). May start a batch if the runtime is idle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Accounting`] if the faulting page is already
    /// resident in the runtime's planned view — the engine should never
    /// raise a fault for a page it could have translated.
    pub fn record_fault(&mut self, page: PageId, now: Cycle) -> Result<Vec<UvmOutput>, SimError> {
        let mut out = Vec::new();
        self.record_fault_into(page, now, &mut out)?;
        Ok(out)
    }

    /// Allocation-free variant of [`Self::record_fault`]: appends the
    /// resulting commands to `out` (typically the engine's recycled
    /// scratch) instead of allocating a fresh `Vec` per fault.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::record_fault`].
    pub fn record_fault_into(
        &mut self,
        page: PageId,
        now: Cycle,
        out: &mut Vec<UvmOutput>,
    ) -> Result<(), SimError> {
        if self.lifetime.on_fault(page) {
            // The refault just classified the page's eviction as premature.
            self.probes.emit_with(now, || ProbeEvent::PrematureEviction { page });
        }
        if self.current.is_some() && self.batch_pages.contains(page) {
            // Absorb the fault only while the open batch will still
            // deliver the page: before planning, or while its transfer
            // is in flight. A batch page that already arrived and was
            // then force-evicted (capacity below batch size) must be
            // treated as a fresh fault, or its waiters starve.
            let will_arrive = match self.state {
                State::Draining | State::Handling => true,
                _ => self.inflight.contains(page),
            };
            if will_arrive {
                self.faults_on_pending += 1;
                self.probes.emit_with(now, || ProbeEvent::FaultAbsorbed { page });
                return Ok(());
            }
        }
        if self.mem.is_resident(page) {
            return Err(SimError::Accounting {
                cycle: now,
                detail: format!("fault raised for planned-resident page {page}"),
            });
        }
        self.buffer.record(page);
        self.probes.emit_with(now, || ProbeEvent::FaultRaised { page });
        if self.injector.as_mut().is_some_and(|i| i.duplicate_fault()) {
            // Spurious duplicate fault delivery: coalesces in the buffer
            // (and shows up in the dedup counters), as on real hardware.
            self.buffer.record(page);
            self.probes.emit_with(now, || ProbeEvent::FaultRaised { page });
        }
        if self.state == State::Idle {
            self.state = State::Draining;
            out.push(UvmOutput::Schedule {
                at: now + self.servicing.isr_latency(self.cfg.isr_latency),
                event: UvmEvent::DrainBuffer,
            });
        }
        Ok(())
    }
}
