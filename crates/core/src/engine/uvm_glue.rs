//! Shared-state handlers: the UVM runtime's outputs, fault recording,
//! page-arrival wakeups, and the periodic controllers.

use batmem_sim::block::BlockResidency;
use batmem_sim::warp::WarpPhase;
use batmem_types::probe::ProbeEvent;
use batmem_types::{PageId, SimError};
use batmem_uvm::UvmOutput;

use super::{Engine, Event, WarpRef};

impl Engine {
    pub(super) fn on_raise_fault(&mut self, page: PageId) -> Result<(), SimError> {
        // The page may have been migrated (or scheduled) since the walk
        // failed; replay would find it resident.
        if self.mmu.is_resident(page) || self.uvm.is_inflight(page) || self.uvm.is_resident(page) {
            return Ok(());
        }
        if self.etc_enabled {
            let refault = !self.seen_fault_pages.insert(page);
            self.throttle.on_fault(refault);
        }
        let mut outs = std::mem::take(&mut self.uvm_out);
        let res = self
            .uvm
            .record_fault_into(page, self.clock, &mut outs)
            .and_then(|()| self.apply_outputs(&mut outs));
        outs.clear();
        self.uvm_out = outs;
        res
    }

    /// Applies and drains the runtime's commands; `outs` is the engine's
    /// recycled scratch and comes back empty.
    pub(super) fn apply_outputs(&mut self, outs: &mut Vec<UvmOutput>) -> Result<(), SimError> {
        for o in outs.drain(..) {
            match o {
                UvmOutput::Schedule { at, event } => {
                    self.events.push(at.max(self.clock), Event::Uvm(event));
                }
                UvmOutput::Install { page, frame } => {
                    self.mmu.install(page, frame, self.clock)?;
                    self.wake_waiters(page)?;
                }
                UvmOutput::Evict { page } => {
                    self.mmu.evict(page, self.clock)?;
                }
                UvmOutput::Coalesce { region } => {
                    self.mmu.promote(region, self.clock)?;
                }
                UvmOutput::Splinter { region } => {
                    self.mmu.splinter(region, self.clock)?;
                }
            }
        }
        Ok(())
    }

    pub(super) fn wake_waiters(&mut self, page: PageId) -> Result<(), SimError> {
        let Some(mut list) = self.waiters.remove(page) else { return Ok(()) };
        for &r in &list {
            let (b, w) = self.resolve(r, "PageArrived")?;
            if self.blocks[b].warp_mut(w).page_arrived() {
                let block_id = self.blocks[b].id;
                let sm = self.block_sm[b];
                self.warp_resumes += 1;
                self.probes.emit_with(self.clock, || ProbeEvent::WarpResumed {
                    sm: sm as u16,
                    block: block_id.index() as u32,
                    warp: w as u16,
                });
                match self.blocks[b].residency {
                    BlockResidency::Active => {
                        self.blocks[b].set_phase(w, WarpPhase::Ready);
                        self.events.push(self.clock, Event::WarpWake(r));
                    }
                    _ => {
                        self.blocks[b].set_phase(w, WarpPhase::ReadyInactive);
                        // An inactive block just became runnable: a stalled
                        // active block can now yield to it.
                        let sm = self.block_sm[b];
                        self.maybe_switch(sm)?;
                    }
                }
            }
        }
        // Recycle the waiter list's capacity for the next faulting page.
        list.clear();
        self.waiter_pool.push(list);
        Ok(())
    }

    // ---- periodic controllers ----------------------------------------------

    pub(super) fn on_sample(&mut self) -> Result<(), SimError> {
        if !self.to_enabled() {
            return Ok(());
        }
        let sample = self.uvm.sample_lifetime();
        self.oversub.on_sample(sample);
        // A raised degree provisions more inactive blocks immediately.
        self.top_up_inactive()?;
        if self.kernel_idx < self.workload.num_kernels() {
            let period = self.to.lifetime_sample_period;
            self.events.push(self.clock + period, Event::Sample);
        }
        Ok(())
    }

    pub(super) fn on_etc_tick(&mut self) {
        if self.throttle.tick(self.clock) {
            self.apply_throttle();
        }
        if self.kernel_idx < self.workload.num_kernels() {
            self.events.push(self.throttle.next_tick().max(self.clock + 1), Event::EtcTick);
        }
    }

    fn apply_throttle(&mut self) {
        let new_count = self.throttle.throttled_sms();
        let old_count = self.throttled_count;
        self.throttled_count = new_count;
        if new_count < old_count {
            // SMs came back: release their parked warps.
            let lo = self.sms.len() - old_count as usize;
            let hi = self.sms.len() - new_count as usize;
            for sm in lo..hi {
                // Nothing below mutates the SM's active list, so index into
                // it directly instead of cloning it per released SM.
                for i in 0..self.sms[sm].active.len() {
                    let b = self.sms[sm].active[i];
                    let serial = self.block_serial[b];
                    for (w, warp) in self.blocks[b].warps().iter().enumerate() {
                        if warp.phase() == WarpPhase::Ready {
                            let r = WarpRef::new(b, w, serial);
                            self.events.push(self.clock, Event::WarpWake(r));
                        }
                    }
                }
            }
        }
    }
}
