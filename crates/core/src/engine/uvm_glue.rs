//! Shared-state handlers: the UVM runtime's outputs, fault recording,
//! page-arrival wakeups, and the oversubscription scheme's periodic
//! controller.

use batmem_sim::block::BlockResidency;
use batmem_sim::warp::WarpPhase;
use batmem_types::probe::ProbeEvent;
use batmem_types::{PageId, SimError};
use batmem_uvm::{Oversubscription, UvmOutput};

use super::{Engine, Event, WarpRef};

impl Engine {
    pub(super) fn on_raise_fault(&mut self, page: PageId) -> Result<(), SimError> {
        // The page may have been migrated (or scheduled) since the walk
        // failed; replay would find it resident.
        if self.mmu.is_resident(page) || self.uvm.is_inflight(page) || self.uvm.is_resident(page) {
            return Ok(());
        }
        // ETC counts the fault, and whether it is a re-fault, before the
        // runtime records it.
        if let Oversubscription::Etc(etc) = &mut self.oversub {
            etc.on_fault(page);
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

    // ---- periodic controller -----------------------------------------------

    /// Runs the oversubscription scheme's periodic controller (TO's
    /// lifetime sample or ETC's epoch tick) and schedules its next run.
    pub(super) fn on_tick(&mut self) -> Result<(), SimError> {
        match &mut self.oversub {
            Oversubscription::Off => {}
            Oversubscription::To { controller, .. } => {
                controller.on_sample(self.uvm.sample_lifetime());
                // A raised degree provisions more inactive blocks immediately.
                self.top_up_inactive()?;
            }
            Oversubscription::Etc(etc) => {
                let before = etc.throttled_sms();
                if etc.tick(self.clock, self.cfg.gpu.num_sms) {
                    self.release_throttled(before);
                }
            }
        }
        if self.kernel_idx < self.workload.num_kernels() {
            if let Some(at) = self.oversub.next_tick(self.clock) {
                self.events.push(at, Event::Tick);
            }
        }
        Ok(())
    }

    /// Wakes the ready warps of the SMs that ETC throttled before its last
    /// tick (`before` of them) and no longer does.
    fn release_throttled(&mut self, before: u16) {
        let after = self.oversub.throttled_sms();
        if after < before {
            let lo = self.sms.len() - before as usize;
            let hi = self.sms.len() - after as usize;
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
