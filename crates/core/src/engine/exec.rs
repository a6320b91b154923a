//! SM-side execution: kernel lifecycle, warp scheduling, memory
//! operations, TO context switching, and block retirement.

use batmem_sim::block::{BlockContext, BlockResidency};
use batmem_sim::ops::OpKind;
use batmem_sim::sm::{occupancy, Sm};
use batmem_sim::warp::{WarpContext, WarpPhase};
use batmem_types::probe::ProbeEvent;
use batmem_types::{BlockId, Cycle, KernelId, SimError, SmId, VirtAddr};
use batmem_vmem::TranslationOutcome;

use super::{Engine, Event, WarpRef};

impl Engine {
    // ---- kernel lifecycle -------------------------------------------------

    pub(super) fn launch_kernel(&mut self, k: u32) -> Result<(), SimError> {
        debug_assert!(self.waiters.is_empty(), "stale page waiters across kernels");
        let kernel = self.workload.kernel(KernelId::new(k));
        self.spec = kernel.spec();
        self.occ = occupancy(&self.cfg.gpu, &self.spec);
        let blocks = self.spec.num_blocks;
        self.probes.emit_with(self.clock, || ProbeEvent::KernelLaunched { kernel: k, blocks });
        self.kernel = Some(kernel);
        self.kernel_idx = k;
        self.blocks.clear();
        self.block_sm.clear();
        self.block_serial.clear();
        self.free_blocks.clear();
        self.grid_cursor = 0;
        self.blocks_remaining = self.spec.num_blocks;
        for sm in &mut self.sms {
            debug_assert_eq!(sm.resident_blocks(), 0, "blocks left over from prior kernel");
            *sm = Sm::new();
        }
        let num_sms = self.sms.len();
        // Fill each SM's active slots round-robin, one slot depth at a time,
        // as the hardware block dispatcher does.
        for _slot in 0..self.occ.active_limit {
            for sm in 0..num_sms {
                self.dispatch_block(sm, true)?;
            }
        }
        // Thread oversubscription: provision extra inactive blocks (§4.1,
        // Fig. 6 step 1).
        if self.to_enabled() {
            self.top_up_inactive()?;
        }
        Ok(())
    }

    fn next_kernel(&mut self) -> Result<(), SimError> {
        let next = self.kernel_idx + 1;
        if next < self.workload.num_kernels() {
            self.launch_kernel(next)?;
        } else {
            // Execution time is when the last block retires; stray periodic
            // events (controller ticks, in-flight UVM work) may still drain
            // from the queue afterwards but do not count.
            self.kernel_idx = next;
            self.finished_at = Some(self.clock);
        }
        Ok(())
    }

    /// Dispatches the next grid block onto `sm`. Returns false if the grid
    /// is exhausted.
    fn dispatch_block(&mut self, sm: usize, active: bool) -> Result<bool, SimError> {
        if self.grid_cursor >= self.spec.num_blocks {
            return Ok(false);
        }
        let block = BlockContext::new(BlockId::new(self.grid_cursor));
        self.grid_cursor += 1;
        let serial = self.dispatched;
        self.dispatched += 1;
        // A retired block has no pending events and no page waiters (its
        // warps all finished), so its slot can hold the new block; the new
        // serial turns any stale address of the old one into an error.
        let idx = if let Some(idx) = self.free_blocks.pop() {
            self.blocks[idx] = block;
            self.block_sm[idx] = sm;
            self.block_serial[idx] = serial;
            idx
        } else {
            debug_assert_eq!(
                self.blocks.len(),
                self.sms.iter().map(Sm::resident_blocks).sum::<usize>(),
                "a block slot is appended only while every slot is resident"
            );
            self.blocks.push(block);
            self.block_sm.push(sm);
            self.block_serial.push(serial);
            self.blocks.len() - 1
        };
        if active {
            self.sms[sm].active.push(idx);
            self.activate_block(idx);
        } else {
            self.sms[sm].inactive.push(idx);
        }
        Ok(true)
    }

    /// Marks `idx` active and (on first activation) builds its warps'
    /// streams and schedules them.
    fn activate_block(&mut self, idx: usize) {
        let serial = self.block_serial[idx];
        let block = &mut self.blocks[idx];
        block.residency = BlockResidency::Active;
        if !block.started() {
            let kernel = self.kernel.as_ref().expect("kernel in flight");
            // A retired block's emptied vector, when there is one.
            let mut warps = self.warp_pool.pop().unwrap_or_default();
            warps.extend(
                (0..self.occ.warps_per_block)
                    .map(|w| WarpContext::new(kernel.warp_stream(block.id, w as u16))),
            );
            block.start(warps);
            for w in 0..self.occ.warps_per_block as usize {
                self.events.push(self.clock, Event::WarpWake(WarpRef::new(idx, w, serial)));
            }
        } else if block.count(WarpPhase::ReadyInactive) > 0 {
            for w in 0..block.warps().len() {
                if block.warps()[w].phase() == WarpPhase::ReadyInactive {
                    block.set_phase(w, WarpPhase::Ready);
                    self.events.push(self.clock, Event::WarpWake(WarpRef::new(idx, w, serial)));
                }
            }
        }
    }

    pub(super) fn top_up_inactive(&mut self) -> Result<(), SimError> {
        let degree = self.oversub.degree() as usize;
        for sm in 0..self.sms.len() {
            while self.sms[sm].inactive.len() < degree {
                if !self.dispatch_block(sm, false)? {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    // ---- warp execution ---------------------------------------------------

    fn is_throttled(&self, sm: usize) -> bool {
        sm >= self.sms.len() - self.throttled_count as usize
    }

    /// The slot and warp that `r` addresses, or a `StateMachine` error when
    /// its block has retired: the slot is then empty (at the end of a grid)
    /// or holds a block dispatched later.
    pub(super) fn resolve(&self, r: WarpRef, event: &str) -> Result<(usize, usize), SimError> {
        let b = r.slot as usize;
        if self.block_serial[b] == r.serial && self.blocks[b].residency != BlockResidency::Retired {
            return Ok((b, r.warp as usize));
        }
        Err(SimError::StateMachine {
            cycle: self.clock,
            event: format!("{event}(slot:{b}, serial:{}, warp:{})", r.serial, r.warp),
            state: "Retired".to_string(),
            detail: "a retired block's warp was woken".to_string(),
        })
    }

    pub(super) fn on_warp_wake(&mut self, r: WarpRef) -> Result<(), SimError> {
        let (b, w) = self.resolve(r, "WarpWake")?;
        match self.blocks[b].residency {
            BlockResidency::Active => {}
            _ => {
                self.blocks[b].set_phase(w, WarpPhase::ReadyInactive);
                return Ok(());
            }
        }
        let sm = self.block_sm[b];
        if self.is_throttled(sm) {
            // ETC memory-aware throttling: the SM is disabled; park the warp.
            self.blocks[b].set_phase(w, WarpPhase::Ready);
            return Ok(());
        }
        // The op's transactions land in the engine's recycled buffer, which
        // is taken out for the issue and put back after it.
        let mut txns = std::mem::take(&mut self.scratch_txns);
        let warp = self.blocks[b].warp_mut(w);
        let from_stream = !warp.has_retry();
        let res = match warp.next_op_into(&mut txns) {
            None => {
                // The stream is spent: free it now, not when the block
                // retires or the next kernel launches.
                warp.release_stream();
                self.blocks[b].set_phase(w, WarpPhase::Finished);
                self.warps_retired += 1;
                if self.blocks[b].all_finished() {
                    self.retire_block(b)
                } else {
                    self.maybe_switch(sm)
                }
            }
            Some(OpKind::Compute(c)) => {
                self.stream_ops += 1;
                self.blocks[b].set_phase(w, WarpPhase::Computing);
                let at = self.clock + Cycle::from(c);
                self.events.push(at, Event::WarpWake(r));
                Ok(())
            }
            Some(kind) => {
                self.stream_ops += u64::from(from_stream);
                self.exec_mem(r, kind == OpKind::Store, &txns)
            }
        };
        self.scratch_txns = txns;
        res
    }

    fn exec_mem(&mut self, r: WarpRef, store: bool, txns: &[VirtAddr]) -> Result<(), SimError> {
        let (b, w) = (r.slot as usize, r.warp as usize);
        self.mem_ops += 1;
        let sm = self.block_sm[b];
        let geom = self.cfg.uvm.geometry;
        let l1_hit = self.cfg.tlb.l1_hit_latency;
        // Translate each distinct page once (the coalescer and TLB port
        // would collapse the duplicates anyway). The two per-op lists are
        // recycled engine scratch; error exits may drop them (the run is
        // aborting) but every success path hands them back empty.
        let mut page_lat = std::mem::take(&mut self.scratch_page_lat);
        let mut faulted = std::mem::take(&mut self.scratch_faulted);
        debug_assert!(page_lat.is_empty() && faulted.is_empty());
        // Coalesced addrs are line-sorted, so same-page runs are contiguous:
        // remembering the previous page skips most dedup scans (and the fall
        // through stays correct for unsorted streams).
        let mut prev_page = None;
        for &a in txns {
            let page = geom.page_of(a);
            if prev_page == Some(page) {
                continue;
            }
            prev_page = Some(page);
            if page_lat.iter().any(|&(p, _)| p == page) || faulted.iter().any(|&(p, _)| p == page) {
                continue;
            }
            let t = self.mmu.translate(SmId::new(sm as u16), page, self.clock)?;
            if t.latency > l1_hit {
                // L1 TLB miss: refresh the page's LRU stamp (the manager's
                // aged-LRU approximation).
                self.uvm.touch(page);
            }
            match t.outcome {
                TranslationOutcome::Resident(_) => page_lat.push((page, t.latency)),
                TranslationOutcome::Fault => faulted.push((page, t.latency)),
            }
        }
        if faulted.is_empty() {
            let cc = self.cc.access_penalty();
            let mut total: Cycle = 0;
            let mut prev: Option<(_, Cycle)> = None;
            for &a in txns {
                let page = geom.page_of(a);
                let tl = match prev {
                    Some((p, l)) if p == page => l,
                    _ => {
                        let Some(l) = page_lat.iter().find(|&&(p, _)| p == page).map(|&(_, l)| l)
                        else {
                            return Err(SimError::Accounting {
                                cycle: self.clock,
                                detail: format!(
                                    "mem op touched page {page} that was never translated"
                                ),
                            });
                        };
                        prev = Some((page, l));
                        l
                    }
                };
                let dl = self.mem.access(sm, a) + cc;
                total = total.max(tl + dl);
            }
            self.blocks[b].set_phase(w, WarpPhase::MemWait);
            self.events.push(self.clock + total, Event::WarpWake(r));
            page_lat.clear();
            self.scratch_page_lat = page_lat;
            self.scratch_faulted = faulted;
        } else {
            // The warp stalls on its faulting pages. Replay is per-lane, as
            // on real hardware: lanes whose pages were resident complete
            // now, and only the faulted addresses re-issue — this also
            // guarantees forward progress when capacity is smaller than a
            // single op's page set (each replay resolves at least the page
            // that just arrived).
            let n = faulted.len() as u32;
            let warp = self.blocks[b].warp_mut(w);
            warp.park_retry(store, txns, |a| faulted.iter().any(|&(p, _)| p == geom.page_of(a)));
            warp.waiting_pages = n;
            self.blocks[b].set_phase(w, WarpPhase::FaultBlocked);
            let block_id = self.blocks[b].id;
            self.warp_stalls += 1;
            self.probes.emit_with(self.clock, || ProbeEvent::WarpStalled {
                sm: sm as u16,
                block: block_id.index() as u32,
                warp: w as u16,
                waiting_pages: n,
            });
            for (page, tl) in faulted.drain(..) {
                match self.waiters.get_mut(page) {
                    Some(list) => list.push(r),
                    None => {
                        let mut list = self.waiter_pool.pop().unwrap_or_default();
                        list.push(r);
                        self.waiters.insert(page, list);
                    }
                }
                // The fault reaches the fault buffer when the walk fails.
                self.events.push(self.clock + tl, Event::RaiseFault { page });
            }
            page_lat.clear();
            self.scratch_page_lat = page_lat;
            self.scratch_faulted = faulted;
            self.maybe_switch(sm)?;
        }
        Ok(())
    }

    // ---- thread oversubscription (VT context switching) --------------------

    pub(super) fn maybe_switch(&mut self, sm: usize) -> Result<(), SimError> {
        if !self.to_enabled() || !self.oversub.switching_allowed() {
            return Ok(());
        }
        let trigger = self.to.trigger;
        let out = self.sms[sm].active.iter().copied().find(|&b| {
            self.blocks[b].residency == BlockResidency::Active
                && self.blocks[b].is_fully_stalled(trigger)
        });
        let Some(out) = out else { return Ok(()) };
        let inc = self.sms[sm].inactive.iter().copied().find(|&b| {
            self.blocks[b].residency == BlockResidency::Inactive
                && self.blocks[b].is_switch_in_ready()
        });
        let Some(inc) = inc else { return Ok(()) };
        let cost =
            self.cfg.gpu.ctx_switch_cycles(self.spec.threads_per_block, self.spec.regs_per_thread);
        let done = self.sms[sm].begin_switch(self.clock, cost);
        self.ctx_switches += 1;
        self.ctx_switch_cycles += cost;
        self.probes.emit_with(self.clock, || ProbeEvent::ContextSwitch {
            sm: sm as u16,
            cost,
            restore: false,
        });
        self.blocks[out].residency = BlockResidency::Inactive;
        self.sms[sm].deactivate(out, self.clock)?;
        self.blocks[inc].residency = BlockResidency::SwitchingIn;
        self.events.push(done, Event::SwitchInDone { sm, block: inc });
        Ok(())
    }

    pub(super) fn on_switch_in_done(&mut self, sm: usize, block: usize) -> Result<(), SimError> {
        self.sms[sm].activate(block, self.clock)?;
        self.activate_block(block);
        // Chain: another active block may be stalled with another inactive
        // block ready.
        self.maybe_switch(sm)
    }

    // ---- retirement and refill ---------------------------------------------

    fn retire_block(&mut self, b: usize) -> Result<(), SimError> {
        let sm = self.block_sm[b];
        // Nothing reads a retired block's warps: drop their contexts and
        // keep the vector for the next block that starts.
        let warps = self.blocks[b].retire();
        self.warp_pool.push(warps);
        self.sms[sm].remove(b, self.clock)?;
        self.free_blocks.push(b);
        self.blocks_retired += 1;
        self.blocks_remaining -= 1;
        if self.blocks_remaining == 0 {
            self.next_kernel()?;
            return Ok(());
        }
        // Refill the freed active slot: prefer a resident inactive block
        // (restore-only context cost), then a fresh grid block.
        let inactive_pick = self.sms[sm]
            .inactive
            .iter()
            .copied()
            .find(|&x| {
                self.blocks[x].residency == BlockResidency::Inactive
                    && self.blocks[x].is_switch_in_ready()
            })
            .or_else(|| {
                self.sms[sm]
                    .inactive
                    .iter()
                    .copied()
                    .find(|&x| self.blocks[x].residency == BlockResidency::Inactive)
            });
        if self.to_enabled() {
            if let Some(inc) = inactive_pick {
                let restore = self
                    .cfg
                    .gpu
                    .ctx_switch_cycles(self.spec.threads_per_block, self.spec.regs_per_thread)
                    / 2;
                let done = self.sms[sm].begin_switch(self.clock, restore);
                self.ctx_switches += 1;
                self.ctx_switch_cycles += restore;
                self.probes.emit_with(self.clock, || ProbeEvent::ContextSwitch {
                    sm: sm as u16,
                    cost: restore,
                    restore: true,
                });
                self.blocks[inc].residency = BlockResidency::SwitchingIn;
                self.events.push(done, Event::SwitchInDone { sm, block: inc });
                self.top_up_inactive()?;
                return Ok(());
            }
        }
        self.dispatch_block(sm, true)?;
        if self.to_enabled() {
            self.top_up_inactive()?;
        }
        Ok(())
    }
}
