//! The end-to-end simulation engine.
//!
//! Wires the GPU core model (`batmem-sim`) to the MMU (`batmem-vmem`), the
//! UVM runtime (`batmem-uvm`), and the ETC baseline (`batmem-etc`), and
//! drives them with a single deterministic event loop (DESIGN.md §13 says
//! why it runs on one thread).
//!
//! # Module layout
//!
//! * [`exec`] — SM-side execution: kernel lifecycle, warp wakes, memory
//!   ops, TO context switching, block retirement.
//! * [`uvm_glue`] — shared-state side: the UVM pipeline's outputs, fault
//!   recording, page-arrival wakeups, and the oversubscription scheme's
//!   periodic controller.
//! * [`builder`] — [`Simulation`] / [`SimulationBuilder`].

mod builder;
mod exec;
mod uvm_glue;

#[cfg(test)]
mod tests;

pub use builder::{Simulation, SimulationBuilder};

use crate::metrics::RunMetrics;
use crate::policies::ResolvedPolicy;
use batmem_sim::block::BlockContext;
use batmem_sim::cache::MemPath;
use batmem_sim::events::EventQueue;
use batmem_sim::ops::{Kernel, KernelSpec, Workload};
use batmem_sim::sm::{Occupancy, Sm};
use batmem_sim::warp::WarpContext;
use batmem_types::dense::PageMap;
use batmem_types::probe::{ProbeEvent, ProbeHub, SharedProbes};
use batmem_types::{AuditLevel, Cycle, PageId, SimConfig, SimError, VirtAddr};
use batmem_uvm::{InjectConfig, Oversubscription, UvmEvent, UvmRuntime};
use batmem_vmem::Mmu;

#[derive(Debug)]
enum Event {
    WarpWake(WarpRef),
    RaiseFault { page: PageId },
    Uvm(UvmEvent),
    SwitchInDone { sm: usize, block: usize },
    Tick,
}

/// A warp's address in the block table: its block's slot, the dispatch
/// serial of that block, and the warp's index in the block. A retired
/// block's slot goes to the next block dispatched, so the serial is what
/// tells an address of a retired block from one of the slot's new block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WarpRef {
    serial: u64,
    slot: u32,
    warp: u32,
}

impl WarpRef {
    fn new(slot: usize, warp: usize, serial: u64) -> Self {
        Self {
            serial,
            slot: u32::try_from(slot).expect("block slots are bounded by the resident blocks"),
            warp: u32::try_from(warp).expect("warps per block fit in u32"),
        }
    }
}

struct Engine {
    cfg: SimConfig,
    clock: Cycle,
    events: EventQueue<Event>,
    mmu: Mmu,
    mem: MemPath,
    uvm: UvmRuntime,
    /// The oversubscription scheme the spec resolved to, with its
    /// controller's state.
    oversub: Oversubscription,
    workload: Box<dyn Workload>,
    kernel_idx: u32,
    kernel: Option<Box<dyn Kernel>>,
    spec: KernelSpec,
    occ: Occupancy,
    /// Block slots, indexed by the arena index that events, waiters and the
    /// SM lists carry, with each block's SM and dispatch serial beside it.
    blocks: Vec<BlockContext>,
    block_sm: Vec<usize>,
    block_serial: Vec<u64>,
    /// Blocks dispatched so far in the run, over all kernels: the next
    /// block's serial.
    dispatched: u64,
    /// Slots of retired blocks, reused by the next dispatch, so the table
    /// grows to the most blocks ever resident at once, not the grid.
    free_blocks: Vec<usize>,
    sms: Vec<Sm>,
    grid_cursor: u32,
    blocks_remaining: u32,
    waiters: PageMap<Vec<WarpRef>>,
    probes: SharedProbes,
    // Recycled hot-loop scratch: taken, filled, cleared, and put back so
    // the steady-state event loop performs no heap allocations.
    uvm_out: Vec<batmem_uvm::UvmOutput>,
    waiter_pool: Vec<Vec<WarpRef>>,
    /// Retired blocks' emptied warp vectors.
    warp_pool: Vec<Vec<WarpContext>>,
    /// The issuing op's transactions.
    scratch_txns: Vec<VirtAddr>,
    scratch_page_lat: Vec<(PageId, Cycle)>,
    scratch_faulted: Vec<(PageId, Cycle)>,
    // metrics
    finished_at: Option<Cycle>,
    memory_pages: Option<u64>,
    blocks_retired: u64,
    warps_retired: u64,
    mem_ops: u64,
    ctx_switches: u64,
    ctx_switch_cycles: Cycle,
    warp_stalls: u64,
    warp_resumes: u64,
    watchdog_ticks: u64,
    /// Ops taken from warp streams (replays of faulted ops excluded): the
    /// watchdog's measure of forward progress, with `warps_retired`.
    stream_ops: u64,
}

impl Engine {
    fn new(
        cfg: SimConfig,
        inject: Option<InjectConfig>,
        probes: ProbeHub,
        workload: Box<dyn Workload>,
        footprint_pages: u64,
        policy: ResolvedPolicy,
    ) -> Self {
        let probes = SharedProbes::new(probes);
        let mut uvm = UvmRuntime::with_strategies(
            &cfg.uvm,
            &cfg.policy,
            footprint_pages,
            policy.eviction,
            policy.prefetcher,
            policy.coalesce,
        );
        if policy.compression {
            uvm.enable_compression();
        }
        policy.oversub.configure(&mut uvm);
        uvm.set_audit(cfg.audit);
        uvm.set_probes(probes.clone());
        if let Some(i) = inject {
            uvm.set_injector(i);
        }
        uvm.set_servicing(policy.servicing);
        let mmu = Mmu::new(&cfg);
        let mem = MemPath::new(&cfg.mem, cfg.gpu.num_sms);
        let num_sms = cfg.gpu.num_sms as usize;
        let memory_pages = cfg.uvm.gpu_mem_pages;
        // Kernel launch wakes every schedulable warp at the same cycle:
        // size the same-cycle ring for that burst up front.
        let max_warps = num_sms * (cfg.gpu.threads_per_sm / cfg.gpu.warp_size).max(1) as usize;
        Self {
            cfg,
            clock: 0,
            events: EventQueue::with_capacity(max_warps),
            mmu,
            mem,
            uvm,
            oversub: policy.oversub,
            workload,
            kernel_idx: 0,
            kernel: None,
            spec: KernelSpec { num_blocks: 0, threads_per_block: 32, regs_per_thread: 0 },
            occ: Occupancy { active_limit: 1, warps_per_block: 1 },
            blocks: Vec::new(),
            block_sm: Vec::new(),
            block_serial: Vec::new(),
            dispatched: 0,
            free_blocks: Vec::new(),
            sms: (0..num_sms).map(|_| Sm::new()).collect(),
            grid_cursor: 0,
            blocks_remaining: 0,
            waiters: PageMap::with_capacity(footprint_pages as usize),
            probes,
            finished_at: None,
            memory_pages,
            blocks_retired: 0,
            warps_retired: 0,
            mem_ops: 0,
            ctx_switches: 0,
            ctx_switch_cycles: 0,
            warp_stalls: 0,
            warp_resumes: 0,
            watchdog_ticks: 0,
            stream_ops: 0,
            uvm_out: Vec::new(),
            waiter_pool: Vec::new(),
            warp_pool: Vec::new(),
            scratch_txns: Vec::new(),
            scratch_page_lat: Vec::new(),
            scratch_faulted: Vec::new(),
        }
    }

    /// What counts as forward progress for the watchdog: ops taken from a
    /// warp's stream, and warps retired. Fault replays, fault records, page
    /// installs and context switches do not count: a replay-evict-switch
    /// cycle produces all four forever without advancing any warp.
    fn progress_signature(&self) -> u64 {
        self.stream_ops + self.warps_retired
    }

    /// One-line dump of what is outstanding, for livelock/deadlock errors.
    fn describe_stuck(&self) -> String {
        let occ = self.events.occupancy();
        format!(
            "kernel {}/{}, {} blocks outstanding, {} pages awaited, {} events queued (ring {} / wheel {} / overflow {}); {}",
            self.kernel_idx,
            self.workload.num_kernels(),
            self.blocks_remaining,
            self.waiters.len(),
            self.events.len(),
            occ.ring,
            occ.wheel,
            occ.overflow,
            self.uvm.describe_state(),
        )
    }

    /// Cross-checks engine-level state against the MMU under `Full` audit:
    /// a page with registered fault waiters must not be installed (its
    /// waiters would sleep forever — exactly the livelock class the
    /// fault-injection tests provoke).
    fn audit_cross_state(&self) -> Result<(), SimError> {
        for (page, list) in self.waiters.iter() {
            if self.mmu.is_resident(page) {
                return Err(SimError::InvariantViolated {
                    cycle: self.clock,
                    invariant: "pages with fault waiters are not MMU-resident",
                    snapshot: format!(
                        "page {page} is installed but {} warps wait on it",
                        list.len()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Handles one event at the current clock.
    fn handle(&mut self, ev: Event) -> Result<(), SimError> {
        match ev {
            Event::WarpWake(r) => self.on_warp_wake(r)?,
            Event::RaiseFault { page } => self.on_raise_fault(page)?,
            Event::Uvm(e) => {
                // Take/restore the recycled scratch so the runtime and
                // apply step borrow independently; steady state never
                // allocates.
                let mut outs = std::mem::take(&mut self.uvm_out);
                let res = self
                    .uvm
                    .on_event_into(e, self.clock, &mut outs)
                    .and_then(|()| self.apply_outputs(&mut outs));
                outs.clear();
                self.uvm_out = outs;
                res?;
                if self.cfg.audit >= AuditLevel::Full {
                    self.audit_cross_state()?;
                }
            }
            Event::SwitchInDone { sm, block } => self.on_switch_in_done(sm, block)?,
            Event::Tick => self.on_tick()?,
        }
        Ok(())
    }

    fn run(mut self) -> Result<RunMetrics, SimError> {
        self.launch_kernel(0)?;
        if let Some(at) = self.oversub.next_tick(self.clock) {
            self.events.push(at, Event::Tick);
        }
        let budget = self.cfg.watchdog_event_budget;
        let mut last_sig = self.progress_signature();
        let mut stagnant: u64 = 0;
        while let Some((t, ev)) = self.events.pop() {
            debug_assert!(t >= self.clock, "time went backwards");
            self.clock = t;
            self.handle(ev)?;
            if budget > 0 {
                let sig = self.progress_signature();
                if sig == last_sig {
                    stagnant += 1;
                    self.watchdog_ticks += 1;
                    let occ = self.events.occupancy();
                    self.probes.emit_with(self.clock, || ProbeEvent::WatchdogTick {
                        events_without_progress: stagnant,
                        ring: occ.ring as u64,
                        wheel: occ.wheel as u64,
                        overflow: occ.overflow as u64,
                    });
                    if stagnant >= budget {
                        return Err(SimError::Livelock {
                            cycle: self.clock,
                            events_without_progress: stagnant,
                            snapshot: self.describe_stuck(),
                        });
                    }
                } else {
                    last_sig = sig;
                    stagnant = 0;
                }
            }
        }
        if self.blocks_remaining > 0 || self.kernel_idx < self.workload.num_kernels() {
            return Err(SimError::Deadlock { cycle: self.clock, detail: self.describe_stuck() });
        }
        let Some(finished_at) = self.finished_at else {
            return Err(SimError::Deadlock {
                cycle: self.clock,
                detail: "work completed but no finish time was recorded".to_string(),
            });
        };
        let mmu_stats = self.mmu.stats();
        // Stray in-flight UVM events may have emitted after `finished_at`;
        // the summary goes out at the final drained clock so the trace
        // stays monotone.
        self.probes.emit_with(self.clock.max(finished_at), || ProbeEvent::TranslationSummary {
            l1_hits: mmu_stats.l1.hits,
            l1_misses: mmu_stats.l1.misses,
            large_hits: mmu_stats.large_hits(),
            walks: mmu_stats.walks,
            coalesces: mmu_stats.coalesces,
            splinters: mmu_stats.splinters,
        });
        // Only a non-default servicing model reports: under `cpu` the
        // counters are None and the event stream stays byte-identical to
        // the classic path.
        if let Some(c) = self.uvm.fault_servicing_counters() {
            self.probes.emit_with(self.clock.max(finished_at), || {
                ProbeEvent::FaultServicingSummary {
                    batches: c.batches,
                    faults: c.faults,
                    occupancy_cycles: c.occupancy_cycles,
                }
            });
        }
        let l2d = self.mem.l2_stats();
        self.probes.emit_with(self.clock.max(finished_at), || ProbeEvent::DataPathSummary {
            l2_hits: l2d.hits,
            l2_misses: l2d.misses,
            l2_conflict_evictions: l2d.conflict_evictions,
        });
        self.probes.finish(finished_at);
        Ok(RunMetrics {
            cycles: finished_at,
            workload: self.workload.name(),
            footprint_bytes: self.workload.footprint_bytes(),
            memory_pages: self.memory_pages,
            kernels: self.workload.num_kernels(),
            blocks_retired: self.blocks_retired,
            warps_retired: self.warps_retired,
            mem_ops: self.mem_ops,
            uvm: self.uvm.stats(),
            mmu: mmu_stats,
            l1d: self.mem.l1_stats(),
            l2d,
            ctx_switches: self.ctx_switches,
            ctx_switch_cycles: self.ctx_switch_cycles,
            warp_stalls: self.warp_stalls,
            warp_resumes: self.warp_resumes,
            watchdog_ticks: self.watchdog_ticks,
            final_oversub_degree: self.oversub.degree(),
            oversub_decrements: self.oversub.decrements(),
            throttle_engagements: self.oversub.engagements(),
        })
    }
}
