//! The staged UVM fault pipeline: batched fault processing, migration
//! scheduling, and pluggable eviction.
//!
//! The runtime mirrors the driver control flow the paper analyzes, as an
//! explicit pipeline of stages, one module per stage:
//!
//! 1. **Fault capture** ([`capture`]) — a fault arrives
//!    ([`UvmRuntime::record_fault`]) and lands in the replayable fault
//!    buffer; if the runtime is idle the ISR schedules a drain.
//! 2. **Batch formation + prefetch expansion** ([`formation`]) — the
//!    buffer drains, faults are sorted and deduplicated, the configured
//!    [`Prefetcher`] expands the batch, and the *GPU runtime fault
//!    handling time* elapses ([`UvmEvent::HandlingDone`]).
//! 3. **Residency/eviction decision** ([`residency`]) — when device memory
//!    is at capacity each needed frame comes from the configured
//!    [`EvictionStrategy`]:
//!    * `lru` — the eviction transfer blocks the host-to-device pipe
//!      (Fig. 4: migration begins only after the eviction completes);
//!    * `ue` — one preemptive eviction is issued at batch start
//!      (overlapping the handling window) and further evictions pipeline
//!      on the device-to-host direction (Fig. 10);
//!    * `ideal` — frames free instantly (Fig. 8's limit study);
//!    * any other row of the eviction table in
//!      [`registry`](crate::registry).
//! 4. **Migration scheduling** ([`migration`]) — transfers are placed on
//!    the PCIe host-to-device pipe; each arrival
//!    ([`UvmEvent::PageArrived`]) installs the page, and after the last
//!    one the batch closes and, if faults accumulated meanwhile, the next
//!    batch starts immediately (the driver's replay optimization).
//!
//! The runtime never touches the MMU or event queue directly: it returns
//! [`UvmOutput`] commands that the engine applies, keeping this crate
//! independently testable.
//!
//! All entry points are fallible: an event that contradicts the state
//! machine or the residency books returns a [`SimError`] carrying the
//! cycle, event, and state at the point of failure instead of panicking.
//! [`UvmRuntime::set_audit`] additionally re-derives the runtime's
//! conservation laws after every event, and [`UvmRuntime::set_injector`]
//! arms deterministic fault injection for robustness tests.
//!
//! Observation goes through the probe layer: every fault, batch
//! open/close, migration, eviction (with its cause and pinned/premature
//! classification) is emitted as a
//! [`ProbeEvent`] on the
//! [`SharedProbes`] handle installed by [`UvmRuntime::set_probes`] —
//! [`UvmStats`] is merely the built-in aggregate of the same stream.

pub mod capture;
pub mod formation;
pub mod migration;
pub mod residency;

#[cfg(test)]
mod tests;

use crate::adaptive::AdaptiveSignals;
use crate::batch::BatchRecord;
use crate::fault::FaultBuffer;
use crate::inject::{FaultInjector, InjectConfig, InjectStats};
use crate::lifetime::{LifetimeSample, LifetimeTracker};
use crate::memmgr::MemoryManager;
use crate::pcie::PciePipes;
use crate::stats::UvmStats;
use crate::strategies::{
    CoalesceStrategy, CpuServicing, EvictionStrategy, FaultServicingModel, Prefetcher,
    ServicingCounters,
};
use batmem_types::config::UvmConfig;
use batmem_types::dense::{PageMap, PageSet, RegionSet, TieredPageMap};
use batmem_types::policy::PolicyConfig;
use batmem_types::probe::{ProbeEvent, SharedProbes};
use batmem_types::{AuditLevel, Cycle, FrameId, PageId, RegionId, SimError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Events the runtime schedules for itself through the engine's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UvmEvent {
    /// The top-half ISR responds to the fault interrupt: drain the buffer
    /// and begin a batch. Faults raised during the interrupt-delivery
    /// window join the batch.
    DrainBuffer,
    /// Preprocessing and CPU page-table walks for a batch finished.
    HandlingDone {
        /// The batch's sequence number.
        batch: u64,
    },
    /// A page's host-to-device transfer completed.
    PageArrived {
        /// The migrated page.
        page: PageId,
    },
    /// An eviction transfer began; the page must leave the GPU page table
    /// now (subsequent accesses fault).
    EvictionStarted {
        /// The evicted page.
        page: PageId,
    },
}

/// Commands the runtime returns for the engine to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UvmOutput {
    /// Enqueue `event` at time `at`.
    Schedule {
        /// Delivery time.
        at: Cycle,
        /// The event to deliver back to the runtime.
        event: UvmEvent,
    },
    /// Install `page -> frame` in the GPU page table and wake its waiters.
    Install {
        /// The arrived page.
        page: PageId,
        /// The frame it occupies.
        frame: FrameId,
    },
    /// Remove `page` from the GPU page table (with TLB shootdown).
    Evict {
        /// The evicted page.
        page: PageId,
    },
    /// Promote the fully-installed large-page group `region` to a single
    /// large mapping (every page of the group was installed by preceding
    /// `Install` commands).
    Coalesce {
        /// The promoted large-page group.
        region: RegionId,
    },
    /// Demote large-page group `region` back to base mappings; always
    /// emitted before any `Evict` of a page under a promoted mapping.
    Splinter {
        /// The demoted large-page group.
        region: RegionId,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum State {
    Idle,
    /// A fault interrupt was raised; the drain fires after the ISR latency.
    Draining,
    Handling,
    Migrating,
}

#[derive(Debug)]
pub(crate) struct BatchPlan {
    pub(crate) record: BatchRecord,
    pub(crate) pages: Vec<PageId>,
    pub(crate) remaining: usize,
}

/// The UVM runtime model. See the [module documentation](self).
#[derive(Debug)]
pub struct UvmRuntime {
    pub(crate) cfg: UvmConfig,
    pub(crate) policy: PolicyConfig,
    pub(crate) buffer: FaultBuffer,
    pub(crate) mem: MemoryManager,
    pub(crate) pipes: PciePipes,
    pub(crate) eviction: Box<dyn EvictionStrategy>,
    pub(crate) prefetcher: Box<dyn Prefetcher>,
    pub(crate) coalesce: Box<dyn CoalesceStrategy>,
    /// Fault-servicing cost model consulted by the capture (ISR latency)
    /// and formation (handling window) stages.
    pub(crate) servicing: Box<dyn FaultServicingModel>,
    /// Actuation signals of the adaptive oversubscription policy (`None`
    /// for every static policy — all fast paths stay untouched).
    pub(crate) signals: Option<AdaptiveSignals>,
    /// Pages currently installed in the GPU page table, mirrored from the
    /// `Install`/`Evict` commands this runtime emits. Its regions are the
    /// configured geometry's large-page groups, and their counts gate
    /// promotion.
    pub(crate) installed: TieredPageMap<()>,
    /// Groups currently promoted to a large mapping (mirrors the page
    /// table's promoted set).
    pub(crate) promoted: RegionSet,
    /// Groups that were splintered at least once (the sticky input to
    /// [`CoalesceStrategy::should_promote`]).
    pub(crate) splintered: RegionSet,
    pub(crate) lifetime: LifetimeTracker,
    pub(crate) state: State,
    pub(crate) current: Option<BatchPlan>,
    /// Pages of the open batch (cleared at batch formation; only
    /// meaningful while `current` is `Some`).
    pub(crate) batch_pages: PageSet,
    /// Planned arrival time per open-batch page (cleared with
    /// `batch_pages`).
    pub(crate) planned_arrival: PageMap<Cycle>,
    /// Frames freed by in-flight evictions, keyed by availability time.
    pub(crate) pending_free: BinaryHeap<Reverse<(Cycle, FrameId)>>,
    /// Pages of the current batch being migrated, with assigned frames.
    pub(crate) inflight: PageMap<FrameId>,
    /// Upper bound on valid page indices (prefetch never crosses it).
    pub(crate) valid_pages: u64,
    /// Ideal-eviction victims awaiting their shootdown timestamp (emitted
    /// at the consuming migration's start, the latest consistent moment).
    pub(crate) ideal_evicts: Vec<(PageId, Cycle)>,
    pub(crate) batch_seq: u64,
    pub(crate) finished_batches: Vec<BatchRecord>,
    pub(crate) faults_on_pending: u64,
    pub(crate) preemptive_evictions: u64,
    /// Whether formation evicts ahead of each batch's frame demand (see
    /// [`enable_proactive_eviction`](Self::enable_proactive_eviction)).
    pub(crate) proactive_eviction: bool,
    pub(crate) proactive_evictions: u64,
    pub(crate) audit: AuditLevel,
    pub(crate) injector: Option<FaultInjector>,
    pub(crate) probes: SharedProbes,
}

impl UvmRuntime {
    /// Creates the runtime for an address space of `valid_pages` pages
    /// around strategies resolved from a policy spec (see
    /// [`registry`](crate::registry)). The PCIe link
    /// starts uncompressed and proactive eviction off; see
    /// [`enable_compression`](Self::enable_compression) and
    /// [`enable_proactive_eviction`](Self::enable_proactive_eviction).
    pub fn with_strategies(
        cfg: &UvmConfig,
        policy: &PolicyConfig,
        valid_pages: u64,
        eviction: Box<dyn EvictionStrategy>,
        prefetcher: Box<dyn Prefetcher>,
        coalesce: Box<dyn CoalesceStrategy>,
    ) -> Self {
        Self {
            cfg: cfg.clone(),
            policy: *policy,
            buffer: FaultBuffer::new(cfg.fault_buffer_entries),
            mem: MemoryManager::new(cfg.gpu_mem_pages),
            pipes: PciePipes::new(cfg.pcie_h2d_bytes_per_sec, cfg.pcie_d2h_bytes_per_sec),
            eviction,
            prefetcher,
            coalesce,
            servicing: Box::new(CpuServicing),
            signals: None,
            installed: TieredPageMap::with_pages_per_region(cfg.geometry.pages_per_large()),
            promoted: RegionSet::new(),
            splintered: RegionSet::new(),
            lifetime: LifetimeTracker::new(),
            state: State::Idle,
            current: None,
            batch_pages: PageSet::new(),
            planned_arrival: PageMap::new(),
            pending_free: BinaryHeap::new(),
            inflight: PageMap::new(),
            ideal_evicts: Vec::new(),
            valid_pages,
            batch_seq: 0,
            finished_batches: Vec::new(),
            faults_on_pending: 0,
            preemptive_evictions: 0,
            proactive_eviction: false,
            proactive_evictions: 0,
            audit: AuditLevel::Off,
            injector: None,
            probes: SharedProbes::disabled(),
        }
    }

    /// Compresses PCIe transfers with the policy's compression parameters
    /// (a spec with `compression` set).
    pub fn enable_compression(&mut self) {
        self.pipes.enable_compression(self.policy.compression);
    }

    /// Turns on ETC-style proactive eviction (the `etc:<throttle>:pe`
    /// spec): at batch start, formation evicts enough pages to cover the
    /// batch's predicted frame demand, overlapped with the handling window.
    /// Mispredictions surface as premature evictions — the reason the ETC
    /// authors disable it for irregular workloads.
    pub fn enable_proactive_eviction(&mut self) {
        self.proactive_eviction = true;
    }

    /// Sets the invariant-audit level. When enabled, the runtime re-checks
    /// its conservation laws after every delivered event and fails the run
    /// with [`SimError::InvariantViolated`] on the first breach.
    pub fn set_audit(&mut self, level: AuditLevel) {
        self.audit = level;
    }

    /// Arms deterministic fault injection (see [`InjectConfig`]).
    pub fn set_injector(&mut self, cfg: InjectConfig) {
        self.injector = Some(FaultInjector::new(cfg));
    }

    /// Installs the fault-servicing cost model (default: [`CpuServicing`],
    /// whose arithmetic is the seed's, verbatim).
    pub fn set_servicing(&mut self, servicing: Box<dyn FaultServicingModel>) {
        self.servicing = servicing;
    }

    /// Installs the adaptive policy's actuation signals; the formation
    /// stage consults them for prefetch throttling and eager eviction.
    pub fn set_adaptive_signals(&mut self, signals: AdaptiveSignals) {
        self.signals = Some(signals);
    }

    /// Installs the probe emission handle (shared with the engine). The
    /// default handle is inert; with it, every emission site below is a
    /// single predictable branch.
    pub fn set_probes(&mut self, probes: SharedProbes) {
        self.probes = probes;
    }

    /// What the injector has done so far (`None` when injection is off).
    pub fn injector_stats(&self) -> Option<InjectStats> {
        self.injector.as_ref().map(FaultInjector::stats)
    }

    /// Refreshes a resident page's LRU position (called by the engine on
    /// L1 TLB misses — the aged-LRU approximation).
    pub fn touch(&mut self, page: PageId) {
        self.mem.touch(page);
    }

    /// Delivers a previously scheduled event back to the runtime.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StateMachine`] when the event does not match the
    /// runtime's state (an engine bug), [`SimError::Accounting`] when the
    /// residency books contradict themselves, and
    /// [`SimError::InvariantViolated`] when auditing is enabled and a
    /// conservation law fails after the event applies.
    pub fn on_event(&mut self, event: UvmEvent, now: Cycle) -> Result<Vec<UvmOutput>, SimError> {
        let mut out = Vec::new();
        self.on_event_into(event, now, &mut out)?;
        Ok(out)
    }

    /// Allocation-free variant of [`Self::on_event`]: appends the resulting
    /// commands to `out` (typically the engine's recycled scratch buffer)
    /// instead of allocating a fresh `Vec` per event.
    ///
    /// On error, `out` may hold a partial prefix of commands; callers must
    /// not apply it.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::on_event`].
    pub fn on_event_into(
        &mut self,
        event: UvmEvent,
        now: Cycle,
        out: &mut Vec<UvmOutput>,
    ) -> Result<(), SimError> {
        match event {
            UvmEvent::DrainBuffer => {
                if self.state != State::Draining {
                    return Err(self.unexpected(
                        now,
                        "DrainBuffer",
                        "drain outside the ISR window",
                    ));
                }
                self.state = State::Idle;
                self.start_batch(now, out)?;
            }
            UvmEvent::HandlingDone { batch } => self.plan_migrations(batch, now, out)?,
            UvmEvent::PageArrived { page } => self.page_arrived(page, now, out)?,
            UvmEvent::EvictionStarted { page } => {
                // Splinter-before-evict: a page may not leave the page
                // table while its group holds a large mapping.
                let group = self.installed.region_of(page);
                if self.promoted.remove(group) {
                    self.splintered.insert(group);
                    self.probes.emit_with(now, || ProbeEvent::RegionSplintered { region: group });
                    out.push(UvmOutput::Splinter { region: group });
                }
                self.installed.remove(page);
                out.push(UvmOutput::Evict { page });
            }
        }
        if self.audit.enabled() {
            self.check_invariants(now)?;
        }
        Ok(())
    }

    /// Records that `page` was installed in the GPU page table (its
    /// `Install` command was just emitted) and, when the coalescing policy
    /// agrees and the group is now fully installed, emits the group's
    /// promotion.
    pub(crate) fn note_installed(&mut self, page: PageId, now: Cycle, out: &mut Vec<UvmOutput>) {
        if self.coalesce.is_off() {
            return;
        }
        self.installed.insert(page, ());
        let group = self.installed.region_of(page);
        if self.installed.region_is_full(group)
            && !self.promoted.contains(group)
            && self.coalesce.should_promote(self.splintered.contains(group))
        {
            self.promoted.insert(group);
            let pages = self.installed.pages_per_region() as u32;
            self.probes.emit_with(now, || ProbeEvent::RegionCoalesced { region: group, pages });
            out.push(UvmOutput::Coalesce { region: group });
        }
    }

    /// Large-page groups currently promoted (runtime's view).
    pub fn promoted_groups(&self) -> usize {
        self.promoted.len()
    }

    /// Builds a [`SimError::StateMachine`] snapshotting the current state.
    pub(crate) fn unexpected(&self, now: Cycle, event: &str, detail: &str) -> SimError {
        SimError::StateMachine {
            cycle: now,
            event: event.to_string(),
            state: format!("{:?}", self.state),
            detail: detail.to_string(),
        }
    }

    /// Closes a lifetime sampling window (driven by the engine every
    /// [`ToConfig::lifetime_sample_period`](batmem_types::policy::ToConfig)).
    pub fn sample_lifetime(&mut self) -> LifetimeSample {
        self.lifetime.sample()
    }

    /// Whether a batch is currently open.
    pub fn busy(&self) -> bool {
        self.state != State::Idle
    }

    /// Whether `page` is currently migrating.
    pub fn is_inflight(&self, page: PageId) -> bool {
        self.inflight.contains(page)
    }

    /// Whether `page` is resident in the runtime's planned view (which may
    /// lead the GPU page table by up to one batch's scheduling).
    pub fn is_resident(&self, page: PageId) -> bool {
        self.mem.is_resident(page)
    }

    /// Pages currently resident (planned view).
    pub fn resident_pages(&self) -> usize {
        self.mem.resident_count()
    }

    /// Preemptive evictions issued by the UE top-half path.
    pub fn preemptive_evictions(&self) -> u64 {
        self.preemptive_evictions
    }

    /// Outstanding page arrivals of the open batch (engine diagnostics).
    pub fn outstanding(&self) -> usize {
        self.current.as_ref().map_or(0, |p| p.remaining)
    }

    /// One-line state description for watchdog and deadlock dumps.
    pub fn describe_state(&self) -> String {
        format!(
            "uvm state={:?} open_batch={:?} remaining={} inflight={} resident={} pending_free={} buffered_faults={}",
            self.state,
            self.current.as_ref().map(|p| p.record.id),
            self.outstanding(),
            self.inflight.len(),
            self.mem.resident_count(),
            self.pending_free.len(),
            !self.buffer.is_empty(),
        )
    }

    /// Re-derives the runtime's invariants from scratch.
    ///
    /// Run automatically after every event when [`set_audit`](Self::set_audit)
    /// enables auditing; also callable directly by tests. `Basic` covers
    /// state/plan structural consistency; `Full` adds the O(resident)
    /// frame-conservation and LRU-index scans.
    pub fn check_invariants(&self, now: Cycle) -> Result<(), SimError> {
        let violated = |invariant: &'static str, snapshot: String| {
            Err(SimError::InvariantViolated { cycle: now, invariant, snapshot })
        };
        match self.state {
            State::Idle | State::Draining => {
                if self.current.is_some() || !self.inflight.is_empty() {
                    return violated("idle runtime has no open batch", self.describe_state());
                }
            }
            State::Handling => {
                let Some(plan) = &self.current else {
                    return violated("handling state has an open batch", self.describe_state());
                };
                if plan.remaining != plan.pages.len() || !self.inflight.is_empty() {
                    return violated(
                        "handling batch has not started migrating",
                        self.describe_state(),
                    );
                }
            }
            State::Migrating => {
                let Some(plan) = &self.current else {
                    return violated("migrating state has an open batch", self.describe_state());
                };
                if self.inflight.len() != plan.remaining || plan.remaining > plan.pages.len() {
                    return violated(
                        "in-flight pages equal outstanding arrivals",
                        self.describe_state(),
                    );
                }
            }
        }
        if let Some(plan) = &self.current {
            let planned = plan.record.faults as usize + plan.record.prefetches as usize;
            if planned != plan.pages.len() || self.batch_pages.len() != plan.pages.len() {
                return violated(
                    "batch page counts are conserved",
                    format!(
                        "faults+prefetches={planned} pages={} set={}",
                        plan.pages.len(),
                        self.batch_pages.len()
                    ),
                );
            }
            // Every in-flight page belongs to the open batch: batch pages
            // and in-flight pages are both duplicate-free, so counting the
            // batch pages that are in flight is an O(batch) subset check.
            let inflight_batch_pages =
                plan.pages.iter().filter(|p| self.inflight.contains(**p)).count();
            if inflight_batch_pages != self.inflight.len() {
                return violated("in-flight pages belong to the open batch", self.describe_state());
            }
        }
        if self.audit >= AuditLevel::Full {
            // Splinter-before-evict: a promoted group's pages are all still
            // installed (promotion implies full residency at all times).
            if let Some(g) = self.promoted.iter().find(|&g| !self.installed.region_is_full(g)) {
                return violated(
                    "promoted groups are fully installed",
                    format!(
                        "group {g} promoted with {}/{} pages installed",
                        self.installed.region_len(g),
                        self.installed.pages_per_region()
                    ),
                );
            }
            self.mem.audit(now)?;
            // Frame conservation: every frame ever minted is exactly one of
            // free, resident, or awaiting an in-flight eviction's transfer.
            let minted = self.mem.minted_frames();
            let tracked = self.mem.free_frames() as u64
                + self.mem.resident_count() as u64
                + self.pending_free.len() as u64;
            if minted != tracked {
                return violated(
                    "frame conservation: minted == free + resident + pending",
                    format!("minted={minted} tracked={tracked} ({})", self.describe_state()),
                );
            }
        }
        Ok(())
    }

    /// The servicing model's end-of-run counters, `None` under the default
    /// CPU model — the gate for the `FaultServicingSummary` probe event
    /// (the default path must not emit events the seed did not).
    pub fn fault_servicing_counters(&self) -> Option<ServicingCounters> {
        if self.servicing.is_cpu() {
            None
        } else {
            Some(self.servicing.counters())
        }
    }

    /// Assembles end-of-run statistics.
    pub fn stats(&self) -> UvmStats {
        let servicing = self.servicing.counters();
        UvmStats {
            batches: self.finished_batches.clone(),
            faults_raised: self.buffer.raised(),
            faults_deduped: self.buffer.duplicates(),
            buffer_overflows: self.buffer.overflows(),
            faults_on_inflight: self.faults_on_pending,
            prefetches: self.prefetcher.issued(),
            evictions: self.mem.evictions(),
            premature_evictions: self.lifetime.premature_evictions(),
            h2d_bytes: self.pipes.h2d_total_bytes(),
            d2h_bytes: self.pipes.d2h_total_bytes(),
            mean_page_lifetime: self.lifetime.mean_lifetime(),
            peak_resident_pages: self.mem.peak_resident() as u64,
            preemptive_evictions: self.preemptive_evictions,
            proactive_evictions: self.proactive_evictions,
            gpu_serviced_faults: servicing.faults,
            handler_occupancy_cycles: servicing.occupancy_cycles,
        }
    }
}
