//! The pluggable observation layer of the simulator.
//!
//! Every load-bearing event of a run — faults, batch lifecycle, migrations,
//! evictions, warp stalls, context switches, watchdog ticks — is described
//! by a [`ProbeEvent`]. A [`Probe`] receives the stream; the engine and the
//! UVM runtime emit through a shared [`SharedProbes`] handle instead of
//! mutating statistics structs inline, so cross-cutting instrumentation
//! (tracers, timelines, metrics sinks, live dashboards, differential
//! testers) is an extension point rather than a code change.
//!
//! # Zero-overhead-when-off contract
//!
//! With no probe attached, [`SharedProbes`] is a `None` and every emission
//! site reduces to one predictable branch; the event value is **not even
//! constructed** (emission takes a closure). The `engine_hotpaths` bench
//! guards this: the no-probe simulation must perform exactly as before the
//! probe layer existed.
//!
//! # Writing a probe
//!
//! Implement [`Probe::on_event`]; all events funnel through it, typed by
//! the [`ProbeEvent`] variants. Probes run synchronously on the simulation
//! thread in attachment order, and must not panic: the simulator treats the
//! stream as fire-and-forget. A probe that needs to hand data back after
//! the run should be a cheap handle over shared interior state (the shipped
//! `Tracer`/`Timeline`/`MetricsSink` in `batmem::probes` all follow this
//! pattern: `Clone` the handle, attach one, keep the other).

use crate::addr::{FrameId, PageId, RegionId};
use crate::time::Cycle;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Why an eviction was scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionCause {
    /// Reactive: a migration needed a frame and none was free.
    Demand,
    /// Unobtrusive Eviction's preemptive eviction at batch start (§4.2).
    Preemptive,
    /// ETC-style proactive eviction ahead of predicted batch demand.
    Proactive,
}

impl EvictionCause {
    /// Stable lowercase label (used by trace exporters).
    pub fn label(self) -> &'static str {
        match self {
            EvictionCause::Demand => "demand",
            EvictionCause::Preemptive => "preemptive",
            EvictionCause::Proactive => "proactive",
        }
    }
}

/// One structured simulation event.
///
/// Payload timestamps (`start`, `ready`, ...) describe *scheduled* times on
/// the PCIe pipes and may lie in the future of the emission cycle; the
/// emission cycle itself is the `at` argument of [`Probe::on_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProbeEvent {
    /// A demand fault entered the fault buffer.
    FaultRaised {
        /// The faulting page.
        page: PageId,
    },
    /// A fault for a page the open batch will already deliver; absorbed.
    FaultAbsorbed {
        /// The faulting page.
        page: PageId,
    },
    /// The runtime opened a fault batch (preprocessing begins).
    BatchOpened {
        /// Batch sequence number.
        batch: u64,
        /// Distinct faulted pages in the batch.
        faults: u32,
        /// Prefetched pages appended by the prefetcher.
        prefetches: u32,
        /// Length of the GPU-runtime handling window.
        handling_cycles: Cycle,
    },
    /// The batch's last page arrived; the batch closed.
    BatchClosed {
        /// Batch sequence number.
        batch: u64,
        /// Distinct faulted pages serviced.
        faults: u32,
        /// Prefetched pages migrated.
        prefetches: u32,
        /// Evictions the batch scheduled.
        evictions: u32,
        /// Evictions forced to take a pinned (same-batch) page.
        forced_pinned_evictions: u32,
        /// Bytes migrated host-to-device.
        migrated_bytes: u64,
        /// When the batch opened.
        opened_at: Cycle,
        /// When the batch's first page transfer started on the PCIe pipe.
        first_migration_start: Cycle,
    },
    /// A page's host-to-device transfer was scheduled.
    MigrationStarted {
        /// The owning batch.
        batch: u64,
        /// The migrating page.
        page: PageId,
        /// Scheduled transfer start.
        start: Cycle,
        /// Scheduled transfer end (arrival).
        end: Cycle,
    },
    /// A page's host-to-device transfer completed and the page installed.
    MigrationCompleted {
        /// The arrived page.
        page: PageId,
        /// The frame it occupies.
        frame: FrameId,
    },
    /// An eviction was scheduled for `page`.
    EvictionBegun {
        /// The victim page.
        page: PageId,
        /// What triggered the eviction.
        cause: EvictionCause,
        /// The victim was pinned by the open batch (capacity overflow).
        forced_pinned: bool,
        /// Scheduled start of the eviction transfer (shootdown time).
        start: Cycle,
    },
    /// The eviction's frame becomes reusable at `ready`.
    EvictionFinished {
        /// The victim page.
        page: PageId,
        /// When the freed frame is available to a migration.
        ready: Cycle,
    },
    /// A previously evicted page faulted again: the eviction was premature.
    PrematureEviction {
        /// The re-faulting page.
        page: PageId,
    },
    /// A warp stalled on faulting pages (entered `FaultBlocked`).
    WarpStalled {
        /// SM the warp's block resides on.
        sm: u16,
        /// Grid-wide block id.
        block: u32,
        /// Warp index within the block.
        warp: u16,
        /// Distinct pages the warp now waits for.
        waiting_pages: u32,
    },
    /// A fault-blocked warp received its last awaited page and re-issued.
    WarpResumed {
        /// SM the warp's block resides on.
        sm: u16,
        /// Grid-wide block id.
        block: u32,
        /// Warp index within the block.
        warp: u16,
    },
    /// Thread Oversubscription context-switched a block pair on `sm`.
    ContextSwitch {
        /// The SM that switched.
        sm: u16,
        /// Cycles the switch transfer costs.
        cost: Cycle,
        /// Restore-only switch into a freed active slot (half cost).
        restore: bool,
    },
    /// The forward-progress watchdog observed an event with no progress.
    WatchdogTick {
        /// Consecutive events without forward progress so far.
        events_without_progress: u64,
        /// Events pending in the scheduler's same-cycle ring tier.
        ring: u64,
        /// Events pending in the scheduler's timing-wheel tier.
        wheel: u64,
        /// Events pending in the scheduler's overflow-heap tier.
        overflow: u64,
    },
    /// A kernel was launched onto the grid.
    KernelLaunched {
        /// Kernel sequence number within the workload.
        kernel: u32,
        /// Thread blocks in the kernel's grid.
        blocks: u32,
    },
    /// A fully-resident large-page group was promoted to one large-page
    /// mapping (coalescing, Mosaic-style).
    RegionCoalesced {
        /// The promoted large-page group.
        region: RegionId,
        /// Base pages covered by the new large mapping.
        pages: u32,
    },
    /// A promoted large-page group was demoted back to base-page mappings
    /// (splintering), usually because the memmgr needed sub-region eviction.
    RegionSplintered {
        /// The demoted large-page group.
        region: RegionId,
    },
    /// End-of-run address-translation summary (TLB reach accounting),
    /// emitted once just before the run finishes.
    TranslationSummary {
        /// L1 TLB hits (base-page entries).
        l1_hits: u64,
        /// L1 TLB misses.
        l1_misses: u64,
        /// Large-page TLB hits (translations served by a promoted mapping).
        large_hits: u64,
        /// Page-table walks performed.
        walks: u64,
        /// Large-page promotions over the run.
        coalesces: u64,
        /// Splinters over the run.
        splinters: u64,
    },
    /// End-of-run fault-servicing summary, emitted once just before the run
    /// finishes — and only when a non-default (non-CPU) servicing model is
    /// active, so the default path stays event-for-event identical to the
    /// seed.
    FaultServicingSummary {
        /// Fault batches the servicing model handled.
        batches: u64,
        /// Faults serviced across those batches.
        faults: u64,
        /// Cumulative handler-occupancy cycles charged by the model.
        occupancy_cycles: u64,
    },
    /// End-of-run data-path summary (banked L2 accounting), emitted once
    /// just before the run finishes.
    DataPathSummary {
        /// L2 hits summed over banks.
        l2_hits: u64,
        /// L2 misses summed over banks.
        l2_misses: u64,
        /// L2 misses that evicted a resident line from a full set.
        l2_conflict_evictions: u64,
        /// Number of address-interleaved L2 banks (`line mod banks`).
        l2_banks: u32,
        /// Share of L2 accesses landing on the busiest bank, in percent
        /// (100 / banks for a perfectly balanced stripe; 0 if no traffic).
        l2_hot_bank_pct: u32,
    },
}

impl ProbeEvent {
    /// Stable snake_case discriminant name (trace `kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            ProbeEvent::FaultRaised { .. } => "fault_raised",
            ProbeEvent::FaultAbsorbed { .. } => "fault_absorbed",
            ProbeEvent::BatchOpened { .. } => "batch_opened",
            ProbeEvent::BatchClosed { .. } => "batch_closed",
            ProbeEvent::MigrationStarted { .. } => "migration_started",
            ProbeEvent::MigrationCompleted { .. } => "migration_completed",
            ProbeEvent::EvictionBegun { .. } => "eviction_begun",
            ProbeEvent::EvictionFinished { .. } => "eviction_finished",
            ProbeEvent::PrematureEviction { .. } => "premature_eviction",
            ProbeEvent::WarpStalled { .. } => "warp_stalled",
            ProbeEvent::WarpResumed { .. } => "warp_resumed",
            ProbeEvent::ContextSwitch { .. } => "context_switch",
            ProbeEvent::WatchdogTick { .. } => "watchdog_tick",
            ProbeEvent::KernelLaunched { .. } => "kernel_launched",
            ProbeEvent::RegionCoalesced { .. } => "region_coalesced",
            ProbeEvent::RegionSplintered { .. } => "region_splintered",
            ProbeEvent::TranslationSummary { .. } => "translation_summary",
            ProbeEvent::FaultServicingSummary { .. } => "fault_servicing_summary",
            ProbeEvent::DataPathSummary { .. } => "data_path_summary",
        }
    }
}

/// An observer of the simulation's event stream.
pub trait Probe {
    /// Delivers one event emitted at simulation time `at`.
    ///
    /// Events of equal `at` arrive in emission order, which is
    /// deterministic for a given configuration and workload.
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent);

    /// Called once when the run completes successfully, at the final
    /// simulation time. Not called when the run fails with an error.
    fn on_run_finished(&mut self, at: Cycle) {
        let _ = at;
    }
}

/// A fan-out combinator: broadcasts every event to each attached probe, in
/// attachment order. This is also the container
/// [`SimulationBuilder::probe`](https://docs.rs/batmem) fills.
#[derive(Default)]
pub struct ProbeHub {
    probes: Vec<Box<dyn Probe>>,
}

impl ProbeHub {
    /// An empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches `probe` after any existing ones.
    pub fn attach(&mut self, probe: Box<dyn Probe>) {
        self.probes.push(probe);
    }

    /// Number of attached probes.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Whether no probe is attached.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }
}

impl fmt::Debug for ProbeHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProbeHub").field("probes", &self.probes.len()).finish()
    }
}

impl Probe for ProbeHub {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        for p in &mut self.probes {
            p.on_event(at, event);
        }
    }

    fn on_run_finished(&mut self, at: Cycle) {
        for p in &mut self.probes {
            p.on_run_finished(at);
        }
    }
}

/// The emission handle the engine and the UVM runtime share.
///
/// Cloning is cheap (an `Rc`); all clones feed the same [`ProbeHub`]. With
/// no probes attached the handle is inert and [`emit_with`](Self::emit_with)
/// is a single branch that never constructs the event.
#[derive(Clone, Default)]
pub struct SharedProbes {
    hub: Option<Rc<RefCell<ProbeHub>>>,
}

impl SharedProbes {
    /// A handle over `hub`; inert if the hub is empty.
    pub fn new(hub: ProbeHub) -> Self {
        if hub.is_empty() {
            Self::disabled()
        } else {
            Self { hub: Some(Rc::new(RefCell::new(hub))) }
        }
    }

    /// The inert handle (the no-probe fast path).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether any probe is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.hub.is_some()
    }

    /// Emits the event built by `f` at simulation time `at`. When disabled,
    /// `f` is never called.
    #[inline]
    pub fn emit_with(&self, at: Cycle, f: impl FnOnce() -> ProbeEvent) {
        if let Some(hub) = &self.hub {
            hub.borrow_mut().on_event(at, &f());
        }
    }

    /// Signals a successful run completion to every probe.
    pub fn finish(&self, at: Cycle) {
        if let Some(hub) = &self.hub {
            hub.borrow_mut().on_run_finished(at);
        }
    }
}

impl fmt::Debug for SharedProbes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.hub {
            Some(hub) => write!(f, "SharedProbes({} probes)", hub.borrow().len()),
            None => write!(f, "SharedProbes(off)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        events: Vec<(Cycle, &'static str)>,
        finished_at: Option<Cycle>,
    }

    /// A counting probe over shared state, the handle pattern probes use.
    #[derive(Clone, Default)]
    struct CountingProbe(Rc<RefCell<Counter>>);

    impl Probe for CountingProbe {
        fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
            self.0.borrow_mut().events.push((at, event.kind()));
        }

        fn on_run_finished(&mut self, at: Cycle) {
            self.0.borrow_mut().finished_at = Some(at);
        }
    }

    #[test]
    fn hub_broadcasts_in_attachment_order() {
        let a = CountingProbe::default();
        let b = CountingProbe::default();
        let mut hub = ProbeHub::new();
        hub.attach(Box::new(a.clone()));
        hub.attach(Box::new(b.clone()));
        assert_eq!(hub.len(), 2);
        hub.on_event(7, &ProbeEvent::FaultRaised { page: PageId::new(1) });
        hub.on_run_finished(9);
        for p in [&a, &b] {
            let c = p.0.borrow();
            assert_eq!(c.events, vec![(7, "fault_raised")]);
            assert_eq!(c.finished_at, Some(9));
        }
    }

    #[test]
    fn disabled_handle_never_builds_the_event() {
        let probes = SharedProbes::disabled();
        assert!(!probes.enabled());
        probes.emit_with(0, || unreachable!("event built on the no-probe path"));
        probes.finish(0);
    }

    #[test]
    fn empty_hub_collapses_to_disabled() {
        let probes = SharedProbes::new(ProbeHub::new());
        assert!(!probes.enabled());
    }

    #[test]
    fn clones_share_one_hub() {
        let counter = CountingProbe::default();
        let mut hub = ProbeHub::new();
        hub.attach(Box::new(counter.clone()));
        let a = SharedProbes::new(hub);
        let b = a.clone();
        a.emit_with(1, || ProbeEvent::FaultRaised { page: PageId::new(1) });
        b.emit_with(2, || ProbeEvent::PrematureEviction { page: PageId::new(1) });
        let seen: Vec<_> = counter.0.borrow().events.clone();
        assert_eq!(seen, vec![(1, "fault_raised"), (2, "premature_eviction")]);
    }

    #[test]
    fn kinds_are_stable_snake_case() {
        let ev = ProbeEvent::BatchOpened { batch: 0, faults: 1, prefetches: 0, handling_cycles: 5 };
        assert_eq!(ev.kind(), "batch_opened");
        assert_eq!(EvictionCause::Preemptive.label(), "preemptive");
    }
}
