//! The UVM layer, timed from outside: a probe records a traced run's
//! `FaultRaised` stream, and [`replay`] feeds it into a standalone
//! `UvmRuntime` driven by an `EventQueue`, timing each entry point.
//!
//! The replay omits the engine's LRU `touch` calls and skips a recorded
//! fault whose page the replay already holds resident or in flight (the
//! engine's own `on_raise_fault` filter), so its batches and evictions are
//! close to, not equal to, the run's; both counts are reported.

use batmem::{PolicyRegistry, StrategyCtx};
use batmem_sim::EventQueue;
use batmem_types::{Cycle, PageId, Probe, ProbeEvent, SimConfig, SimError};
use batmem_uvm::{UvmEvent, UvmOutput, UvmRuntime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// A probe handle counting events by kind and keeping the fault stream.
#[derive(Clone, Default)]
pub struct Recorder(Rc<RefCell<Recorded>>);

#[derive(Debug, Default)]
pub struct Recorded {
    pub counts: BTreeMap<&'static str, u64>,
    pub faults: Vec<(Cycle, PageId)>,
}

impl Recorder {
    pub fn take(&self) -> Recorded {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

impl Probe for Recorder {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        let mut r = self.0.borrow_mut();
        *r.counts.entry(event.kind()).or_default() += 1;
        if let ProbeEvent::FaultRaised { page } = event {
            r.faults.push((at, *page));
        }
    }
}

/// The runtime's entry points, one timer each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// `record_fault_into`: the top-half capture path.
    Capture,
    /// `DrainBuffer`: batch formation and prefetch expansion.
    Formation,
    /// `HandlingDone`: residency decisions and migration planning.
    Plan,
    /// `PageArrived`: installs and batch close.
    Arrival,
    /// `EvictionStarted`: page-table removal.
    Evict,
}

impl Stage {
    pub const ALL: [Stage; 5] =
        [Stage::Capture, Stage::Formation, Stage::Plan, Stage::Arrival, Stage::Evict];

    /// Metric stem: `uvm.<stem>_s` and `uvm.<stem>s`.
    pub fn stem(self) -> &'static str {
        match self {
            Stage::Capture => "capture",
            Stage::Formation => "formation",
            Stage::Plan => "plan",
            Stage::Arrival => "arrival",
            Stage::Evict => "evict",
        }
    }

    fn of(event: UvmEvent) -> Stage {
        match event {
            UvmEvent::DrainBuffer => Stage::Formation,
            UvmEvent::HandlingDone { .. } => Stage::Plan,
            UvmEvent::PageArrived { .. } => Stage::Arrival,
            UvmEvent::EvictionStarted { .. } => Stage::Evict,
        }
    }
}

/// What one replay measured.
#[derive(Debug, Default, Clone)]
pub struct UvmReplay {
    /// `(wall ns, calls)` per stage, indexed like [`Stage::ALL`].
    pub stages: [(u64, u64); 5],
    /// Batches the replay formed.
    pub batches: u64,
}

/// The policy axes a replay needs: the registry specs of the run and its
/// memory ratio.
pub struct ReplaySpec<'a> {
    pub eviction: &'a str,
    pub prefetch: &'a str,
    pub ratio: f64,
    pub footprint_bytes: u64,
}

/// Replays `faults` (emission cycle, page) into a fresh runtime sized as
/// the builder sizes the run's.
pub fn replay(spec: &ReplaySpec, faults: &[(Cycle, PageId)]) -> Result<UvmReplay, String> {
    let mut config = SimConfig::default();
    let footprint_pages = spec.footprint_bytes.div_ceil(config.uvm.page_bytes()).max(1);
    config.uvm.gpu_mem_pages = Some(((footprint_pages as f64 * spec.ratio).ceil() as u64).max(1));
    let registry = PolicyRegistry::builtin();
    let ctx = StrategyCtx { pages_per_region: config.uvm.pages_per_region() };
    let text = |e: SimError| e.to_string();
    let rt = UvmRuntime::with_strategies(
        &config.uvm,
        &config.policy,
        footprint_pages,
        registry.build_eviction(spec.eviction, &ctx).map_err(text)?,
        registry.build_prefetcher(spec.prefetch, &ctx).map_err(text)?,
        registry.build_coalesce("off").map_err(text)?,
    );
    let mut d =
        Driver { rt, queue: EventQueue::new(), out: Vec::new(), result: UvmReplay::default() };
    for &(at, page) in faults {
        d.deliver_until(at)?;
        if d.rt.is_resident(page) || d.rt.is_inflight(page) {
            continue;
        }
        d.timed(Stage::Capture, at, |rt, out| rt.record_fault_into(page, at, out))?;
    }
    d.deliver_until(Cycle::MAX)?;
    d.result.batches = d.rt.stats().num_batches();
    Ok(d.result)
}

struct Driver {
    rt: UvmRuntime,
    queue: EventQueue<UvmEvent>,
    out: Vec<UvmOutput>,
    result: UvmReplay,
}

impl Driver {
    /// Runs one entry point under its stage's timer, then schedules the
    /// events it asked for. The other commands (install, evict, coalesce)
    /// act on the engine's MMU, which a replay does not have.
    fn timed(
        &mut self,
        stage: Stage,
        now: Cycle,
        call: impl FnOnce(&mut UvmRuntime, &mut Vec<UvmOutput>) -> Result<(), SimError>,
    ) -> Result<(), String> {
        let start = Instant::now();
        let r = call(&mut self.rt, &mut self.out);
        let slot = &mut self.result.stages[stage as usize];
        slot.0 += start.elapsed().as_nanos() as u64;
        slot.1 += 1;
        r.map_err(|e| e.to_string())?;
        for o in self.out.drain(..) {
            if let UvmOutput::Schedule { at, event } = o {
                self.queue.push(at.max(now), event);
            }
        }
        Ok(())
    }

    fn deliver_until(&mut self, until: Cycle) -> Result<(), String> {
        while self.queue.peek_time().is_some_and(|t| t <= until) {
            let (now, event) = self.queue.pop().expect("a peeked event pops");
            self.timed(Stage::of(event), now, |rt, out| rt.on_event_into(event, now, out))?;
        }
        Ok(())
    }
}
