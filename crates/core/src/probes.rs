//! Production-shaped probes for the [`Probe`] observation layer.
//!
//! Three observers cover the common diagnostic shapes:
//!
//! * [`Tracer`] — a ring-buffered structured trace with JSONL export.
//!   Memory is bounded: once the buffer is full the oldest events are
//!   dropped and counted, so a tracer can be left attached to an
//!   arbitrarily long run.
//! * [`Timeline`] — a per-batch aggregator that regenerates the paper's
//!   Fig. 6/10-style data (batch sizes, batch processing times, phase
//!   cycle breakdowns) directly from the event stream.
//! * [`MetricsSink`] — a per-run counter sink with CSV export; the bench
//!   harness's sweep store keeps its rows as named JSON records.
//!
//! All three are cheap **handles** over shared state: clone one, attach
//! the clone via [`SimulationBuilder::probe`], and read the results from
//! the original after the run:
//!
//! ```
//! use batmem::probes::Tracer;
//! use batmem::{policies, Simulation};
//! use batmem_workloads::synthetic::Strided;
//!
//! let tracer = Tracer::bounded(64 * 1024);
//! let metrics = Simulation::builder()
//!     .policy(policies::baseline())
//!     .probe(tracer.clone())
//!     .try_run(Box::new(Strided::new(1, 32, 32, 2, 0, 1)))
//!     .unwrap();
//!
//! assert!(tracer.len() > 0);
//! assert_eq!(tracer.dropped(), 0);
//! let jsonl = tracer.to_jsonl(); // one JSON object per line
//! assert!(jsonl.lines().count() == tracer.len());
//! assert!(metrics.cycles > 0);
//! ```
//!
//! [`SimulationBuilder::probe`]: crate::SimulationBuilder::probe

use batmem_types::probe::{Probe, ProbeEvent};
use batmem_types::Cycle;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;

// ---- JSON encoding (hand-rolled: the build is offline) ---------------------

/// Escapes `s` for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One JSONL line for `event` emitted at `at`: the emission cycle, the
/// stable `kind` discriminant, and the flattened payload fields.
pub fn event_to_json(at: Cycle, event: &ProbeEvent) -> String {
    let mut s = format!("{{\"at\":{at},\"kind\":\"{}\"", event.kind());
    match *event {
        ProbeEvent::FaultRaised { page }
        | ProbeEvent::FaultAbsorbed { page }
        | ProbeEvent::PrematureEviction { page } => {
            let _ = write!(s, ",\"page\":{}", page.index());
        }
        ProbeEvent::BatchOpened { batch, faults, prefetches, handling_cycles } => {
            let _ = write!(
                s,
                ",\"batch\":{batch},\"faults\":{faults},\"prefetches\":{prefetches},\
                 \"handling_cycles\":{handling_cycles}"
            );
        }
        ProbeEvent::BatchClosed {
            batch,
            faults,
            prefetches,
            evictions,
            forced_pinned_evictions,
            migrated_bytes,
            opened_at,
            first_migration_start,
        } => {
            let _ = write!(
                s,
                ",\"batch\":{batch},\"faults\":{faults},\"prefetches\":{prefetches},\
                 \"evictions\":{evictions},\"forced_pinned_evictions\":{forced_pinned_evictions},\
                 \"migrated_bytes\":{migrated_bytes},\"opened_at\":{opened_at},\
                 \"first_migration_start\":{first_migration_start}"
            );
        }
        ProbeEvent::MigrationStarted { batch, page, start, end } => {
            let _ = write!(
                s,
                ",\"batch\":{batch},\"page\":{},\"start\":{start},\"end\":{end}",
                page.index()
            );
        }
        ProbeEvent::MigrationCompleted { page, frame } => {
            let _ = write!(s, ",\"page\":{},\"frame\":{}", page.index(), frame.index());
        }
        ProbeEvent::EvictionBegun { page, cause, forced_pinned, start } => {
            let _ = write!(
                s,
                ",\"page\":{},\"cause\":\"{}\",\"forced_pinned\":{forced_pinned},\"start\":{start}",
                page.index(),
                cause.label()
            );
        }
        ProbeEvent::EvictionFinished { page, ready } => {
            let _ = write!(s, ",\"page\":{},\"ready\":{ready}", page.index());
        }
        ProbeEvent::WarpStalled { sm, block, warp, waiting_pages } => {
            let _ = write!(
                s,
                ",\"sm\":{sm},\"block\":{block},\"warp\":{warp},\"waiting_pages\":{waiting_pages}"
            );
        }
        ProbeEvent::WarpResumed { sm, block, warp } => {
            let _ = write!(s, ",\"sm\":{sm},\"block\":{block},\"warp\":{warp}");
        }
        ProbeEvent::ContextSwitch { sm, cost, restore } => {
            let _ = write!(s, ",\"sm\":{sm},\"cost\":{cost},\"restore\":{restore}");
        }
        ProbeEvent::WatchdogTick { events_without_progress, ring, wheel, overflow } => {
            let _ = write!(
                s,
                ",\"events_without_progress\":{events_without_progress},\"ring\":{ring},\"wheel\":{wheel},\"overflow\":{overflow}"
            );
        }
        ProbeEvent::KernelLaunched { kernel, blocks } => {
            let _ = write!(s, ",\"kernel\":{kernel},\"blocks\":{blocks}");
        }
        ProbeEvent::RegionCoalesced { region, pages } => {
            let _ = write!(s, ",\"region\":{},\"pages\":{pages}", region.index());
        }
        ProbeEvent::RegionSplintered { region } => {
            let _ = write!(s, ",\"region\":{}", region.index());
        }
        ProbeEvent::TranslationSummary { l1_hits, l1_misses, large_hits, walks, coalesces, splinters } => {
            let _ = write!(
                s,
                ",\"l1_hits\":{l1_hits},\"l1_misses\":{l1_misses},\"large_hits\":{large_hits},\
                 \"walks\":{walks},\"coalesces\":{coalesces},\"splinters\":{splinters}"
            );
        }
        ProbeEvent::FaultServicingSummary { batches, faults, occupancy_cycles } => {
            let _ = write!(
                s,
                ",\"batches\":{batches},\"faults\":{faults},\"occupancy_cycles\":{occupancy_cycles}"
            );
        }
        ProbeEvent::DataPathSummary { l2_hits, l2_misses, l2_conflict_evictions } => {
            let _ = write!(
                s,
                ",\"l2_hits\":{l2_hits},\"l2_misses\":{l2_misses},\
                 \"l2_conflict_evictions\":{l2_conflict_evictions}"
            );
        }
        // `ProbeEvent` is non_exhaustive: future variants export their
        // kind with no payload until this encoder learns them.
        _ => {}
    }
    s.push('}');
    s
}

// ---- Tracer ----------------------------------------------------------------

#[derive(Debug, Default)]
struct TracerInner {
    capacity: usize,
    events: VecDeque<(Cycle, ProbeEvent)>,
    dropped: u64,
    finished_at: Option<Cycle>,
}

/// A ring-buffered structured tracer.
///
/// Keeps the **most recent** `capacity` events; earlier ones are dropped
/// and counted in [`Tracer::dropped`], so memory stays bounded however
/// long the run. Export with [`Tracer::to_jsonl`] (one JSON object per
/// event, stable `kind` names from [`ProbeEvent::kind`]).
///
/// This is a handle: clone it, attach the clone, read from the original.
#[derive(Clone, Debug)]
pub struct Tracer(Rc<RefCell<TracerInner>>);

impl Tracer {
    /// A tracer retaining at most `capacity` events (`capacity` ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be at least 1");
        Self(Rc::new(RefCell::new(TracerInner { capacity, ..TracerInner::default() })))
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.0.borrow().events.len()
    }

    /// Whether no event has been retained.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().events.is_empty()
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.0.borrow().dropped
    }

    /// Completion time of the run, once [`Probe::on_run_finished`] fired.
    pub fn finished_at(&self) -> Option<Cycle> {
        self.0.borrow().finished_at
    }

    /// A copy of the retained `(emission cycle, event)` stream, oldest
    /// first.
    pub fn events(&self) -> Vec<(Cycle, ProbeEvent)> {
        self.0.borrow().events.iter().copied().collect()
    }

    /// The retained stream as JSON Lines, oldest first.
    pub fn to_jsonl(&self) -> String {
        let inner = self.0.borrow();
        let mut out = String::new();
        for (at, ev) in &inner.events {
            out.push_str(&event_to_json(*at, ev));
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL stream to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the file cannot be written.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

impl Probe for Tracer {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        let mut inner = self.0.borrow_mut();
        if inner.events.len() == inner.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back((at, *event));
    }

    fn on_run_finished(&mut self, at: Cycle) {
        self.0.borrow_mut().finished_at = Some(at);
    }
}

// ---- Timeline --------------------------------------------------------------

/// One closed batch, reassembled from `batch_opened`/`batch_closed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSpan {
    /// Batch sequence number.
    pub batch: u64,
    /// Distinct faulted pages serviced.
    pub faults: u32,
    /// Prefetched pages migrated alongside them.
    pub prefetches: u32,
    /// Evictions the batch scheduled.
    pub evictions: u32,
    /// Evictions forced to take a pinned (same-batch) victim.
    pub forced_pinned_evictions: u32,
    /// Bytes migrated host-to-device.
    pub migrated_bytes: u64,
    /// When the batch opened.
    pub opened_at: Cycle,
    /// When the batch's last page arrived.
    pub closed_at: Cycle,
    /// Length of the GPU-runtime fault-handling window.
    pub handling_cycles: Cycle,
    /// When the first page transfer started on the PCIe pipe.
    pub first_migration_start: Cycle,
}

impl BatchSpan {
    /// Pages the batch migrated (faults + prefetches).
    pub fn pages(&self) -> u32 {
        self.faults + self.prefetches
    }

    /// Total batch processing time (open → last arrival).
    pub fn total_cycles(&self) -> Cycle {
        self.closed_at.saturating_sub(self.opened_at)
    }

    /// Cycles between the end of fault handling and the first transfer —
    /// the eviction-serialization stall UE removes (Fig. 5).
    pub fn eviction_wait_cycles(&self) -> Cycle {
        self.first_migration_start.saturating_sub(self.opened_at + self.handling_cycles)
    }

    /// Cycles from the first transfer start to the last arrival.
    pub fn migration_cycles(&self) -> Cycle {
        self.closed_at.saturating_sub(self.first_migration_start)
    }
}

/// Aggregate cycle totals across all closed batches, by batch phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// GPU-runtime fault-handling windows.
    pub handling: Cycle,
    /// Stalls between handling end and first transfer (eviction
    /// serialization).
    pub eviction_wait: Cycle,
    /// PCIe migration time (first transfer start → last arrival).
    pub migration: Cycle,
}

#[derive(Debug, Default)]
struct TimelineInner {
    batches: Vec<BatchSpan>,
    /// Handling windows from `batch_opened`, awaiting the paired close.
    open_handling: Vec<(u64, Cycle)>,
    finished_at: Option<Cycle>,
    migrations: u64,
    evictions: u64,
    premature_evictions: u64,
    warp_stalls: u64,
    warp_resumes: u64,
    ctx_switches: u64,
    ctx_switch_cycles: Cycle,
}

/// A per-batch timeline aggregator.
///
/// Reassembles [`BatchSpan`]s from the event stream and derives the
/// paper-figure distributions: batch sizes in pages (Fig. 10), batch
/// processing times (Fig. 6), and per-phase cycle totals (handling /
/// eviction wait / migration — the Fig. 5 anatomy).
///
/// This is a handle: clone it, attach the clone, read from the original.
#[derive(Clone, Debug, Default)]
pub struct Timeline(Rc<RefCell<TimelineInner>>);

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// The closed batches, in close order.
    pub fn batches(&self) -> Vec<BatchSpan> {
        self.0.borrow().batches.clone()
    }

    /// Number of closed batches.
    pub fn num_batches(&self) -> usize {
        self.0.borrow().batches.len()
    }

    /// Completion time of the run, once [`Probe::on_run_finished`] fired.
    pub fn finished_at(&self) -> Option<Cycle> {
        self.0.borrow().finished_at
    }

    /// Completed page migrations observed.
    pub fn migrations(&self) -> u64 {
        self.0.borrow().migrations
    }

    /// Evictions begun, across all causes.
    pub fn evictions(&self) -> u64 {
        self.0.borrow().evictions
    }

    /// Premature evictions (re-faulted victims) observed.
    pub fn premature_evictions(&self) -> u64 {
        self.0.borrow().premature_evictions
    }

    /// Warp fault-stalls observed.
    pub fn warp_stalls(&self) -> u64 {
        self.0.borrow().warp_stalls
    }

    /// Histogram of batch sizes in pages: `(upper bound, count)` per
    /// power-of-two bucket, ascending. Bucket `(u, n)` counts batches with
    /// `u/2 < pages ≤ u`.
    pub fn size_histogram(&self) -> Vec<(u64, u64)> {
        Self::pow2_histogram(self.0.borrow().batches.iter().map(|b| u64::from(b.pages())))
    }

    /// Histogram of total batch processing times in cycles, same bucket
    /// scheme as [`Timeline::size_histogram`].
    pub fn time_histogram(&self) -> Vec<(u64, u64)> {
        Self::pow2_histogram(self.0.borrow().batches.iter().map(BatchSpan::total_cycles))
    }

    fn pow2_histogram(values: impl Iterator<Item = u64>) -> Vec<(u64, u64)> {
        let mut buckets: Vec<(u64, u64)> = Vec::new();
        for v in values {
            let upper = v.max(1).next_power_of_two();
            match buckets.binary_search_by_key(&upper, |&(u, _)| u) {
                Ok(i) => buckets[i].1 += 1,
                Err(i) => buckets.insert(i, (upper, 1)),
            }
        }
        buckets
    }

    /// Aggregate per-phase cycle totals over all closed batches.
    pub fn phase_totals(&self) -> PhaseTotals {
        let inner = self.0.borrow();
        let mut t = PhaseTotals::default();
        for b in &inner.batches {
            t.handling += b.handling_cycles;
            t.eviction_wait += b.eviction_wait_cycles();
            t.migration += b.migration_cycles();
        }
        t
    }

    /// The per-batch data as CSV (header + one row per closed batch).
    pub fn batches_csv(&self) -> String {
        let mut out = String::from(
            "batch,pages,faults,prefetches,evictions,forced_pinned_evictions,migrated_bytes,\
             opened_at,closed_at,total_cycles,handling_cycles,eviction_wait_cycles,\
             migration_cycles\n",
        );
        for b in &self.0.borrow().batches {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{}",
                b.batch,
                b.pages(),
                b.faults,
                b.prefetches,
                b.evictions,
                b.forced_pinned_evictions,
                b.migrated_bytes,
                b.opened_at,
                b.closed_at,
                b.total_cycles(),
                b.handling_cycles,
                b.eviction_wait_cycles(),
                b.migration_cycles(),
            );
        }
        out
    }
}

impl Probe for Timeline {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        let mut inner = self.0.borrow_mut();
        match *event {
            ProbeEvent::BatchOpened { batch, handling_cycles, .. } => {
                // The handling window only appears on the open event;
                // remember it for the paired close.
                inner.open_handling.push((batch, handling_cycles));
            }
            ProbeEvent::BatchClosed {
                batch,
                faults,
                prefetches,
                evictions,
                forced_pinned_evictions,
                migrated_bytes,
                opened_at,
                first_migration_start,
            } => {
                let handling_cycles = inner
                    .open_handling
                    .iter()
                    .position(|&(b, _)| b == batch)
                    .map_or(0, |i| inner.open_handling.swap_remove(i).1);
                inner.batches.push(BatchSpan {
                    batch,
                    faults,
                    prefetches,
                    evictions,
                    forced_pinned_evictions,
                    migrated_bytes,
                    opened_at,
                    closed_at: at,
                    handling_cycles,
                    first_migration_start,
                });
            }
            ProbeEvent::MigrationCompleted { .. } => inner.migrations += 1,
            ProbeEvent::EvictionBegun { .. } => inner.evictions += 1,
            ProbeEvent::PrematureEviction { .. } => inner.premature_evictions += 1,
            ProbeEvent::WarpStalled { .. } => inner.warp_stalls += 1,
            ProbeEvent::WarpResumed { .. } => inner.warp_resumes += 1,
            ProbeEvent::ContextSwitch { cost, .. } => {
                inner.ctx_switches += 1;
                inner.ctx_switch_cycles += cost;
            }
            _ => {}
        }
    }

    fn on_run_finished(&mut self, at: Cycle) {
        self.0.borrow_mut().finished_at = Some(at);
    }
}

// ---- MetricsSink -----------------------------------------------------------

/// Defines [`MetricsRow`] from its one list of counters, in column order:
/// the struct's fields, [`MetricsRow::COUNTERS`], the CSV header and the
/// counter iterators that every writer and reader loops over.
macro_rules! metrics_row {
    ($($(#[$attr:meta])+ $field:ident,)+) => {
        /// One run's event-derived counters, as recorded by [`MetricsSink`].
        ///
        /// Plain data (`Clone + Send`), so rows can cross the bench
        /// harness's worker threads even though the sink itself is
        /// single-threaded.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct MetricsRow {
            /// Caller-supplied row label (workload/config), may be empty.
            pub label: String,
            $($(#[$attr])+ pub $field: u64,)+
        }

        impl MetricsRow {
            /// The counters' names, in column order.
            pub const COUNTERS: &'static [&'static str] = &[$(stringify!($field)),+];

            /// CSV column names: `label`, then [`MetricsRow::COUNTERS`].
            pub fn csv_header() -> &'static str {
                concat!("label" $(, ",", stringify!($field))+)
            }

            /// The counters' values, in column order.
            pub fn counters(&self) -> impl Iterator<Item = u64> {
                [$(self.$field),+].into_iter()
            }

            /// The counters, mutably, in column order.
            pub fn counters_mut(&mut self) -> impl Iterator<Item = &mut u64> {
                [$(&mut self.$field),+].into_iter()
            }
        }
    };
}

metrics_row! {
    /// Completion time of the run, in cycles.
    cycles,
    /// Kernels launched.
    kernels,
    /// Fault batches closed.
    batches,
    /// Faults that entered the fault buffer.
    faults_raised,
    /// Faults absorbed by an already-open batch.
    faults_absorbed,
    /// Prefetched pages migrated.
    prefetches,
    /// Page migrations completed.
    migrations,
    /// Bytes migrated host-to-device.
    migrated_bytes,
    /// Evictions begun.
    evictions,
    /// Evictions forced to take a pinned victim.
    forced_pinned_evictions,
    /// Premature evictions (re-faulted victims).
    premature_evictions,
    /// Warp fault-stalls.
    warp_stalls,
    /// Warp resumes.
    warp_resumes,
    /// Context switches.
    ctx_switches,
    /// Cycles spent in context-switch transfers.
    ctx_switch_cycles,
    /// Watchdog ticks (events observed without forward progress).
    watchdog_ticks,
    /// L1 TLB hits (base-page entries), from the end-of-run summary.
    l1_tlb_hits,
    /// L1 TLB misses.
    l1_tlb_misses,
    /// Translations served by a promoted large-page mapping.
    large_tlb_hits,
    /// Page-table walks performed.
    walks,
    /// Large-page promotions (coalesces) over the run.
    coalesces,
    /// Large-page demotions (splinters) over the run.
    splinters,
    /// L2 misses that evicted a resident line from a full set.
    l2_conflict_evictions,
}

impl MetricsRow {
    /// One CSV row (label first, counters in header order). A label holding
    /// a comma, a quote, CR or LF is quoted per RFC 4180, its quotes
    /// doubled; any other label is written as it is.
    pub fn to_csv_row(&self) -> String {
        let mut s = if self.label.contains([',', '"', '\r', '\n']) {
            format!("\"{}\"", self.label.replace('"', "\"\""))
        } else {
            self.label.clone()
        };
        for value in self.counters() {
            let _ = write!(s, ",{value}");
        }
        s
    }

    /// `rows` as CSV: the header line, then one line per row.
    pub fn csv<'a>(rows: impl IntoIterator<Item = &'a MetricsRow>) -> String {
        let mut out = format!("{}\n", Self::csv_header());
        for row in rows {
            out.push_str(&row.to_csv_row());
            out.push('\n');
        }
        out
    }
}

#[derive(Debug, Default)]
struct MetricsSinkInner {
    current: MetricsRow,
    rows: Vec<MetricsRow>,
}

/// A per-run metrics sink with CSV export.
///
/// Accumulates event counters into a [`MetricsRow`]; when the run
/// finishes, the row is sealed and appended to [`MetricsSink::rows`]. The
/// same sink can observe several runs in sequence (one row each) — the
/// bench harness attaches one per sweep cell and merges the plain-data
/// rows afterwards.
///
/// This is a handle: clone it, attach the clone, read from the original.
#[derive(Clone, Debug, Default)]
pub struct MetricsSink(Rc<RefCell<MetricsSinkInner>>);

impl MetricsSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty sink whose next row carries `label`.
    pub fn labeled(label: impl Into<String>) -> Self {
        let sink = Self::default();
        sink.0.borrow_mut().current.label = label.into();
        sink
    }

    /// Sets the label of the row currently accumulating.
    pub fn set_label(&self, label: impl Into<String>) {
        self.0.borrow_mut().current.label = label.into();
    }

    /// The sealed rows, one per finished run.
    pub fn rows(&self) -> Vec<MetricsRow> {
        self.0.borrow().rows.clone()
    }

    /// The sealed rows as CSV with a header line.
    pub fn to_csv(&self) -> String {
        MetricsRow::csv(&self.0.borrow().rows)
    }
}

impl Probe for MetricsSink {
    fn on_event(&mut self, _at: Cycle, event: &ProbeEvent) {
        let mut inner = self.0.borrow_mut();
        let row = &mut inner.current;
        match *event {
            ProbeEvent::FaultRaised { .. } => row.faults_raised += 1,
            ProbeEvent::FaultAbsorbed { .. } => row.faults_absorbed += 1,
            ProbeEvent::BatchClosed { prefetches, migrated_bytes, .. } => {
                row.batches += 1;
                row.prefetches += u64::from(prefetches);
                row.migrated_bytes += migrated_bytes;
            }
            ProbeEvent::MigrationCompleted { .. } => row.migrations += 1,
            ProbeEvent::EvictionBegun { forced_pinned, .. } => {
                row.evictions += 1;
                row.forced_pinned_evictions += u64::from(forced_pinned);
            }
            ProbeEvent::PrematureEviction { .. } => row.premature_evictions += 1,
            ProbeEvent::WarpStalled { .. } => row.warp_stalls += 1,
            ProbeEvent::WarpResumed { .. } => row.warp_resumes += 1,
            ProbeEvent::ContextSwitch { cost, .. } => {
                row.ctx_switches += 1;
                row.ctx_switch_cycles += cost;
            }
            ProbeEvent::WatchdogTick { .. } => row.watchdog_ticks += 1,
            ProbeEvent::KernelLaunched { .. } => row.kernels += 1,
            ProbeEvent::TranslationSummary {
                l1_hits,
                l1_misses,
                large_hits,
                walks,
                coalesces,
                splinters,
            } => {
                // Emitted once at end of run with absolute totals.
                row.l1_tlb_hits = l1_hits;
                row.l1_tlb_misses = l1_misses;
                row.large_tlb_hits = large_hits;
                row.walks = walks;
                row.coalesces = coalesces;
                row.splinters = splinters;
            }
            ProbeEvent::DataPathSummary { l2_conflict_evictions, .. } => {
                // Emitted once at end of run with absolute totals.
                row.l2_conflict_evictions = l2_conflict_evictions;
            }
            _ => {}
        }
    }

    fn on_run_finished(&mut self, at: Cycle) {
        let mut inner = self.0.borrow_mut();
        inner.current.cycles = at;
        let label = inner.current.label.clone();
        let sealed = std::mem::take(&mut inner.current);
        inner.current.label = label; // the label persists across runs
        inner.rows.push(sealed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batmem_types::probe::EvictionCause;
    use batmem_types::{FrameId, PageId, RegionId};

    fn page(i: u64) -> PageId {
        PageId::new(i)
    }

    #[test]
    fn tracer_ring_drops_oldest_and_counts() {
        let mut t = Tracer::bounded(2);
        for i in 0..5 {
            t.on_event(i, &ProbeEvent::FaultRaised { page: page(i) });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let kept: Vec<Cycle> = t.events().iter().map(|&(at, _)| at).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn tracer_jsonl_is_one_object_per_event() {
        let mut t = Tracer::bounded(16);
        t.on_event(1, &ProbeEvent::FaultRaised { page: page(7) });
        t.on_event(2, &ProbeEvent::MigrationCompleted { page: page(7), frame: FrameId::new(3) });
        t.on_run_finished(10);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"at\":1,\"kind\":\"fault_raised\",\"page\":7}");
        assert!(lines[1].contains("\"frame\":3"));
        assert_eq!(t.finished_at(), Some(10));
    }

    #[test]
    fn event_json_covers_every_variant() {
        let events = [
            ProbeEvent::FaultRaised { page: page(1) },
            ProbeEvent::FaultAbsorbed { page: page(1) },
            ProbeEvent::BatchOpened { batch: 1, faults: 2, prefetches: 3, handling_cycles: 4 },
            ProbeEvent::BatchClosed {
                batch: 1,
                faults: 2,
                prefetches: 3,
                evictions: 4,
                forced_pinned_evictions: 0,
                migrated_bytes: 5,
                opened_at: 6,
                first_migration_start: 7,
            },
            ProbeEvent::MigrationStarted { batch: 1, page: page(2), start: 3, end: 4 },
            ProbeEvent::MigrationCompleted { page: page(2), frame: FrameId::new(0) },
            ProbeEvent::EvictionBegun {
                page: page(2),
                cause: EvictionCause::Demand,
                forced_pinned: false,
                start: 9,
            },
            ProbeEvent::EvictionFinished { page: page(2), ready: 10 },
            ProbeEvent::PrematureEviction { page: page(2) },
            ProbeEvent::WarpStalled { sm: 0, block: 1, warp: 2, waiting_pages: 3 },
            ProbeEvent::WarpResumed { sm: 0, block: 1, warp: 2 },
            ProbeEvent::ContextSwitch { sm: 0, cost: 100, restore: true },
            ProbeEvent::WatchdogTick { events_without_progress: 5, ring: 1, wheel: 2, overflow: 3 },
            ProbeEvent::KernelLaunched { kernel: 0, blocks: 64 },
            ProbeEvent::RegionCoalesced { region: RegionId::new(3), pages: 32 },
            ProbeEvent::RegionSplintered { region: RegionId::new(3) },
            ProbeEvent::TranslationSummary {
                l1_hits: 1,
                l1_misses: 2,
                large_hits: 3,
                walks: 4,
                coalesces: 5,
                splinters: 6,
            },
            ProbeEvent::FaultServicingSummary { batches: 1, faults: 2, occupancy_cycles: 3 },
            ProbeEvent::DataPathSummary { l2_hits: 1, l2_misses: 2, l2_conflict_evictions: 3 },
        ];
        for ev in events {
            let json = event_to_json(42, &ev);
            assert!(json.starts_with("{\"at\":42,\"kind\":\""), "{json}");
            assert!(json.ends_with('}'), "{json}");
            assert!(json.contains(ev.kind()), "{json}");
        }
    }

    #[test]
    fn timeline_reassembles_batches_and_phases() {
        let mut t = Timeline::new();
        t.on_event(100, &ProbeEvent::BatchOpened {
            batch: 0,
            faults: 4,
            prefetches: 4,
            handling_cycles: 50,
        });
        t.on_event(400, &ProbeEvent::BatchClosed {
            batch: 0,
            faults: 4,
            prefetches: 4,
            evictions: 2,
            forced_pinned_evictions: 1,
            migrated_bytes: 8 << 12,
            opened_at: 100,
            first_migration_start: 200,
        });
        t.on_run_finished(500);
        let spans = t.batches();
        assert_eq!(spans.len(), 1);
        let b = spans[0];
        assert_eq!(b.pages(), 8);
        assert_eq!(b.total_cycles(), 300);
        assert_eq!(b.handling_cycles, 50);
        assert_eq!(b.eviction_wait_cycles(), 50); // 200 - (100 + 50)
        assert_eq!(b.migration_cycles(), 200); // 400 - 200
        let phases = t.phase_totals();
        assert_eq!(phases.handling, 50);
        assert_eq!(phases.eviction_wait, 50);
        assert_eq!(phases.migration, 200);
        assert_eq!(t.size_histogram(), vec![(8, 1)]);
        assert_eq!(t.finished_at(), Some(500));
        let csv = t.batches_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.lines().nth(1).unwrap().starts_with("0,8,4,4,2,1,"));
    }

    #[test]
    fn pow2_histogram_buckets_ascending() {
        let h = Timeline::pow2_histogram([1u64, 2, 3, 5, 9, 0].into_iter());
        // 1→1, 2→2, 3→4, 5→8, 9→16, 0→1
        assert_eq!(h, vec![(1, 2), (2, 1), (4, 1), (8, 1), (16, 1)]);
    }

    #[test]
    fn metrics_sink_seals_one_row_per_run() {
        let mut s = MetricsSink::labeled("bfs/baseline");
        s.on_event(1, &ProbeEvent::FaultRaised { page: page(1) });
        s.on_event(2, &ProbeEvent::KernelLaunched { kernel: 0, blocks: 4 });
        s.on_event(3, &ProbeEvent::BatchClosed {
            batch: 0,
            faults: 1,
            prefetches: 7,
            evictions: 0,
            forced_pinned_evictions: 0,
            migrated_bytes: 4096,
            opened_at: 1,
            first_migration_start: 2,
        });
        s.on_run_finished(99);
        s.on_event(1, &ProbeEvent::FaultRaised { page: page(2) });
        s.on_run_finished(42);
        let rows = s.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "bfs/baseline");
        assert_eq!(rows[0].cycles, 99);
        assert_eq!(rows[0].faults_raised, 1);
        assert_eq!(rows[0].prefetches, 7);
        assert_eq!(rows[0].migrated_bytes, 4096);
        assert_eq!(rows[1].label, "bfs/baseline"); // label persists
        assert_eq!(rows[1].cycles, 42);
        let csv = s.to_csv();
        assert_eq!(
            csv.lines().next().unwrap().split(',').count(),
            rows[0].to_csv_row().split(',').count()
        );
    }

    /// Splits one CSV line into fields, honouring RFC 4180 quotes.
    fn split_quoted(line: &str) -> Vec<String> {
        let mut fields = vec![String::new()];
        let mut quoted = false;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    chars.next();
                    fields.last_mut().unwrap().push('"');
                }
                '"' => quoted = !quoted,
                ',' if !quoted => fields.push(String::new()),
                _ => fields.last_mut().unwrap().push(c),
            }
        }
        fields
    }

    #[test]
    fn csv_rows_quote_labels_that_hold_separators_or_quotes() {
        let columns = MetricsRow::csv_header().split(',').count();
        for label in ["a,b", "say \"hi\"", "two\nlines"] {
            let row = MetricsRow { label: label.to_string(), cycles: 7, ..MetricsRow::default() };
            let fields = split_quoted(&row.to_csv_row());
            assert_eq!(fields.len(), columns, "{label:?} shifted its row");
            assert_eq!(fields[0], label);
            assert_eq!(fields[1], "7");
        }
        let quoted = MetricsRow { label: "say \"hi\"".into(), ..MetricsRow::default() };
        assert!(quoted.to_csv_row().starts_with("\"say \"\"hi\"\"\",0,"));
        let plain = MetricsRow { label: "BFS-TTC/TO+UE@0.5".into(), ..MetricsRow::default() };
        assert!(plain.to_csv_row().starts_with("BFS-TTC/TO+UE@0.5,0,"));
        let csv = MetricsRow::csv([&plain, &MetricsRow { label: "a,b".into(), ..MetricsRow::default() }]);
        assert!(csv.lines().all(|line| split_quoted(line).len() == columns));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
