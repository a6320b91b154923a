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
//! * [`MetricsSink`] — a per-run counter sink with CSV and JSON export,
//!   used by the bench harness for machine-readable sweep output.
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
        ProbeEvent::DataPathSummary {
            l2_hits,
            l2_misses,
            l2_conflict_evictions,
            l2_banks,
            l2_hot_bank_pct,
        } => {
            let _ = write!(
                s,
                ",\"l2_hits\":{l2_hits},\"l2_misses\":{l2_misses},\
                 \"l2_conflict_evictions\":{l2_conflict_evictions},\"l2_banks\":{l2_banks},\
                 \"l2_hot_bank_pct\":{l2_hot_bank_pct}"
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

/// One run's event-derived counters, as recorded by [`MetricsSink`].
///
/// Plain data (`Clone + Send`), so rows can cross the bench harness's
/// worker threads even though the sink itself is single-threaded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRow {
    /// Caller-supplied row label (workload/config), may be empty.
    pub label: String,
    /// Completion time of the run.
    pub cycles: Cycle,
    /// Kernels launched.
    pub kernels: u64,
    /// Fault batches closed.
    pub batches: u64,
    /// Faults that entered the fault buffer.
    pub faults_raised: u64,
    /// Faults absorbed by an already-open batch.
    pub faults_absorbed: u64,
    /// Prefetched pages migrated.
    pub prefetches: u64,
    /// Page migrations completed.
    pub migrations: u64,
    /// Bytes migrated host-to-device.
    pub migrated_bytes: u64,
    /// Evictions begun.
    pub evictions: u64,
    /// Evictions forced to take a pinned victim.
    pub forced_pinned_evictions: u64,
    /// Premature evictions (re-faulted victims).
    pub premature_evictions: u64,
    /// Warp fault-stalls.
    pub warp_stalls: u64,
    /// Warp resumes.
    pub warp_resumes: u64,
    /// Context switches.
    pub ctx_switches: u64,
    /// Cycles spent in context-switch transfers.
    pub ctx_switch_cycles: Cycle,
    /// Watchdog ticks (events observed without forward progress).
    pub watchdog_ticks: u64,
    /// L1 TLB hits (base-page entries), from the end-of-run summary.
    pub l1_tlb_hits: u64,
    /// L1 TLB misses.
    pub l1_tlb_misses: u64,
    /// Translations served by a promoted large-page mapping.
    pub large_tlb_hits: u64,
    /// Page-table walks performed.
    pub walks: u64,
    /// Large-page promotions (coalesces) over the run.
    pub coalesces: u64,
    /// Large-page demotions (splinters) over the run.
    pub splinters: u64,
    /// L2 misses that evicted a resident line from a full set.
    pub l2_conflict_evictions: u64,
    /// Share of L2 accesses landing on the busiest bank, in percent.
    pub l2_hot_bank_pct: u64,
}

impl MetricsRow {
    /// CSV column names matching [`MetricsRow::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "label,cycles,kernels,batches,faults_raised,faults_absorbed,prefetches,migrations,\
         migrated_bytes,evictions,forced_pinned_evictions,premature_evictions,warp_stalls,\
         warp_resumes,ctx_switches,ctx_switch_cycles,watchdog_ticks,l1_tlb_hits,l1_tlb_misses,\
         large_tlb_hits,walks,coalesces,splinters,l2_conflict_evictions,l2_hot_bank_pct"
    }

    /// One CSV row (label first, counters in header order).
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.label,
            self.cycles,
            self.kernels,
            self.batches,
            self.faults_raised,
            self.faults_absorbed,
            self.prefetches,
            self.migrations,
            self.migrated_bytes,
            self.evictions,
            self.forced_pinned_evictions,
            self.premature_evictions,
            self.warp_stalls,
            self.warp_resumes,
            self.ctx_switches,
            self.ctx_switch_cycles,
            self.watchdog_ticks,
            self.l1_tlb_hits,
            self.l1_tlb_misses,
            self.large_tlb_hits,
            self.walks,
            self.coalesces,
            self.splinters,
            self.l2_conflict_evictions,
            self.l2_hot_bank_pct,
        )
    }

    /// Parses a row previously rendered by [`MetricsRow::to_csv_row`].
    ///
    /// Labels never contain commas (they are `workload/policy@point`
    /// slugs), but the parser is defensive anyway: the 16 counters are
    /// taken from the right, and everything left of them is the label. The
    /// sweep artifact store round-trips rows through this, so resume can
    /// merge completed cells without re-running them.
    ///
    /// Returns `None` when the text has neither 24 (current layout), 22
    /// (pre-bank-columns layout), nor 16 (pre-translation-columns layout)
    /// trailing integers — i.e. a truncated or corrupt record. Rows written
    /// before the newer columns existed parse with those counters as zero,
    /// so archived sweep stores stay readable.
    pub fn parse_csv_row(line: &str) -> Option<Self> {
        let fields: Vec<&str> = line.trim_end_matches(['\r', '\n']).split(',').collect();
        // Each legacy fallback only applies to rows too short to hold the
        // next-newer layout; a corrupt current-layout row must fail, not
        // have its leading counters reinterpreted as label text.
        Self::parse_fields(&fields, 24)
            .or_else(|| if fields.len() < 25 { Self::parse_fields(&fields, 22) } else { None })
            .or_else(|| if fields.len() < 23 { Self::parse_fields(&fields, 16) } else { None })
    }

    fn parse_fields(fields: &[&str], counters: usize) -> Option<Self> {
        if fields.len() < counters + 1 {
            return None;
        }
        let label = fields[..fields.len() - counters].join(",");
        let mut nums = [0u64; 24];
        for (slot, text) in nums.iter_mut().zip(&fields[fields.len() - counters..]) {
            *slot = text.parse().ok()?;
        }
        let [cycles, kernels, batches, faults_raised, faults_absorbed, prefetches, migrations, migrated_bytes, evictions, forced_pinned_evictions, premature_evictions, warp_stalls, warp_resumes, ctx_switches, ctx_switch_cycles, watchdog_ticks, l1_tlb_hits, l1_tlb_misses, large_tlb_hits, walks, coalesces, splinters, l2_conflict_evictions, l2_hot_bank_pct] =
            nums;
        Some(Self {
            label,
            cycles,
            kernels,
            batches,
            faults_raised,
            faults_absorbed,
            prefetches,
            migrations,
            migrated_bytes,
            evictions,
            forced_pinned_evictions,
            premature_evictions,
            warp_stalls,
            warp_resumes,
            ctx_switches,
            ctx_switch_cycles,
            watchdog_ticks,
            l1_tlb_hits,
            l1_tlb_misses,
            large_tlb_hits,
            walks,
            coalesces,
            splinters,
            l2_conflict_evictions,
            l2_hot_bank_pct,
        })
    }

    /// The row as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"label\":\"{}\",\"cycles\":{},\"kernels\":{},\"batches\":{},\
             \"faults_raised\":{},\"faults_absorbed\":{},\"prefetches\":{},\"migrations\":{},\
             \"migrated_bytes\":{},\"evictions\":{},\"forced_pinned_evictions\":{},\
             \"premature_evictions\":{},\"warp_stalls\":{},\"warp_resumes\":{},\
             \"ctx_switches\":{},\"ctx_switch_cycles\":{},\"watchdog_ticks\":{},\
             \"l1_tlb_hits\":{},\"l1_tlb_misses\":{},\"large_tlb_hits\":{},\"walks\":{},\
             \"coalesces\":{},\"splinters\":{},\"l2_conflict_evictions\":{},\
             \"l2_hot_bank_pct\":{}}}",
            json_escape(&self.label),
            self.cycles,
            self.kernels,
            self.batches,
            self.faults_raised,
            self.faults_absorbed,
            self.prefetches,
            self.migrations,
            self.migrated_bytes,
            self.evictions,
            self.forced_pinned_evictions,
            self.premature_evictions,
            self.warp_stalls,
            self.warp_resumes,
            self.ctx_switches,
            self.ctx_switch_cycles,
            self.watchdog_ticks,
            self.l1_tlb_hits,
            self.l1_tlb_misses,
            self.large_tlb_hits,
            self.walks,
            self.coalesces,
            self.splinters,
            self.l2_conflict_evictions,
            self.l2_hot_bank_pct,
        )
    }
}

#[derive(Debug, Default)]
struct MetricsSinkInner {
    current: MetricsRow,
    rows: Vec<MetricsRow>,
}

/// A per-run metrics sink with CSV/JSON export.
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
        let mut out = String::from(MetricsRow::csv_header());
        out.push('\n');
        for row in &self.0.borrow().rows {
            out.push_str(&row.to_csv_row());
            out.push('\n');
        }
        out
    }

    /// The sealed rows as a JSON array.
    pub fn to_json(&self) -> String {
        let rows = self.0.borrow();
        let body: Vec<String> = rows.rows.iter().map(MetricsRow::to_json).collect();
        format!("[{}]", body.join(","))
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
            ProbeEvent::DataPathSummary { l2_conflict_evictions, l2_hot_bank_pct, .. } => {
                // Emitted once at end of run with absolute totals.
                row.l2_conflict_evictions = l2_conflict_evictions;
                row.l2_hot_bank_pct = u64::from(l2_hot_bank_pct);
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
            ProbeEvent::DataPathSummary {
                l2_hits: 1,
                l2_misses: 2,
                l2_conflict_evictions: 3,
                l2_banks: 8,
                l2_hot_bank_pct: 13,
            },
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
        let json = s.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"label\"").count(), 2);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn metrics_row_roundtrips_through_csv() {
        let row = MetricsRow {
            label: "BFS-TTC/TO+UE@s8".into(),
            cycles: 123,
            kernels: 4,
            batches: 5,
            faults_raised: 6,
            faults_absorbed: 7,
            prefetches: 8,
            migrations: 9,
            migrated_bytes: 10,
            evictions: 11,
            forced_pinned_evictions: 12,
            premature_evictions: 13,
            warp_stalls: 14,
            warp_resumes: 15,
            ctx_switches: 16,
            ctx_switch_cycles: 17,
            watchdog_ticks: 18,
            l1_tlb_hits: 19,
            l1_tlb_misses: 20,
            large_tlb_hits: 21,
            walks: 22,
            coalesces: 23,
            splinters: 24,
            l2_conflict_evictions: 25,
            l2_hot_bank_pct: 26,
        };
        let parsed = MetricsRow::parse_csv_row(&row.to_csv_row()).unwrap();
        assert_eq!(parsed, row);
        // Defensive: a label with a comma still round-trips.
        let odd = MetricsRow { label: "a,b".into(), ..row.clone() };
        assert_eq!(MetricsRow::parse_csv_row(&odd.to_csv_row()).unwrap(), odd);
        // Truncated or corrupt rows are rejected, not misparsed.
        assert!(MetricsRow::parse_csv_row("x,1,2,3").is_none());
        assert!(MetricsRow::parse_csv_row(&row.to_csv_row().replace("123", "xyz")).is_none());
    }

    #[test]
    fn legacy_16_counter_rows_still_parse() {
        // Rows archived before the translation columns existed carry 16
        // counters; they must keep parsing (new counters read as zero) so
        // existing sweep stores resume cleanly.
        let legacy = "BFS-TTC/TO+UE@s8,123,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18";
        let parsed = MetricsRow::parse_csv_row(legacy).unwrap();
        assert_eq!(parsed.label, "BFS-TTC/TO+UE@s8");
        assert_eq!(parsed.cycles, 123);
        assert_eq!(parsed.watchdog_ticks, 18);
        assert_eq!(parsed.l1_tlb_hits, 0);
        assert_eq!(parsed.splinters, 0);
    }

    #[test]
    fn legacy_22_counter_rows_still_parse() {
        // Rows archived before the bank columns existed carry 22 counters;
        // they must keep parsing (bank counters read as zero).
        let legacy =
            "BFS-TTC/TO+UE@s8,123,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24";
        let parsed = MetricsRow::parse_csv_row(legacy).unwrap();
        assert_eq!(parsed.label, "BFS-TTC/TO+UE@s8");
        assert_eq!(parsed.cycles, 123);
        assert_eq!(parsed.splinters, 24);
        assert_eq!(parsed.l2_conflict_evictions, 0);
        assert_eq!(parsed.l2_hot_bank_pct, 0);
    }
}
