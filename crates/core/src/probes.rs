//! The shipped probe for the [`Probe`] observation layer, and the run
//! record the event stream is checked against.
//!
//! * [`Tracer`] — a ring-buffered structured trace with JSONL export.
//!   Memory is bounded: once the buffer is full the oldest events are
//!   dropped and counted, so a tracer can be left attached to an
//!   arbitrarily long run.
//! * [`MetricsRow`] — one run's counters by name: a view of
//!   [`RunMetrics`] built by [`MetricsRow::from_run`],
//!   with CSV export. The bench harness's sweep store keeps these rows as
//!   named JSON records. Batch anatomy (per-batch phases and CSV) lives
//!   on the run's [`UvmStats`](batmem_uvm::UvmStats).
//!
//! A tracer is a cheap **handle** over shared state: clone it, attach the
//! clone via [`SimulationBuilder::probe`], and read the results from the
//! original after the run:
//!
//! ```
//! use batmem::probes::{MetricsRow, Tracer};
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
//! let row = MetricsRow::from_run("strided/baseline", &metrics);
//! assert_eq!(row.cycles, metrics.cycles);
//! ```
//!
//! [`SimulationBuilder::probe`]: crate::SimulationBuilder::probe

use crate::RunMetrics;
use batmem_types::probe::{Probe, ProbeEvent};
use batmem_types::Cycle;
use batmem_uvm::BatchRecord;
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
        ProbeEvent::TranslationSummary {
            l1_hits,
            l1_misses,
            large_hits,
            walks,
            coalesces,
            splinters,
        } => {
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

// ---- MetricsRow ------------------------------------------------------------

/// Defines [`MetricsRow`] from its one list of counters, in column order:
/// the struct's fields, [`MetricsRow::COUNTERS`], the CSV header and the
/// counter iterators that every writer and reader loops over.
macro_rules! metrics_row {
    ($($(#[$attr:meta])+ $field:ident,)+) => {
        /// One run's counters by name, built from its [`RunMetrics`] by
        /// [`MetricsRow::from_run`].
        ///
        /// Plain data (`Clone + Send`), so rows can cross the bench
        /// harness's worker threads.
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
    /// L1 TLB hits (base-page entries).
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
    /// `run`'s row, labelled `label`. Each column is read from where the
    /// run counted it; the literal names every column, so a counter added
    /// to `metrics_row!` without a source does not compile.
    pub fn from_run(label: impl Into<String>, run: &RunMetrics) -> Self {
        let uvm = &run.uvm;
        let batch_sum = |f: fn(&BatchRecord) -> u64| -> u64 { uvm.batches.iter().map(f).sum() };
        Self {
            label: label.into(),
            cycles: run.cycles,
            kernels: u64::from(run.kernels),
            batches: uvm.num_batches(),
            faults_raised: uvm.faults_raised,
            faults_absorbed: uvm.faults_on_inflight,
            // What migrated, not what the prefetcher issued (`uvm.prefetches`).
            prefetches: batch_sum(|b| u64::from(b.prefetches)),
            migrations: batch_sum(|b| u64::from(b.pages())),
            migrated_bytes: batch_sum(|b| b.migrated_bytes),
            evictions: uvm.evictions,
            forced_pinned_evictions: batch_sum(|b| u64::from(b.forced_pinned_evictions)),
            premature_evictions: uvm.premature_evictions,
            warp_stalls: run.warp_stalls,
            warp_resumes: run.warp_resumes,
            ctx_switches: run.ctx_switches,
            ctx_switch_cycles: run.ctx_switch_cycles,
            watchdog_ticks: run.watchdog_ticks,
            l1_tlb_hits: run.mmu.l1.hits,
            l1_tlb_misses: run.mmu.l1.misses,
            large_tlb_hits: run.mmu.large_hits(),
            walks: run.mmu.walks,
            coalesces: run.mmu.coalesces,
            splinters: run.mmu.splinters,
            l2_conflict_evictions: run.l2d.conflict_evictions,
        }
    }

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
        let csv =
            MetricsRow::csv([&plain, &MetricsRow { label: "a,b".into(), ..MetricsRow::default() }]);
        assert!(csv.lines().all(|line| split_quoted(line).len() == columns));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
