//! Probe-layer completeness and ordering tests.
//!
//! The contract under test: the typed event stream is *complete* with
//! respect to the run record — replaying a tracer's events must reproduce
//! every `MetricsRow` column and every `BatchRecord` that the engine
//! counted itself. If an emission site is dropped or double-fires, or a
//! column reads the wrong counter, these tests break.

use batmem::probes::{MetricsRow, Tracer};
use batmem::{policies, ProbeEvent, RunMetrics, Simulation, SimulationBuilder};
use batmem_graph::gen;
use batmem_sim::ops::Workload;
use batmem_workloads::registry;
use batmem_workloads::synthetic::Strided;
use std::sync::Arc;

/// Runs `workload` under `builder` with a lossless tracer attached.
fn traced(builder: SimulationBuilder, workload: Box<dyn Workload>) -> (RunMetrics, Tracer) {
    let tracer = Tracer::bounded(1 << 22); // effectively unbounded here
    let metrics = builder.probe(tracer.clone()).try_run(workload).expect("simulation succeeds");
    assert_eq!(tracer.dropped(), 0, "trace must be lossless for replay");
    (metrics, tracer)
}

/// A BFS run small enough for an unbounded trace but oversubscribed
/// enough to exercise batches, evictions and refaults.
fn traced_bfs_run() -> (RunMetrics, Tracer) {
    let graph = Arc::new(gen::rmat(10, 8, 42));
    let workload = registry::build("BFS-TTC", graph).expect("known workload");
    traced(Simulation::builder().policy(policies::to_ue()).memory_ratio(0.5), workload)
}

/// The events the run record has no column for: each batch page starts
/// one migration, each eviction finishes once, and each stall is resumed
/// (the run completed). Every column is checked against the stream by
/// [`run_record_columns_match_the_event_stream`].
#[test]
fn tracer_replay_reproduces_run_metrics() {
    let (m, tracer) = traced_bfs_run();
    let events = tracer.events();
    let count = |kind: &str| events.iter().filter(|(_, ev)| ev.kind() == kind).count() as u64;

    let batch_pages: u64 = m.uvm.batches.iter().map(|b| u64::from(b.pages())).sum();
    assert_eq!(count("migration_started"), batch_pages, "migrations started");
    assert_eq!(count("eviction_finished"), m.uvm.evictions, "eviction completions");
    assert_eq!(m.warp_stalls, m.warp_resumes, "stall/resume pairing");

    // The run exercised what it claims to exercise.
    assert!(m.uvm.num_batches() > 1, "want a multi-batch run");
    assert!(m.uvm.evictions > 0, "want an oversubscribed run");
    assert_eq!(tracer.finished_at(), Some(m.cycles));
}

#[test]
fn event_stream_is_well_ordered() {
    let (_, tracer) = traced_bfs_run();
    let events = tracer.events();

    // Emission times are monotone non-decreasing.
    let mut prev = 0;
    for &(at, _) in &events {
        assert!(at >= prev, "time went backwards in the trace: {at} < {prev}");
        prev = at;
    }

    // Batches open and close in sequence order, strictly alternating:
    // the runtime processes one batch at a time.
    let mut open: Option<u64> = None;
    let mut last_closed: Option<u64> = None;
    for (_, ev) in &events {
        match *ev {
            ProbeEvent::BatchOpened { batch, .. } => {
                assert_eq!(open, None, "batch {batch} opened while another is open");
                if let Some(prev) = last_closed {
                    assert!(batch > prev, "batch ids must increase");
                }
                open = Some(batch);
            }
            ProbeEvent::BatchClosed { batch, .. } => {
                assert_eq!(open, Some(batch), "batch {batch} closed while not open");
                open = None;
                last_closed = Some(batch);
            }
            ProbeEvent::MigrationStarted { batch, .. } => {
                assert_eq!(open, Some(batch), "migration outside its batch window");
            }
            _ => {}
        }
    }
    assert_eq!(open, None, "a batch was left open at end of run");
}

/// The run record `tracer`'s events add up to: each column's event count,
/// payload sum or end-of-run summary.
fn replayed_row(label: &str, tracer: &Tracer) -> MetricsRow {
    let mut row = MetricsRow {
        label: label.into(),
        cycles: tracer.finished_at().expect("run finished"),
        ..MetricsRow::default()
    };
    for (_, ev) in tracer.events() {
        match ev {
            ProbeEvent::KernelLaunched { .. } => row.kernels += 1,
            ProbeEvent::FaultRaised { .. } => row.faults_raised += 1,
            ProbeEvent::FaultAbsorbed { .. } => row.faults_absorbed += 1,
            ProbeEvent::MigrationCompleted { .. } => row.migrations += 1,
            ProbeEvent::BatchClosed { prefetches, migrated_bytes, .. } => {
                row.batches += 1;
                row.prefetches += u64::from(prefetches);
                row.migrated_bytes += migrated_bytes;
            }
            ProbeEvent::EvictionBegun { forced_pinned, .. } => {
                row.evictions += 1;
                row.forced_pinned_evictions += u64::from(forced_pinned);
            }
            ProbeEvent::PrematureEviction { .. } => row.premature_evictions += 1,
            ProbeEvent::WarpStalled { .. } => row.warp_stalls += 1,
            ProbeEvent::WarpResumed { .. } => row.warp_resumes += 1,
            ProbeEvent::WatchdogTick { .. } => row.watchdog_ticks += 1,
            ProbeEvent::ContextSwitch { cost, .. } => {
                row.ctx_switches += 1;
                row.ctx_switch_cycles += cost;
            }
            ProbeEvent::TranslationSummary {
                l1_hits,
                l1_misses,
                large_hits,
                walks,
                coalesces,
                splinters,
            } => {
                row.l1_tlb_hits = l1_hits;
                row.l1_tlb_misses = l1_misses;
                row.large_tlb_hits = large_hits;
                row.walks = walks;
                row.coalesces = coalesces;
                row.splinters = splinters;
            }
            ProbeEvent::DataPathSummary { l2_conflict_evictions, .. } => {
                row.l2_conflict_evictions = l2_conflict_evictions;
            }
            _ => {}
        }
    }
    row
}

/// Every run-record column against the event stream, and every batch
/// record against its open and close events, over three runs that
/// between them exercise every column.
#[test]
fn run_record_columns_match_the_event_stream() {
    let graph = Arc::new(gen::rmat(10, 16, 42));
    let sssp = registry::build("SSSP-TWC", graph).expect("known workload");
    let to_ue = || Simulation::builder().policy(policies::to_ue()).memory_ratio(0.5);
    let greedy = Simulation::builder().memory_ratio(0.5).coalesce("greedy");
    let runs = [
        traced_bfs_run(),
        // Context switches, absorbed faults and forced-pinned evictions.
        traced(to_ue(), sssp),
        // Promotions, splinters, large-page TLB hits and L2 conflicts.
        traced(greedy, Box::new(Strided::new(8, 64, 32, 32, 10, 2))),
    ];
    let mut live = vec![false; MetricsRow::COUNTERS.len()];
    for (m, tracer) in &runs {
        let row = MetricsRow::from_run(m.workload.as_str(), m);
        let replayed = replayed_row(&row.label, tracer);
        let columns = MetricsRow::COUNTERS.iter().zip(row.counters().zip(replayed.counters()));
        for ((column, (got, want)), live) in columns.zip(live.iter_mut()) {
            assert_eq!(got, want, "{}: column `{column}`", m.workload);
            *live |= got > 0;
        }

        let batch_events: Vec<_> = tracer
            .events()
            .into_iter()
            .filter(|(_, ev)| {
                matches!(ev, ProbeEvent::BatchOpened { .. } | ProbeEvent::BatchClosed { .. })
            })
            .collect();
        let from_records = m.uvm.batches.iter().flat_map(|rec| {
            let opened = ProbeEvent::BatchOpened {
                batch: rec.id,
                faults: rec.faults,
                prefetches: rec.prefetches,
                handling_cycles: rec.handling_cycles(),
            };
            let closed = ProbeEvent::BatchClosed {
                batch: rec.id,
                faults: rec.faults,
                prefetches: rec.prefetches,
                evictions: rec.evictions,
                forced_pinned_evictions: rec.forced_pinned_evictions,
                migrated_bytes: rec.migrated_bytes,
                opened_at: rec.start,
                first_migration_start: rec.first_migration_start,
            };
            [(rec.start, opened), (rec.end, closed)]
        });
        assert_eq!(batch_events.len(), 2 * m.uvm.batches.len(), "{}: open/close pairs", m.workload);
        for (got, want) in batch_events.iter().zip(from_records) {
            assert_eq!(*got, want, "{}", m.workload);
        }
    }
    let dead: Vec<_> = MetricsRow::COUNTERS.iter().zip(&live).filter(|(_, &l)| !l).collect();
    assert!(dead.is_empty(), "columns no run exercised: {dead:?}");
}

#[test]
fn bounded_tracer_drops_oldest_but_keeps_counting() {
    let graph = Arc::new(gen::rmat(9, 8, 42));
    let workload = registry::build("BFS-TTC", graph).expect("known workload");
    let tiny = Tracer::bounded(32);
    let _ = Simulation::builder()
        .policy(policies::baseline())
        .memory_ratio(0.5)
        .probe(tiny.clone())
        .try_run(workload)
        .expect("simulation succeeds");
    assert_eq!(tiny.len(), 32, "ring stays at capacity");
    assert!(tiny.dropped() > 0, "a busy run must overflow 32 slots");
    assert_eq!(tiny.to_jsonl().lines().count(), 32);
}

#[test]
fn probe_attachment_does_not_change_the_simulation() {
    let run = |probe: bool| {
        let graph = Arc::new(gen::rmat(9, 8, 42));
        let workload = registry::build("BFS-TTC", graph).expect("known workload");
        let mut b = Simulation::builder().policy(policies::to_ue()).memory_ratio(0.5);
        if probe {
            b = b.probe(Tracer::bounded(1024));
        }
        b.try_run(workload).expect("simulation succeeds")
    };
    let bare = run(false);
    let probed = run(true);
    assert_eq!(bare.cycles, probed.cycles, "probes must not perturb timing");
    assert_eq!(bare.uvm.num_batches(), probed.uvm.num_batches());
    assert_eq!(bare.uvm.evictions, probed.uvm.evictions);
    assert_eq!(bare.ctx_switches, probed.ctx_switches);
}
