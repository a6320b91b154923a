//! Fault-injection robustness suite.
//!
//! Every policy preset must either complete or return a typed [`SimError`]
//! under injected hostility — never panic or hang — and crafted completion
//! loss must trip the engine's deadlock detection or forward-progress
//! watchdog, depending on whether the policy keeps the event queue alive.

use batmem::policies::{self, PolicySpec};
use batmem::Simulation;
use batmem_graph::gen;
use batmem_types::{AuditLevel, SimError};
use batmem_uvm::InjectConfig;
use batmem_workloads::registry;
use std::sync::Arc;

/// The counts a stuck-run dump names: blocks outstanding, pages awaited,
/// and the event queue's length split into ring / wheel / overflow.
#[derive(Debug)]
struct StuckDump {
    blocks: u64,
    pages: u64,
    queued: u64,
    ring: u64,
    wheel: u64,
    overflow: u64,
}

impl StuckDump {
    /// Parses `kernel k/n, B blocks outstanding, P pages awaited, Q events
    /// queued (ring R / wheel W / overflow O); ...`, panicking with the
    /// dump if any count is missing.
    fn parse(dump: &str) -> Self {
        let find = |label: &str| {
            dump.find(label).unwrap_or_else(|| panic!("dump lacks `{label}`: {dump}"))
        };
        let count = |digits: Option<&str>, label: &str| -> u64 {
            digits
                .and_then(|d| d.parse().ok())
                .unwrap_or_else(|| panic!("no count next to `{label}`: {dump}"))
        };
        let not_digit = |c: char| !c.is_ascii_digit();
        let before = |label: &str| count(dump[..find(label)].rsplit(not_digit).next(), label);
        let after =
            |label: &str| count(dump[find(label) + label.len()..].split(not_digit).next(), label);
        let d = Self {
            blocks: before(" blocks outstanding"),
            pages: before(" pages awaited"),
            queued: before(" events queued"),
            ring: after("(ring "),
            wheel: after(" / wheel "),
            overflow: after(" / overflow "),
        };
        assert_eq!(d.ring + d.wheel + d.overflow, d.queued, "occupancy does not add up: {dump}");
        d
    }
}

fn presets() -> Vec<(&'static str, PolicySpec)> {
    vec![
        ("baseline", policies::baseline()),
        ("compression", policies::baseline_with_compression()),
        ("to", policies::to_only()),
        ("ue", policies::ue_only()),
        ("to_ue", policies::to_ue()),
        ("ideal", policies::ideal_eviction()),
    ]
}

#[test]
fn every_preset_survives_noisy_injection() {
    // Jitter, stalls, duplicate faults, and dropped prefetches perturb the
    // batch boundaries but never lose a completion: every preset must still
    // run to completion, with the full auditor watching.
    let graph = Arc::new(gen::rmat(10, 8, 7));
    for (label, policy) in presets() {
        for seed in [1u64, 2, 3] {
            let w = registry::build("BFS-TTC", Arc::clone(&graph)).unwrap();
            let result = Simulation::builder()
                .policy(policy.clone())
                .memory_ratio(0.4)
                .audit(AuditLevel::Full)
                .inject(InjectConfig::noisy(seed))
                .try_run(w);
            match result {
                Ok(m) => {
                    assert!(m.cycles > 0, "{label}/seed{seed}: empty run");
                    assert!(m.blocks_retired > 0, "{label}/seed{seed}: no blocks retired");
                }
                Err(e) => panic!("{label}/seed{seed}: typed failure on a survivable run: {e}"),
            }
        }
    }
}

#[test]
fn noisy_injection_is_deterministic_per_seed() {
    let graph = Arc::new(gen::rmat(10, 8, 7));
    let run = || {
        let w = registry::build("PR", Arc::clone(&graph)).unwrap();
        Simulation::builder()
            .policy(policies::to_ue())
            .memory_ratio(0.5)
            .inject(InjectConfig::noisy(99))
            .try_run(w)
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.uvm.faults_raised, b.uvm.faults_raised);
    assert_eq!(a.uvm.evictions, b.uvm.evictions);
}

#[test]
fn noisy_injection_slows_the_run_down() {
    // The injected jitter and stalls are real simulated latency: the same
    // workload must take longer than the clean run.
    let graph = Arc::new(gen::rmat(10, 8, 7));
    let run = |inject: Option<InjectConfig>| {
        let w = registry::build("BFS-TTC", Arc::clone(&graph)).unwrap();
        let mut b = Simulation::builder().policy(policies::baseline()).memory_ratio(0.5);
        if let Some(i) = inject {
            b = b.inject(i);
        }
        b.try_run(w).unwrap()
    };
    let clean = run(None);
    let noisy = run(Some(InjectConfig::noisy(5)));
    assert!(
        noisy.cycles > clean.cycles,
        "injected PCIe delay did not slow the run: {} <= {}",
        noisy.cycles,
        clean.cycles
    );
}

#[test]
fn lost_completions_are_caught_not_hung() {
    // Dropping DMA completion events strands a batch forever. Depending on
    // the policy the engine either drains its queue (deadlock) or keeps
    // spinning on self-rescheduling events (livelock, caught by the
    // watchdog) — both must surface as typed errors, never as a hang.
    let graph = Arc::new(gen::rmat(10, 8, 7));
    for (label, policy) in presets() {
        let w = registry::build("BFS-TTC", Arc::clone(&graph)).unwrap();
        let err = Simulation::builder()
            .policy(policy)
            .memory_ratio(0.5)
            .watchdog_budget(20_000)
            .inject(InjectConfig::lost_completions(1, 3))
            .try_run(w)
            .expect_err(&format!("{label}: run completed despite lost completions"));
        assert!(
            matches!(err, SimError::Deadlock { .. } | SimError::Livelock { .. }),
            "{label}: expected deadlock/livelock, got {err}"
        );
        assert!(err.cycle().is_some(), "{label}: mid-run error lost its cycle");
    }
}

#[test]
fn lost_completion_deadlocks_the_baseline() {
    // The baseline schedules nothing periodic: once the stranded batch's
    // waiters are asleep the event queue drains with blocks outstanding.
    let graph = Arc::new(gen::rmat(10, 8, 7));
    let w = registry::build("BFS-TTC", Arc::clone(&graph)).unwrap();
    let err = Simulation::builder()
        .policy(policies::baseline())
        .memory_ratio(0.5)
        .inject(InjectConfig::lost_completions(1, 3))
        .try_run(w)
        .unwrap_err();
    match err {
        SimError::Deadlock { cycle, detail } => {
            assert!(cycle > 0);
            let d = StuckDump::parse(&detail);
            assert!(d.blocks > 0, "a deadlock leaves blocks outstanding: {d:?}");
            assert!(d.pages > 0, "the stranded batch's pages are still awaited: {d:?}");
            assert_eq!(d.queued, 0, "a deadlock is a drained queue: {d:?}");
        }
        other => panic!("expected deadlock, got {other}"),
    }
}

#[test]
fn watchdog_catches_the_livelock_from_lost_completions() {
    // Thread Oversubscription keeps a periodic lifetime-sampling event in
    // the queue, so the queue never drains: only the forward-progress
    // watchdog can catch the stranded run.
    let graph = Arc::new(gen::rmat(10, 8, 7));
    let w = registry::build("BFS-TTC", Arc::clone(&graph)).unwrap();
    let budget = 10_000;
    let err = Simulation::builder()
        .policy(policies::to_ue())
        .memory_ratio(0.5)
        .watchdog_budget(budget)
        .inject(InjectConfig::lost_completions(1, 3))
        .try_run(w)
        .unwrap_err();
    match err {
        SimError::Livelock { events_without_progress, snapshot, .. } => {
            assert!(
                events_without_progress >= budget,
                "watchdog fired early: {events_without_progress} < {budget}"
            );
            let d = StuckDump::parse(&snapshot);
            assert!(d.blocks > 0, "a livelock leaves blocks outstanding: {d:?}");
            assert!(d.pages > 0, "the stranded batch's pages are still awaited: {d:?}");
            assert!(d.queued > 0, "a livelock keeps events queued: {d:?}");
        }
        other => panic!("expected livelock, got {other}"),
    }
}

#[test]
fn to_ue_replay_cycle_at_two_frames_is_a_livelock() {
    // Two frames under TO+UE: each replayed fault evicts the page another
    // warp needs and switches blocks, forever, without a warp taking a new
    // op from its stream. Replays, installs and switches are not progress,
    // so the watchdog must end the run.
    let graph = Arc::new(gen::rmat(10, 8, 1));
    let w = registry::build("SSSP-TWC", graph).unwrap();
    let err =
        Simulation::builder().policy(policies::to_ue()).memory_ratio(0.25).try_run(w).unwrap_err();
    assert!(matches!(err, SimError::Livelock { .. }), "expected livelock, got {err}");
}
