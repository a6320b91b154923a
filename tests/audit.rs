//! Engine-level coverage for the opt-in invariant auditor, the watchdog
//! knob, and `try_run`'s pre-flight config validation.

use batmem::policies::{self, PolicySpec};
use batmem::Simulation;
use batmem_graph::gen;
use batmem_types::{AuditLevel, SimConfig, SimError};
use batmem_workloads::registry;
use std::sync::Arc;

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
fn full_audit_passes_for_every_policy_preset() {
    // The quickstart scenario (BFS over an R-MAT graph at 50% memory) with
    // every conservation law re-derived after every UVM event.
    let graph = Arc::new(gen::rmat(12, 8, 42));
    for (label, policy) in presets() {
        let w = registry::build("BFS-TTC", Arc::clone(&graph)).unwrap();
        let result = Simulation::builder()
            .policy(policy)
            .memory_ratio(0.5)
            .audit(AuditLevel::Full)
            .try_run(w);
        match result {
            Ok(m) => assert!(m.blocks_retired > 0, "{label}: no blocks retired"),
            Err(e) => panic!("{label}: audit tripped on a healthy run: {e}"),
        }
    }
}

#[test]
fn auditing_does_not_perturb_the_simulation() {
    // The auditor only observes: metrics must be bit-identical with it on.
    let graph = Arc::new(gen::rmat(10, 8, 21));
    let run = |level: AuditLevel| {
        let w = registry::build("PR", Arc::clone(&graph)).unwrap();
        Simulation::builder()
            .policy(policies::to_ue())
            .memory_ratio(0.5)
            .audit(level)
            .try_run(w)
            .unwrap()
    };
    let off = run(AuditLevel::Off);
    let basic = run(AuditLevel::Basic);
    let full = run(AuditLevel::Full);
    assert_eq!(off.cycles, basic.cycles);
    assert_eq!(off.cycles, full.cycles);
    assert_eq!(off.uvm.faults_raised, full.uvm.faults_raised);
    assert_eq!(off.uvm.evictions, full.uvm.evictions);
    assert_eq!(off.ctx_switches, full.ctx_switches);
}

#[test]
fn invalid_config_is_rejected_before_simulation() {
    let graph = Arc::new(gen::rmat(8, 8, 1));
    let cases: Vec<(&'static str, SimConfig)> = vec![
        ("gpu.num_sms", {
            let mut c = SimConfig::default();
            c.gpu.num_sms = 0;
            c
        }),
        ("uvm.gpu_mem_pages", {
            let mut c = SimConfig::default();
            c.uvm.gpu_mem_pages = Some(0);
            c
        }),
        ("tlb.l2_entries", {
            let mut c = SimConfig::default();
            c.tlb.l2_entries = 0;
            c
        }),
        ("tlb.pwc_entries", {
            let mut c = SimConfig::default();
            c.tlb.pwc_entries = 0;
            c
        }),
    ];
    for (want_field, cfg) in cases {
        let w = registry::build("BFS-TTC", Arc::clone(&graph)).unwrap();
        let err = Simulation::builder().config(cfg).memory_ratio(0.5).try_run(w).unwrap_err();
        // Rejection happens before any simulated time passes.
        assert_eq!(err.cycle(), None, "config rejection carries a cycle");
        match err {
            SimError::InvalidConfig { field, .. } => assert_eq!(field, want_field),
            other => panic!("expected InvalidConfig({want_field}), got {other}"),
        }
    }
}

#[test]
fn invalid_page_geometry_is_rejected_at_construction() {
    // Inverted or out-of-range shift orderings never reach a SimConfig:
    // PageGeometry::new is the single validation point, and its rejection
    // is a typed InvalidConfig naming the offending shift.
    use batmem_types::addr::PageGeometry;
    for (base, large, region, want_field) in [
        (5u32, 21u32, 21u32, "uvm.geometry.base_shift"),
        (21, 16, 21, "uvm.geometry.large_shift"),
        (16, 21, 20, "uvm.geometry.region_shift"),
        (16, 41, 41, "uvm.geometry.large_shift"),
    ] {
        match PageGeometry::new(base, large, region) {
            Err(SimError::InvalidConfig { field, .. }) => assert_eq!(field, want_field),
            other => {
                panic!("geometry ({base},{large},{region}): expected InvalidConfig, got {other:?}")
            }
        }
    }
}

#[test]
fn non_finite_memory_ratio_is_rejected() {
    let graph = Arc::new(gen::rmat(8, 8, 1));
    let w = registry::build("BFS-TTC", Arc::clone(&graph)).unwrap();
    let err = Simulation::builder()
        .policy(policies::baseline())
        .memory_ratio(f64::INFINITY)
        .try_run(w)
        .unwrap_err();
    match err {
        SimError::InvalidConfig { field, .. } => assert_eq!(field, "memory_ratio"),
        other => panic!("expected InvalidConfig(memory_ratio), got {other}"),
    }
}

#[test]
fn disabled_watchdog_still_completes_clean_runs() {
    let graph = Arc::new(gen::rmat(10, 8, 3));
    let w = registry::build("BFS-TTC", Arc::clone(&graph)).unwrap();
    let m = Simulation::builder()
        .policy(policies::baseline())
        .memory_ratio(0.5)
        .watchdog_budget(0)
        .try_run(w)
        .unwrap();
    assert!(m.blocks_retired > 0);
}

#[test]
fn tiny_watchdog_budget_does_not_false_positive() {
    // Even a very small budget must never fire on a healthy run: every
    // event chain reaches a progress point (an op taken from a warp's
    // stream, or a warp retired) well within a couple of thousand events.
    let graph = Arc::new(gen::rmat(10, 8, 3));
    for (label, policy) in presets() {
        let w = registry::build("BFS-TTC", Arc::clone(&graph)).unwrap();
        let result = Simulation::builder()
            .policy(policy)
            .memory_ratio(0.5)
            .watchdog_budget(2_000)
            .try_run(w);
        assert!(result.is_ok(), "{label}: watchdog false positive: {}", result.unwrap_err());
    }
}
