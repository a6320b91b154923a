//! Bit-for-bit reproducibility of simulation runs.

use batmem::{policies, Simulation};
use batmem_graph::gen;
use batmem_workloads::registry;
use std::sync::Arc;

fn run_once(name: &str, seed: u64) -> batmem::RunMetrics {
    let graph = Arc::new(gen::rmat(11, 8, seed));
    let w = registry::build(name, graph).unwrap();
    Simulation::builder().policy(policies::to_ue()).memory_ratio(0.5).try_run(w).unwrap()
}

#[test]
fn identical_runs_produce_identical_timelines() {
    for name in ["BFS-TTC", "SSSP-TWC", "GC-DTC"] {
        let a = run_once(name, 3);
        let b = run_once(name, 3);
        assert_eq!(a.cycles, b.cycles, "{name}: cycles diverged");
        assert_eq!(a.uvm.num_batches(), b.uvm.num_batches());
        assert_eq!(a.uvm.faults_raised, b.uvm.faults_raised);
        assert_eq!(a.uvm.evictions, b.uvm.evictions);
        assert_eq!(a.ctx_switches, b.ctx_switches);
        // Full batch-by-batch timing equality.
        for (x, y) in a.uvm.batches.iter().zip(&b.uvm.batches) {
            assert_eq!(x, y, "{name}: batch records diverged");
        }
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_once("BFS-TTC", 3);
    let b = run_once("BFS-TTC", 4);
    assert_ne!(a.cycles, b.cycles);
}

#[test]
fn different_policies_differ() {
    let graph = Arc::new(gen::rmat(11, 8, 3));
    let base = Simulation::builder()
        .policy(policies::baseline())
        .memory_ratio(0.5)
        .try_run(registry::build("BFS-TTC", Arc::clone(&graph)).unwrap())
        .unwrap();
    let ue = Simulation::builder()
        .policy(policies::ue_only())
        .memory_ratio(0.5)
        .try_run(registry::build("BFS-TTC", graph).unwrap())
        .unwrap();
    assert_ne!(base.cycles, ue.cycles);
}
