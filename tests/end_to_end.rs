//! End-to-end runs of every workload through the full engine.

use batmem::{policies, Simulation};
use batmem_graph::gen;
use batmem_types::KernelId;
use batmem_workloads::registry;
use std::sync::Arc;

fn small_graph() -> Arc<batmem_graph::Csr> {
    Arc::new(gen::rmat(10, 8, 7))
}

#[test]
fn every_workload_completes_with_unlimited_memory() {
    let graph = small_graph();
    for name in registry::irregular_names() {
        let w = registry::build(name, Arc::clone(&graph)).unwrap();
        let m = Simulation::builder().policy(policies::baseline()).try_run(w).unwrap();
        assert!(m.cycles > 0, "{name}: no time elapsed");
        assert!(m.blocks_retired > 0, "{name}: no blocks retired");
        assert!(m.warps_retired > 0, "{name}: no warps retired");
        assert!(m.uvm.faults_raised > 0, "{name}: demand paging never engaged");
        assert_eq!(m.uvm.evictions, 0, "{name}: evicted with unlimited memory");
        assert_eq!(m.workload, *name);
    }
}

#[test]
fn every_workload_completes_under_oversubscription() {
    let graph = small_graph();
    for name in registry::irregular_names() {
        let w = registry::build(name, Arc::clone(&graph)).unwrap();
        let m =
            Simulation::builder().policy(policies::to_ue()).memory_ratio(0.5).try_run(w).unwrap();
        assert!(m.uvm.evictions > 0, "{name}: 50% memory but no evictions");
        assert!(m.uvm.num_batches() > 0, "{name}: no batches");
    }
}

#[test]
fn blocks_retired_matches_grid_sizes() {
    let graph = small_graph();
    let w = registry::build("BFS-TTC", Arc::clone(&graph)).unwrap();
    let expected: u64 =
        (0..w.num_kernels()).map(|k| u64::from(w.kernel(KernelId::new(k)).spec().num_blocks)).sum();
    let w = registry::build("BFS-TTC", graph).unwrap();
    let m = Simulation::builder().try_run(w).unwrap();
    assert_eq!(m.blocks_retired, expected);
}

#[test]
fn oversubscribed_run_is_slower_than_unlimited() {
    let graph = small_graph();
    let unlimited =
        Simulation::builder().try_run(registry::build("PR", Arc::clone(&graph)).unwrap()).unwrap();
    let half = Simulation::builder()
        .memory_ratio(0.5)
        .try_run(registry::build("PR", Arc::clone(&graph)).unwrap())
        .unwrap();
    assert!(
        half.cycles > unlimited.cycles,
        "oversubscription should cost time: {} vs {}",
        half.cycles,
        unlimited.cycles
    );
}

#[test]
fn regular_workloads_complete() {
    for w in batmem_workloads::regular::TiledRegular::suite(1 << 18) {
        let name = batmem_sim::ops::Workload::name(&w);
        let m = Simulation::builder().memory_ratio(0.75).try_run(Box::new(w)).unwrap();
        assert!(m.blocks_retired > 0, "{name}: nothing ran");
    }
}

#[test]
fn synthetic_strided_faults_once_per_page() {
    use batmem_sim::ops::Workload;
    let w = batmem_workloads::synthetic::Strided::new(16, 256, 32, 2, 100, 1);
    let footprint_pages = w.footprint_bytes() / 65_536;
    let m = Simulation::builder().try_run(Box::new(w)).unwrap();
    // Every page migrates exactly once (disjoint pages, one touch each,
    // no eviction): faults plus prefetches cover the footprint.
    let faulted: u64 = m.uvm.batches.iter().map(|b| u64::from(b.faults)).sum();
    let prefetched: u64 = m.uvm.batches.iter().map(|b| u64::from(b.prefetches)).sum();
    assert_eq!(faulted + prefetched, footprint_pages);
}

#[test]
fn memory_pages_builder_overrides_ratio() {
    let w = batmem_workloads::synthetic::SharedPages::new(8, 256, 32, 10, 50);
    let m = Simulation::builder().memory_pages(5).try_run(Box::new(w)).unwrap();
    assert_eq!(m.memory_pages, Some(5));
    assert!(m.uvm.peak_resident_pages <= 5);
    assert!(m.uvm.evictions > 0);
}
