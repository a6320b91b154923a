//! Whole-run structural invariants over the batch records and counters.

use batmem::policies::{self, PolicySpec};
use batmem::{RunMetrics, SimConfig, Simulation};
use batmem_graph::gen;
use batmem_workloads::registry;
use std::sync::Arc;

fn run(name: &str, policy: PolicySpec, ratio: f64) -> RunMetrics {
    let graph = Arc::new(gen::rmat(12, 8, 21));
    let w = registry::build(name, graph).unwrap();
    Simulation::builder().policy(policy).memory_ratio(ratio).try_run(w).unwrap()
}

fn check_batch_structure(m: &RunMetrics, label: &str) {
    let page_bytes = 65_536u64;
    let mut prev_end = 0;
    for b in &m.uvm.batches {
        assert!(b.start >= prev_end, "{label}: batch {} overlaps its predecessor", b.id);
        assert!(b.handling_done >= b.start, "{label}: handling precedes start");
        assert!(
            b.first_migration_start >= b.handling_done,
            "{label}: migration inside the handling window"
        );
        assert!(b.end >= b.first_migration_start, "{label}: batch ends before migrating");
        assert!(b.faults > 0, "{label}: batch {} serviced no faults", b.id);
        assert_eq!(
            b.migrated_bytes,
            u64::from(b.pages()) * page_bytes,
            "{label}: byte accounting"
        );
        prev_end = b.end;
    }
    // Aggregate identities.
    let pages: u64 = m.uvm.batches.iter().map(|b| u64::from(b.pages())).sum();
    assert_eq!(m.uvm.h2d_bytes, pages * page_bytes, "{label}: H2D bytes vs pages migrated");
    let prefetches: u64 = m.uvm.batches.iter().map(|b| u64::from(b.prefetches)).sum();
    assert_eq!(m.uvm.prefetches, prefetches, "{label}: prefetch accounting");
    let evictions: u64 = m.uvm.batches.iter().map(|b| u64::from(b.evictions)).sum();
    assert_eq!(m.uvm.evictions, evictions, "{label}: eviction accounting");
    assert!(m.uvm.premature_evictions <= m.uvm.evictions, "{label}: premature > total");
    if let Some(cap) = m.memory_pages {
        assert!(
            m.uvm.peak_resident_pages <= cap,
            "{label}: peak residency {} exceeds capacity {cap}",
            m.uvm.peak_resident_pages
        );
    }
}

#[test]
fn batch_structure_holds_across_policies() {
    for (label, policy) in [
        ("baseline", policies::baseline()),
        ("ue", policies::ue_only()),
        ("to", policies::to_only()),
        ("to_ue", policies::to_ue()),
        ("ideal", policies::ideal_eviction()),
        ("compression", policies::baseline_with_compression()),
    ] {
        let m = run("BFS-TTC", policy, 0.5);
        check_batch_structure(&m, label);
    }
}

#[test]
fn batch_structure_holds_across_workloads() {
    for name in ["BC", "BFS-DWC", "GC-TTC", "KCORE", "SSSP-TWC", "PR"] {
        let m = run(name, policies::to_ue(), 0.5);
        check_batch_structure(&m, name);
    }
}

#[test]
fn serialized_eviction_bytes_balance() {
    let m = run("PR", policies::baseline(), 0.5);
    // Every eviction moves one page D2H.
    assert_eq!(m.uvm.d2h_bytes, m.uvm.evictions * 65_536);
}

#[test]
fn faults_equal_walks_that_missed() {
    let m = run("BFS-TTC", policies::baseline(), 0.5);
    // Each MMU fault corresponds to a completed walk; walks >= faults.
    assert!(m.mmu.walks >= m.mmu.faults);
    assert!(m.mmu.faults > 0);
}

#[test]
fn root_chunk_eviction_granularity_runs() {
    use batmem_types::policy::EvictionGranularity;
    let mut config = SimConfig::default();
    config.policy.eviction_granularity = EvictionGranularity::RootChunk;
    let w = registry::build("PR", Arc::new(gen::rmat(12, 8, 21))).unwrap();
    let m = Simulation::builder().config(config).memory_ratio(0.5).try_run(w).unwrap();
    check_batch_structure(&m, "root-chunk");
    assert!(m.uvm.evictions > 0);
}

#[test]
fn tighter_memory_evicts_more() {
    let tight = run("PR", policies::baseline(), 0.3);
    let loose = run("PR", policies::baseline(), 0.8);
    assert!(tight.uvm.evictions > loose.uvm.evictions);
    assert!(tight.cycles > loose.cycles);
}

#[test]
fn handling_time_grows_with_faults_in_batch() {
    let m = run("BFS-TTC", policies::baseline(), 0.5);
    for b in &m.uvm.batches {
        let expected = 20_000 + 30 * u64::from(b.faults);
        assert_eq!(b.handling_done - b.start, expected, "batch {}", b.id);
    }
}
