//! Whole-run structural invariants over the batch records and counters.

use batmem::policies::{self, ConfigName, PolicySpec};
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
    m.uvm.validate(m.memory_pages, 65_536).unwrap_or_else(|e| panic!("{label}: {e}"));
    // Not a `validate` law: the adaptive throttle, the injector and
    // coalescing completion make the prefetcher's issue count differ from
    // what migrated. None of them runs here.
    let prefetches: u64 = m.uvm.batches.iter().map(|b| u64::from(b.prefetches)).sum();
    assert_eq!(m.uvm.prefetches, prefetches, "{label}: prefetch accounting");
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

/// With memory for the whole footprint nothing is ever evicted, under
/// every preset that sizes memory (UNLIMITED runs unsized).
#[test]
fn no_evictions_when_memory_holds_the_footprint() {
    for name in ["BFS-TTC", "PR"] {
        for &preset in ConfigName::all().iter().filter(|&&c| c != ConfigName::Unlimited) {
            let m = run(name, preset.spec(), 1.0);
            let label = format!("{name}/{}", preset.label());
            check_batch_structure(&m, &label);
            assert_eq!(m.uvm.evictions, 0, "{label}: evicted at memory ratio 1.0");
        }
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
        assert_eq!(b.handling_cycles(), expected, "batch {}", b.id);
    }
}
