//! Cross-policy behavioural checks: the paper's qualitative claims must
//! hold on the simulator.

use batmem::policies::{self, PolicySpec};
use batmem::{RunMetrics, Simulation};
use batmem_graph::gen;
use batmem_workloads::registry;
use std::sync::Arc;

fn graph() -> Arc<batmem_graph::Csr> {
    // The evaluation suite's default input (scale 15): large enough for
    // the oversubscribed regime the paper evaluates; the qualitative
    // assertions below are scale-sensitive and verified at this size.
    Arc::new(gen::rmat(15, 16, 42))
}

fn run(name: &str, policy: PolicySpec, ratio: f64) -> RunMetrics {
    let w = registry::build(name, graph()).unwrap();
    Simulation::builder().policy(policy).memory_ratio(ratio).try_run(w).unwrap()
}

#[test]
fn to_ue_beats_baseline_under_oversubscription() {
    // The headline claim (Fig. 11): the combined proposal outperforms the
    // prefetching baseline.
    for name in ["BFS-TTC", "PR"] {
        let base = run(name, policies::baseline(), 0.5);
        let to_ue = run(name, policies::to_ue(), 0.5);
        let speedup = to_ue.speedup_over(&base);
        assert!(speedup > 1.1, "{name}: TO+UE speedup only {speedup:.2}");
    }
}

#[test]
fn ue_alone_beats_baseline() {
    let base = run("BFS-TTC", policies::baseline(), 0.5);
    let ue = run("BFS-TTC", policies::ue_only(), 0.5);
    assert!(ue.speedup_over(&base) > 1.05, "UE speedup {:.2}", ue.speedup_over(&base));
    // UE moves evictions onto the D2H pipe concurrently with migrations;
    // the average batch processing time must drop (Fig. 14).
    assert!(ue.uvm.avg_processing_time() < base.uvm.avg_processing_time());
    assert!(ue.uvm.preemptive_evictions > 0, "UE never used the top-half path");
}

#[test]
fn ideal_eviction_beats_baseline() {
    // Fig. 8: removing eviction latency recovers performance.
    let base = run("BFS-TTC", policies::baseline(), 0.5);
    let ideal = run("BFS-TTC", policies::ideal_eviction(), 0.5);
    assert!(ideal.speedup_over(&base) > 1.0);
    assert_eq!(ideal.uvm.d2h_bytes, 0, "ideal eviction must not move data");
}

#[test]
fn to_increases_batch_size_and_reduces_batch_count() {
    // Figs. 12 & 13.
    let base = run("PR", policies::baseline(), 0.5);
    let to = run("PR", policies::to_only(), 0.5);
    assert!(to.ctx_switches > 0, "TO never context switched");
    assert!(
        to.uvm.num_batches() < base.uvm.num_batches(),
        "batches: TO {} vs baseline {}",
        to.uvm.num_batches(),
        base.uvm.num_batches()
    );
    assert!(
        to.uvm.avg_batch_pages() > base.uvm.avg_batch_pages(),
        "batch size: TO {:.1} vs baseline {:.1}",
        to.uvm.avg_batch_pages(),
        base.uvm.avg_batch_pages()
    );
}

#[test]
fn to_is_harmless_when_memory_fits() {
    // When everything fits, faults only occur during cold start, so TO's
    // fault-stall trigger may fire a handful of switches there — but the
    // steady state has no fault stalls and performance must stay within a
    // few percent of baseline (unlike the AnyStall policy of Fig. 5).
    let base = run("BFS-TTC", policies::baseline(), 1.0);
    let to = run("BFS-TTC", policies::to_only(), 1.0);
    let ratio = to.cycles as f64 / base.cycles as f64;
    assert!(ratio < 1.1, "TO cost {ratio:.3}x with memory fitting");
}

#[test]
fn traditional_gpu_context_switching_hurts() {
    // Fig. 5: with memory fitting on-device, provisioning an extra block
    // per SM via context switching on any stall only degrades performance.
    let base = run("BFS-TTC", policies::baseline(), 1.0);
    let any_stall_to = PolicySpec { oversubscription: "to:any".into(), ..policies::baseline() };
    let any_stall = run("BFS-TTC", any_stall_to, 1.0);
    assert!(any_stall.ctx_switches > 0, "AnyStall trigger never fired");
    assert!(
        any_stall.cycles > base.cycles,
        "context switching should hurt when memory fits: {} vs {}",
        any_stall.cycles,
        base.cycles
    );
}

#[test]
fn compression_baseline_beats_plain_baseline() {
    let base = run("BFS-TTC", policies::baseline(), 0.5);
    let comp = run("BFS-TTC", policies::baseline_with_compression(), 0.5);
    assert!(comp.speedup_over(&base) > 1.0);
}

#[test]
fn prefetching_reduces_faults() {
    let with = run("PR", policies::baseline(), 1.0);
    let without = run("PR", PolicySpec { prefetch: "none".into(), ..policies::baseline() }, 1.0);
    assert!(with.uvm.prefetches > 0);
    let faults_with: u64 = with.uvm.batches.iter().map(|b| u64::from(b.faults)).sum();
    let faults_without: u64 = without.uvm.batches.iter().map(|b| u64::from(b.faults)).sum();
    assert!(
        faults_with < faults_without,
        "prefetching should absorb faults: {faults_with} vs {faults_without}"
    );
}

#[test]
fn etc_runs_and_uses_compression_capacity() {
    let base = run("BFS-TTC", policies::baseline(), 0.5);
    let m = run("BFS-TTC", policies::etc(), 0.5);
    // CC inflates effective capacity over the plain baseline.
    assert!(m.memory_pages.unwrap() > base.memory_pages.unwrap());
    assert!(m.cycles > 0);
}

#[test]
fn sensitivity_fault_handling_time_monotone() {
    // Fig. 18's premise: a costlier runtime makes demand paging slower.
    let mut cheap_cfg = batmem::SimConfig::default();
    cheap_cfg.uvm.fault_handling_base = 20_000;
    let mut costly_cfg = batmem::SimConfig::default();
    costly_cfg.uvm.fault_handling_base = 50_000;
    let cheap = Simulation::builder()
        .config(cheap_cfg)
        .memory_ratio(0.5)
        .try_run(registry::build("BFS-TTC", graph()).unwrap())
        .unwrap();
    let costly = Simulation::builder()
        .config(costly_cfg)
        .memory_ratio(0.5)
        .try_run(registry::build("BFS-TTC", graph()).unwrap())
        .unwrap();
    assert!(costly.cycles > cheap.cycles);
}
