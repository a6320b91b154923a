//! Quickstart: run one graph workload under memory oversubscription with
//! the paper's proposal (TO+UE) and print what happened.
//!
//! Usage: `cargo run --release --example quickstart`

use batmem::{policies, Simulation};
use batmem_graph::gen;
use batmem_workloads::registry;
use std::sync::Arc;

fn main() {
    // A power-law graph: 32k vertices, 512k edges (~4 MB of device data).
    let graph = Arc::new(gen::rmat(15, 16, 42));
    let workload = registry::build("BFS-TTC", Arc::clone(&graph)).expect("known workload");

    println!("graph: {:?}", graph);
    println!("workload: BFS-TTC, footprint {} KB", workload.footprint_bytes() / 1024);

    // GPU memory sized to half the footprint: demand paging must evict.
    let metrics = Simulation::builder()
        .policy(policies::to_ue())
        .memory_ratio(0.5)
        .try_run(workload)
        .expect("simulation failed");

    println!();
    println!(
        "executed {} kernels, {} blocks, {} warps",
        metrics.kernels, metrics.blocks_retired, metrics.warps_retired
    );
    println!("execution time: {} us", metrics.cycles / 1_000);
    println!("fault batches:  {}", metrics.uvm.num_batches());
    println!("  avg size:     {:.1} pages", metrics.uvm.avg_batch_pages());
    println!("  avg time:     {:.0} us", metrics.uvm.avg_processing_time() / 1_000.0);
    println!("faults raised:  {}", metrics.uvm.faults_raised);
    println!("prefetches:     {}", metrics.uvm.prefetches);
    println!(
        "evictions:      {} ({:.1}% premature)",
        metrics.uvm.evictions,
        metrics.uvm.premature_rate() * 100.0
    );
    println!("ctx switches:   {}", metrics.ctx_switches);
    println!("L1 TLB hit rate: {:.1}%", metrics.mmu.l1.hit_rate() * 100.0);
}
