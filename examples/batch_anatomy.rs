//! Prints the batch-by-batch timeline of a run — the textual analogue of
//! the paper's mechanism schematics (Figs. 2, 4, 7, 10): when each batch
//! began, how long the runtime fault handling took, when migrations
//! started, and how eviction policy changes the picture.
//!
//! Usage: `cargo run --release --example batch_anatomy [baseline|ue|ideal]`

use batmem::{policies, Simulation};
use batmem_graph::gen;
use batmem_workloads::registry;
use std::sync::Arc;

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "baseline".to_string());
    let policy = match mode.as_str() {
        "baseline" => policies::baseline(),
        "ue" => policies::ue_only(),
        "ideal" => policies::ideal_eviction(),
        other => panic!("unknown mode {other}; use baseline|ue|ideal"),
    };

    let graph = Arc::new(gen::rmat(14, 16, 7));
    let workload = registry::build("BFS-TTC", graph).expect("known workload");
    let metrics = Simulation::builder()
        .policy(policy)
        .memory_ratio(0.5)
        .try_run(workload)
        .expect("simulation failed");

    println!("eviction mode: {mode}");
    println!(
        "{:>5} {:>10} {:>9} {:>10} {:>10} {:>7} {:>5} {:>6} | gap to 1st transfer",
        "batch", "start(us)", "hndl(us)", "mig@(us)", "end(us)", "pages", "pf", "evict"
    );
    for b in metrics.uvm.batches.iter().take(30) {
        let gap = b.eviction_wait_cycles();
        let bar = "#".repeat(((gap / 2_000) as usize).min(40));
        println!(
            "{:>5} {:>10.1} {:>9.1} {:>10.1} {:>10.1} {:>7} {:>5} {:>6} | {}{}",
            b.id,
            b.start as f64 / 1e3,
            b.fault_handling_time() as f64 / 1e3,
            b.first_migration_start as f64 / 1e3,
            b.end as f64 / 1e3,
            b.faults,
            b.prefetches,
            b.evictions,
            bar,
            if gap == 0 { "(no eviction delay)" } else { "" },
        );
    }
    if metrics.uvm.batches.len() > 30 {
        println!("... {} more batches", metrics.uvm.batches.len() - 30);
    }
    println!();
    println!(
        "total {} batches, avg processing {:.0} us, avg handling {:.0} us ({:.0}% of batch)",
        metrics.uvm.num_batches(),
        metrics.uvm.avg_processing_time() / 1e3,
        metrics.uvm.avg_fault_handling_time() / 1e3,
        100.0 * metrics.uvm.avg_fault_handling_time() / metrics.uvm.avg_processing_time().max(1.0),
    );
    println!(
        "execution time {} us; D2H traffic {} KB",
        metrics.cycles / 1_000,
        metrics.uvm.d2h_bytes / 1024
    );
}
