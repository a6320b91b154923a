//! Smoke-test for the probe layer: runs a small oversubscribed BFS with a
//! `Tracer` attached, prints the batch-phase breakdown from the run's
//! statistics, and writes the machine-readable artifacts (`trace.jsonl`
//! from the tracer, `batches.csv` and `metrics.csv` from the run record)
//! to a directory.
//!
//! Usage: `cargo run --release --example probe_tracing [outdir]`
//! (no outdir: print a trace excerpt instead of writing files)

use batmem::probes::{MetricsRow, Tracer};
use batmem::{policies, Simulation};
use batmem_graph::gen;
use batmem_workloads::registry;
use std::path::Path;
use std::sync::Arc;

fn main() {
    let outdir = std::env::args().nth(1);

    let graph = Arc::new(gen::rmat(12, 8, 42));
    let workload = registry::build("BFS-TTC", graph).expect("known workload");

    let tracer = Tracer::bounded(64 * 1024);

    let metrics = Simulation::builder()
        .policy(policies::to_ue())
        .memory_ratio(0.5)
        .probe(tracer.clone())
        .try_run(workload)
        .expect("simulation failed");

    println!(
        "run: {} cycles, {} batches, {} events traced ({} dropped by the ring)",
        metrics.cycles,
        metrics.uvm.num_batches(),
        tracer.len(),
        tracer.dropped(),
    );

    let (handling, eviction_wait, migration) = metrics.uvm.phase_totals();
    println!(
        "phases: handling {} us, eviction wait {} us, migration {} us",
        handling / 1_000,
        eviction_wait / 1_000,
        migration / 1_000,
    );

    match outdir {
        Some(dir) => {
            let dir = Path::new(&dir);
            std::fs::create_dir_all(dir).expect("create output directory");
            tracer.write_jsonl(&dir.join("trace.jsonl")).expect("write trace.jsonl");
            std::fs::write(dir.join("batches.csv"), metrics.uvm.batches_csv())
                .expect("write batches.csv");
            let row = MetricsRow::from_run("BFS-TTC/to+ue", &metrics);
            std::fs::write(dir.join("metrics.csv"), MetricsRow::csv([&row]))
                .expect("write metrics.csv");
            println!("artifacts: {}", dir.display());
        }
        None => {
            println!("first 10 trace events:");
            for line in tracer.to_jsonl().lines().take(10) {
                println!("  {line}");
            }
        }
    }
}
