//! Compares every policy of Fig. 11 on one workload.
//!
//! Usage: `cargo run --release --example policy_comparison [WORKLOAD] [RATIO]`
//! (defaults: BFS-TTC at a 0.5 oversubscription ratio).

use batmem::policies::{self, PolicySpec};
use batmem::{RunMetrics, Simulation};
use batmem_graph::gen;
use batmem_workloads::registry;
use std::sync::Arc;

fn run(name: &str, ratio: f64, policy: PolicySpec, graph: &Arc<batmem_graph::Csr>) -> RunMetrics {
    let workload = registry::build(name, Arc::clone(graph)).expect("known workload");
    Simulation::builder()
        .policy(policy)
        .memory_ratio(ratio)
        .try_run(workload)
        .expect("simulation failed")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map_or("BFS-TTC", String::as_str);
    let ratio: f64 = args.get(2).map_or(0.5, |s| s.parse().expect("ratio is a number"));
    let scale: u32 = args.get(3).map_or(16, |s| s.parse().expect("scale"));
    let graph = Arc::new(gen::rmat(scale, 16, 42));

    println!("workload {name}, memory ratio {ratio}, graph: {:?}", graph);
    let baseline = run(name, ratio, policies::baseline(), &graph);
    let configs: Vec<(&str, RunMetrics)> = vec![
        ("BASELINE", baseline.clone()),
        ("BASELINE+PCIeComp", run(name, ratio, policies::baseline_with_compression(), &graph)),
        ("TO", run(name, ratio, policies::to_only(), &graph)),
        ("UE", run(name, ratio, policies::ue_only(), &graph)),
        ("TO+UE", run(name, ratio, policies::to_ue(), &graph)),
        ("ETC", run(name, ratio, policies::etc(), &graph)),
        ("IDEAL-EVICT", run(name, ratio, policies::ideal_eviction(), &graph)),
    ];

    println!(
        "{:<18} {:>12} {:>8} {:>9} {:>10} {:>10} {:>9} {:>8}",
        "config", "cycles", "speedup", "batches", "avg pages", "avg btime", "premature", "ctxsw"
    );
    for (label, m) in &configs {
        println!(
            "{:<18} {:>12} {:>8.2} {:>9} {:>10.1} {:>10.0} {:>8.1}% {:>8}",
            label,
            m.cycles,
            m.speedup_over(baseline_ref(&configs)),
            m.uvm.num_batches(),
            m.uvm.avg_batch_pages(),
            m.uvm.avg_processing_time(),
            m.uvm.premature_rate() * 100.0,
            m.ctx_switches,
        );
    }
}

fn baseline_ref<'a>(configs: &'a [(&str, RunMetrics)]) -> &'a RunMetrics {
    &configs[0].1
}
