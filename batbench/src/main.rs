//! `batbench`: the host-time benchmark of the batmem simulator.
//!
//! ```text
//! batbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! batbench compare [--bench BENCHMARK.json] A.txt... vs B.txt...
//! ```
//!
//! A run measures one workload for `--seconds`, checks the simulated
//! outputs, prints every metric by name and unit, and ends its standard
//! output with one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics untraced, the per-layer metrics with
//! `--trace 1`). See `README.md` for the workloads and metrics.

mod alloc;
mod compare;
mod json;
mod run;
mod speed;
mod stats;
mod uvm;
mod wrap;

use run::{Kind, Measured, Raw};
use stats::median;
use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: batbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n       \
                     batbench compare [--bench BENCHMARK.json] A.txt... vs B.txt...";

struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts =
        Opts { workload: String::new(), seed: run::PINNED_SEED, seconds: 15, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a whole number"));
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()?.max(1),
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("batbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let benches = run::benches();
    let Some(bench) = benches.iter().find(|b| b.name == opts.workload) else {
        let names: Vec<&str> = benches.iter().map(|b| b.name).collect();
        eprintln!("batbench: unknown workload `{}` (known: {})", opts.workload, names.join(", "));
        return ExitCode::from(2);
    };
    let timer_ns = if opts.trace { wrap::timer_overhead_ns() } else { 0.0 };
    let m = match &bench.kind {
        Kind::Single(case, pin) => run::single(case, pin, opts.seed, opts.seconds, opts.trace),
        Kind::Sweep { scale, ratio, pinned_cycle_sum } => {
            run::suite(*scale, *ratio, *pinned_cycle_sum, opts.seed, opts.seconds, opts.trace)
        }
    };

    println!(
        "batbench {} seed={} seconds={} trace={}",
        bench.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("host {}", host_json(&opts, &m, timer_ns));
    let e2e = end_to_end(&m);
    let layers = m.layers.as_ref().map(|raw| per_layer(raw, &m, timer_ns)).unwrap_or_default();
    for (name, value, unit) in e2e.iter().chain(&layers) {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    if let (Some(run_s), Some(setup_s)) = (median(&m.unit_s), median(&m.setup.total_s)) {
        println!("  (unscaled: run_s {run_s:.6} s, setup_s {setup_s:.6} s)");
    }
    if let Some((p, v)) = stats::tail(&m.cell_s) {
        println!("  (run wall p{p} {v:.6} s over {} runs)", m.cell_s.len());
    }
    for p in &m.tally.problems {
        eprintln!("batbench: FAILED {p}");
    }
    let metrics = if opts.trace { layers } else { e2e };
    let correct = m.tally.failed == 0 && m.tally.attempted > 0 && !metrics.is_empty();
    let mut out = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(name),
            json::quote(unit)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{out}}}}}",
        m.tally.attempted.max(1),
        m.tally.failed,
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

type Metric = (String, f64, &'static str);

/// The host's speed relative to the reference over the whole process (see
/// [`speed`]).
fn speed_scale(m: &Measured) -> Option<f64> {
    median(&m.speed_s).map(|s| speed::REFERENCE_S / s)
}

/// The end-to-end metrics, times scaled to the reference host speed: each
/// timed unit by the speed taken just before it, the set-ups by that of
/// the whole process. Empty when no timed unit succeeded.
fn end_to_end(m: &Measured) -> Vec<Metric> {
    let scaled: Vec<f64> =
        m.unit_s.iter().zip(&m.unit_speed_s).map(|(u, s)| u * speed::REFERENCE_S / s).collect();
    let (Some(run_s), Some(setup_s), Some(mem), Some(scale)) =
        (median(&scaled), median(&m.setup.total_s), median(&m.unit_mem_mb), speed_scale(m))
    else {
        return Vec::new();
    };
    vec![
        ("run_s".into(), run_s, "s"),
        ("mem_ops_per_s".into(), m.mem_ops as f64 / run_s, "1/s"),
        ("setup_s".into(), setup_s * scale, "s"),
        ("run_mem_mb".into(), mem, "MB"),
    ]
}

/// The per-layer metrics from a traced measurement's raw sums.
fn per_layer(raw: &Raw, m: &Measured, timer_ns: f64) -> Vec<Metric> {
    let get = |k: &str| raw.get(k).copied().unwrap_or(0.0);
    // Each timed call paid one timer read; take that back out.
    let timed_s = |ns: &str, calls: &str| ((get(ns) - timer_ns * get(calls)) / 1e9).max(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let kernel_s = timed_s("kernel_ns", "kernels");
    let stream_s = timed_s("stream_ns", "streams");
    let next_op_s = get("next_op_ns") / 1e9;
    let mempath_s = get("mempath_ns") / 1e9;
    let translate_s = get("translate_ns") / 1e9;
    let mut out: Vec<Metric> = vec![
        ("graph.gen_s".into(), median(&m.setup.gen_s).unwrap_or(0.0), "s"),
        ("workloads.build_s".into(), median(&m.setup.build_s).unwrap_or(0.0), "s"),
        ("workloads.kernel_s".into(), kernel_s, "s"),
        ("workloads.stream_s".into(), stream_s, "s"),
        ("workloads.streams".into(), get("streams"), "count"),
        ("workloads.stream_us".into(), ratio(stream_s * 1e6, get("streams")), "us"),
        ("workloads.next_op_s".into(), next_op_s, "s"),
        ("workloads.ops".into(), get("ops"), "count"),
        ("workloads.mem_txns".into(), get("mem_txns"), "count"),
        ("sim-core.mempath_s".into(), mempath_s, "s"),
        ("sim-core.mempath_ns".into(), ratio(get("mempath_ns"), get("accesses")), "ns"),
        ("sim-core.accesses".into(), get("accesses"), "count"),
        ("sim-core.l1d_hit_rate".into(), ratio(get("l1d_hits"), get("accesses")), "ratio"),
        ("sim-core.l2d_hit_rate".into(), ratio(get("l2d_hits"), get("l2d_accesses")), "ratio"),
        ("vmem.translate_s".into(), translate_s, "s"),
        ("vmem.translate_ns".into(), ratio(get("translate_ns"), get("translates")), "ns"),
        ("vmem.translates".into(), get("translates"), "count"),
        ("vmem.l1_tlb_hit_rate".into(), ratio(get("l1_tlb_hits"), get("l1_tlb_lookups")), "ratio"),
        ("vmem.walks".into(), get("walks"), "count"),
    ];
    let mut uvm_s = 0.0;
    for stage in uvm::Stage::ALL {
        let s = get(&format!("uvm_{}_ns", stage.stem())) / 1e9;
        uvm_s += s;
        out.push((format!("uvm.{}_s", stage.stem()), s, "s"));
        out.push((
            format!("uvm.{}s", stage.stem()),
            get(&format!("uvm_{}s", stage.stem())),
            "count",
        ));
    }
    for key in ["faults", "batches", "evictions", "premature", "replay_batches"] {
        out.push((format!("uvm.{key}"), get(key), "count"));
    }
    let untraced_s = get("untraced_s");
    let residual = untraced_s - kernel_s - stream_s - next_op_s - mempath_s - translate_s - uvm_s;
    out.extend([
        ("core.residual_s".into(), residual, "s"),
        ("core.trace_overhead".into(), ratio(get("traced_s"), untraced_s) - 1.0, "ratio"),
        ("core.sim_cycles".into(), get("sim_cycles"), "cycles"),
        ("core.mem_ops".into(), get("mem_ops"), "count"),
        ("core.ctx_switches".into(), get("ctx_switches"), "count"),
    ]);
    for kind in run::EVENT_KINDS {
        out.push((format!("core.events.{kind}"), get(kind), "count"));
    }
    let busy: f64 = m.cell_s.iter().sum();
    out.extend([
        ("bench.cells".into(), m.cell_s.len() as f64, "count"),
        ("bench.cell_s_p50".into(), median(&m.cell_s).unwrap_or(0.0), "s"),
        ("bench.pool_efficiency".into(), ratio(busy, m.workers as f64 * m.loop_s), "ratio"),
    ]);
    out
}

/// Where and how the result was taken.
fn host_json(opts: &Opts, m: &Measured, timer_ns: f64) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |p| p.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
            .unwrap_or_default();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"available_parallelism\": {cores}, \
         \"workers\": {}, \"kernel\": {}, \"rustc\": {}, \"git_rev\": {}, \"units\": {}, \"runs\": {}, \
         \"setups\": {}, \"timer_ns\": {timer_ns}, \"host_speed\": {}}}",
        json::quote(&opts.workload),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        m.workers,
        json::quote(kernel.trim()),
        json::quote(rustc.trim()),
        json::quote(&git_rev().unwrap_or_else(|| "none".into())),
        m.unit_s.len(),
        m.cell_s.len(),
        m.setup.total_s.len(),
        speed_scale(m).unwrap_or(0.0),
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// (a checkout without one reports `none`).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
}
