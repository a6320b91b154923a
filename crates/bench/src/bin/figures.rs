//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p batmem-bench --release --bin figures -- all
//! cargo run -p batmem-bench --release --bin figures -- fig11
//! BATMEM_SCALE=16 cargo run -p batmem-bench --release --bin figures -- fig17
//! ```

use batmem::policies::PolicySpec;
use batmem::{PolicyAxis, PolicyDescriptor, PolicyRegistry};
use batmem_bench::figures;
use batmem_bench::runner::{run_one, suite_results, ConfigName, SuiteConfig};
use batmem_bench::sweep::{self, ArtifactStore, CellPolicy, PoolConfig, SweepPlan};
use batmem_graph::gen;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const USAGE: &str = "usage: figures -- <table1|fig1|fig3|fig5|fig8|fig11|fig12|fig13|fig14|fig15|fig16|fig17|fig18|ctxswitch|pe|all> ...
       figures -- --list-policies
       figures -- [--eviction <spec>] [--prefetch <spec>] [--oversubscription <spec>] [--coalesce <spec>]
                  [--fault-servicing <spec>] [--page-size <kb>] [--compression] [--inject <spec>]
                  [--workload <name>]...
       figures -- sweep [outdir] [--workers N] [--max-retries K] [--cell-timeout SECS] [--resume]
                  [--inject <spec>] [--coalesce <spec>] [--fault-servicing <spec>] [--workloads A,B]
                  [--configs BASELINE,TO+UE] [--scales 8,10] [--ratios 0.5] [--seeds 42]
custom runs: any policy flag switches to a single-run mode over the named
workloads (default BFS-TTC); specs are registry names, e.g. `--eviction
random:7 --prefetch tree:25` (see --list-policies); `--coalesce` takes
off|greedy[:pct]|splinter:on-evict and prints a TLB summary when enabled;
`--fault-servicing` takes cpu|gpu-driven[:occupancy] and prints a handler
summary when non-default; `--oversubscription adaptive[:window]` runs the
probe-driven closed-loop handler; `--page-size` takes a power-of-two KB
base page (default 64); `--inject` takes off|noisy[:seed]|lost[:seed[:every]]
sweep mode: fault-tolerant parallel sweep into a resumable artifact store
(default outdir `artifacts`); ctrl-C drains gracefully, `--resume` skips
completed cells
environment: BATMEM_SCALE (default 15, at most 31), BATMEM_EDGE_FACTOR (default 16, at least 1)";

/// Sweep-mode cancel flag, set by the SIGINT handler for a graceful drain.
static CANCEL: AtomicBool = AtomicBool::new(false);

/// Installs a SIGINT handler that only sets [`CANCEL`] — the pool notices,
/// finishes in-flight cells, abandons the queue, and flushes the store.
#[cfg(unix)]
fn install_sigint_handler() {
    extern "C" fn on_sigint(_sig: i32) {
        // Async-signal-safe: a single atomic store, nothing else.
        CANCEL.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    // SAFETY: `signal` is the C standard library's handler registration;
    // the handler is async-signal-safe (one atomic store, no allocation,
    // no locks).
    unsafe {
        signal(SIGINT, on_sigint);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

/// Env-var overrides are a binary concern: the library's
/// `SuiteConfig::default()` is pure (the paper's evaluation point), and
/// this entry point layers `BATMEM_SCALE` / `BATMEM_EDGE_FACTOR` on top.
/// A variable that is set but does not parse as a `u32`, a scale past
/// `gen::MAX_SCALE` or an edge factor of 0 (an edgeless graph runs no
/// work) exits 2 with usage instead of falling back silently.
fn suite_from_env() -> SuiteConfig {
    fn env_u32(name: &str) -> Option<u32> {
        let value = std::env::var_os(name)?;
        let parsed = value.to_str().and_then(|s| s.parse().ok());
        Some(parsed.unwrap_or_else(|| {
            eprintln!("{name}: cannot parse `{}`\n{USAGE}", value.to_string_lossy());
            std::process::exit(2);
        }))
    }
    let mut suite = SuiteConfig::paper();
    if let Some(scale) = env_u32("BATMEM_SCALE") {
        if scale > gen::MAX_SCALE {
            eprintln!(
                "BATMEM_SCALE: scale {scale} exceeds {}: R-MAT vertex ids are u32\n{USAGE}",
                gen::MAX_SCALE
            );
            std::process::exit(2);
        }
        suite = suite.with_scale(scale);
    }
    if let Some(ef) = env_u32("BATMEM_EDGE_FACTOR") {
        if ef == 0 {
            eprintln!("BATMEM_EDGE_FACTOR: edge factor 0 leaves the graph edgeless\n{USAGE}");
            std::process::exit(2);
        }
        suite = suite.with_edge_factor(ef);
    }
    suite
}

/// Removes `flag value` from `args`, returning the value.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} needs a value\n{USAGE}");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

/// Removes a bare `flag` from `args`, returning whether it was present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// Parses a comma-separated flag value into `T`s, exiting with usage on a
/// malformed element.
fn parse_csv_list<T: std::str::FromStr>(flag: &str, value: &str) -> Vec<T> {
    value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim().parse().unwrap_or_else(|_| {
                eprintln!("{flag}: cannot parse `{s}`\n{USAGE}");
                std::process::exit(2);
            })
        })
        .collect()
}

/// The sweep-service entry point: `figures -- sweep [outdir] [flags]`.
///
/// Builds a [`SweepPlan`] from the flags (defaulting to the historical
/// mini-sweep at the env-configured scale), runs it through the
/// fault-tolerant pool, and exits non-zero when cells were quarantined
/// (1) or the sweep was cancelled (130).
fn sweep_main(mut args: Vec<String>, suite: &SuiteConfig) -> ! {
    fn parse_one<T: std::str::FromStr>(flag: &str, value: &str) -> T {
        value.trim().parse().unwrap_or_else(|_| {
            eprintln!("{flag}: cannot parse `{value}`\n{USAGE}");
            std::process::exit(2);
        })
    }
    let mut pool =
        PoolConfig { progress_every: Some(Duration::from_secs(2)), ..PoolConfig::default() };
    if let Some(v) = take_flag(&mut args, "--workers") {
        pool.workers = parse_one::<usize>("--workers", &v).max(1);
    }
    if let Some(v) = take_flag(&mut args, "--max-retries") {
        pool.max_retries = parse_one("--max-retries", &v);
    }
    if let Some(v) = take_flag(&mut args, "--cell-timeout") {
        let secs: f64 = parse_one("--cell-timeout", &v);
        if secs <= 0.0 {
            eprintln!("--cell-timeout: must be positive seconds\n{USAGE}");
            std::process::exit(2);
        }
        pool.cell_timeout = Some(Duration::from_secs_f64(secs));
    }
    let resume = take_switch(&mut args, "--resume");

    // Plan axes: default is the historical mini-sweep at the suite's
    // (env-overridable) evaluation point.
    let mut plan = SweepPlan {
        scales: vec![suite.scale],
        edge_factors: vec![suite.edge_factor],
        ratios: vec![suite.ratio],
        seeds: vec![suite.seed],
        ..SweepPlan::default()
    };
    if let Some(v) = take_flag(&mut args, "--workloads") {
        plan.workloads = parse_csv_list("--workloads", &v);
    }
    if let Some(v) = take_flag(&mut args, "--configs") {
        plan.policies = v
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                CellPolicy::Preset(ConfigName::from_label(s.trim()).unwrap_or_else(|| {
                    let known: Vec<&str> = ConfigName::all().iter().map(|c| c.label()).collect();
                    eprintln!("--configs: unknown config `{s}` (known: {})", known.join(", "));
                    std::process::exit(2);
                }))
            })
            .collect();
    }
    if let Some(v) = take_flag(&mut args, "--scales") {
        plan.scales = parse_csv_list("--scales", &v);
    }
    if let Some(v) = take_flag(&mut args, "--ratios") {
        plan.ratios = parse_csv_list("--ratios", &v);
    }
    if let Some(v) = take_flag(&mut args, "--seeds") {
        plan.seeds = parse_csv_list("--seeds", &v);
    }
    if let Some(v) = take_flag(&mut args, "--inject") {
        plan.inject = Some(v);
    }
    if let Some(v) = take_flag(&mut args, "--coalesce") {
        plan.coalesce = Some(v);
    }
    if let Some(v) = take_flag(&mut args, "--fault-servicing") {
        plan.fault_servicing = Some(v);
    }
    if args.len() > 1 {
        eprintln!("sweep: unexpected arguments {args:?}\n{USAGE}");
        std::process::exit(2);
    }
    let outdir = args.pop().unwrap_or_else(|| "artifacts".to_string());

    let cells = match plan.cells() {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("sweep: invalid plan: {e}");
            std::process::exit(2);
        }
    };
    let store = match ArtifactStore::open(&outdir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("sweep: cannot open artifact store `{outdir}`: {e}");
            std::process::exit(1);
        }
    };
    // Refuse to silently mix plans: an existing store needs an explicit
    // `--resume` (or a fresh outdir).
    if store.has_cells() && !resume {
        eprintln!(
            "sweep: `{outdir}` already holds cell records; pass --resume to \
             continue that sweep or point at a fresh directory"
        );
        std::process::exit(2);
    }

    install_sigint_handler();
    eprintln!(
        "sweep: {} cells, {} workers, {} retries{}{} -> {}",
        cells.len(),
        pool.workers,
        pool.max_retries,
        pool.cell_timeout
            .map(|t| format!(", {:.0}s cell deadline", t.as_secs_f64()))
            .unwrap_or_default(),
        if resume { ", resuming" } else { "" },
        outdir,
    );
    let runner = sweep::cell_runner(suite.sim.clone());
    let report = match sweep::run_sweep(&cells, &store, &pool, &CANCEL, runner) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("sweep: store failure: {e}");
            std::process::exit(1);
        }
    };

    let failures = report.failures();
    eprintln!(
        "sweep: {} completed, {} quarantined, {} resumed, {} abandoned{}{}",
        report.completed(),
        failures.len(),
        report.resumed.len(),
        report.abandoned,
        if report.discarded > 0 {
            format!(", {} unreadable records discarded", report.discarded)
        } else {
            String::new()
        },
        if report.cancelled { " (cancelled: resume with --resume)" } else { "" },
    );
    for rec in &failures {
        eprintln!("sweep: quarantined {}", rec.report_line());
    }
    println!("sweep: artifacts in {outdir}");
    if report.cancelled {
        std::process::exit(130);
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Prints every policy, grouped by axis, with its spec syntax padded to the
/// longest spec so the summaries share one column.
fn list_policies() {
    let descriptors = PolicyRegistry.descriptors();
    let spec = |d: &PolicyDescriptor| format!("{}{}", d.name, d.params);
    let width = descriptors.iter().map(|d| spec(d).chars().count()).max().unwrap_or(0);
    println!("registered policies (spec syntax: name[:param...]):");
    let mut axis = None;
    for d in &descriptors {
        if axis != Some(d.axis) {
            axis = Some(d.axis);
            println!("  --{}", d.axis);
        }
        println!("    {:<width$} {}", spec(d), d.summary);
    }
}

/// Runs each workload once under the custom policy combination (plus an
/// optional fault-injection spec) and prints a one-line summary per run.
/// Exits non-zero if any run fails (e.g. an unknown spec name).
fn run_custom_combo(
    suite: &SuiteConfig,
    custom: &PolicySpec,
    inject: Option<&str>,
    workloads: &[String],
) {
    let policy = CellPolicy::Custom(custom.clone());
    let mut failed = false;
    for w in workloads {
        match run_one(w, &policy, inject, suite) {
            Ok(m) => {
                println!(
                    "custom: {w}/{custom} {} cycles, {} batches, {} evictions",
                    m.cycles,
                    m.uvm.num_batches(),
                    m.uvm.evictions,
                );
                // Coalescing runs get a translation summary; the line is
                // gated so plain runs keep their historical output.
                if !PolicySpec::is_default(PolicyAxis::Coalesce, &custom.coalesce) {
                    println!(
                        "custom: {w}/{custom} tlb: {} large hits, {} L1 hits, {} walks \
                         ({} large), {} coalesces, {} splinters",
                        m.mmu.large_hits(),
                        m.mmu.l1.hits,
                        m.mmu.walks,
                        m.mmu.large_walks,
                        m.mmu.coalesces,
                        m.mmu.splinters,
                    );
                }
                // Same gating for the fault-servicing summary: only a
                // non-default model prints (and only it charges the
                // handler-occupancy counters).
                if !PolicySpec::is_default(PolicyAxis::FaultServicing, &custom.fault_servicing) {
                    println!(
                        "custom: {w}/{custom} servicing: {} faults handled on-GPU, \
                         {} handler-occupancy cycles",
                        m.uvm.gpu_serviced_faults, m.uvm.handler_occupancy_cycles,
                    );
                }
            }
            Err(e) => {
                eprintln!("custom: {w}/{custom} failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-policies") {
        list_policies();
        return;
    }
    let suite = suite_from_env();
    // The sweep service has its own flag grammar — branch before the
    // custom-combo extraction below can misread `--workers` etc.
    if args.first().map(String::as_str) == Some("sweep") {
        sweep_main(args.split_off(1), &suite);
    }
    // Custom-combo flags: any policy flag switches from figure mode to a
    // single run per requested workload.
    let mut custom = PolicySpec::default();
    let mut custom_mode = false;
    let mut inject: Option<String> = None;
    let mut workloads: Vec<String> = Vec::new();
    if let Some(v) = take_flag(&mut args, "--eviction") {
        custom.eviction = v;
        custom_mode = true;
    }
    if let Some(v) = take_flag(&mut args, "--prefetch") {
        custom.prefetch = v;
        custom_mode = true;
    }
    if let Some(v) = take_flag(&mut args, "--oversubscription") {
        custom.oversubscription = v;
        custom_mode = true;
    }
    if let Some(v) = take_flag(&mut args, "--coalesce") {
        custom.coalesce = v;
        custom_mode = true;
    }
    if let Some(v) = take_flag(&mut args, "--fault-servicing") {
        custom.fault_servicing = v;
        custom_mode = true;
    }
    if let Some(v) = take_flag(&mut args, "--page-size") {
        custom.page_size_kb = Some(v.parse().unwrap_or_else(|_| {
            eprintln!("--page-size: cannot parse `{v}` as KB\n{USAGE}");
            std::process::exit(2);
        }));
        custom_mode = true;
    }
    if let Some(v) = take_flag(&mut args, "--inject") {
        inject = Some(v);
        custom_mode = true;
    }
    while let Some(v) = take_flag(&mut args, "--workload") {
        workloads.push(v);
        custom_mode = true;
    }
    if let Some(i) = args.iter().position(|a| a == "--compression") {
        args.remove(i);
        custom.compression = true;
        custom_mode = true;
    }
    if args.is_empty() && !custom_mode {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if custom_mode {
        if !args.is_empty() {
            eprintln!("cannot mix figure names with custom policy flags: {args:?}\n{USAGE}");
            std::process::exit(2);
        }
        if workloads.is_empty() {
            workloads.push("BFS-TTC".to_string());
        }
        println!(
            "suite: R-MAT scale {} (2^{} vertices, edge factor {}), oversubscription ratio {}",
            suite.scale, suite.scale, suite.edge_factor, suite.ratio
        );
        run_custom_combo(&suite, &custom, inject.as_deref(), &workloads);
        return;
    }
    println!(
        "suite: R-MAT scale {} (2^{} vertices, edge factor {}), oversubscription ratio {}",
        suite.scale, suite.scale, suite.edge_factor, suite.ratio
    );

    // Figures 8 and 11-16 share one set of simulation runs.
    let needs_suite = |a: &str| {
        matches!(a, "fig8" | "fig11" | "fig12" | "fig13" | "fig14" | "fig15" | "fig16" | "all")
    };
    let results = if args.iter().any(|a| needs_suite(a)) {
        let configs = ConfigName::all();
        eprintln!("running the shared suite ({} configs x 11 workloads)...", configs.len());
        Some(suite_results(configs, &suite))
    } else {
        None
    };

    for arg in &args {
        match arg.as_str() {
            "sweep" => {
                eprintln!("`sweep` must be the first argument\n{USAGE}");
                std::process::exit(2);
            }
            "table1" => figures::table1(&suite),
            "fig1" => figures::fig1(&suite),
            "fig3" => figures::fig3(&suite),
            "fig5" => figures::fig5(&suite),
            "fig8" => figures::fig8(results.as_ref().unwrap()),
            "fig11" => figures::fig11(results.as_ref().unwrap()),
            "fig12" => figures::fig12(results.as_ref().unwrap()),
            "fig13" => figures::fig13(results.as_ref().unwrap()),
            "fig14" => figures::fig14(results.as_ref().unwrap()),
            "fig15" => figures::fig15(results.as_ref().unwrap()),
            "fig16" => figures::fig16(results.as_ref().unwrap()),
            "fig17" => figures::fig17(&suite),
            "fig18" => figures::fig18(&suite),
            "ctxswitch" => figures::ctxswitch(&suite),
            "pe" => figures::pe_ablation(&suite),
            "all" => {
                let r = results.as_ref().unwrap();
                figures::table1(&suite);
                figures::fig1(&suite);
                figures::fig3(&suite);
                figures::fig5(&suite);
                figures::fig8(r);
                figures::fig11(r);
                figures::fig12(r);
                figures::fig13(r);
                figures::fig14(r);
                figures::fig15(r);
                figures::fig16(r);
                figures::fig17(&suite);
                figures::fig18(&suite);
                figures::ctxswitch(&suite);
                figures::pe_ablation(&suite);
            }
            other => {
                eprintln!("unknown figure `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
}
