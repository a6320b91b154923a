//! Per-figure printers: each regenerates the rows/series of one table or
//! figure from the paper's evaluation.
//!
//! Every printer that simulates gets its runs from one (variant ×
//! workload) grid, which reports a failed run once and leaves it out;
//! rows and geometric means cover the runs that completed, so one bad run
//! never aborts a figure.

use crate::runner::{geomean, parallel_map, run_grid, ConfigName, SuiteConfig, SuiteResults};
use crate::sweep::CellPolicy;
use batmem::experiments::working_set_curve;
use batmem::policies::PolicySpec;
use batmem_types::time::us;
use batmem_workloads::registry;
use batmem_workloads::regular::TiledRegular;

/// The traversal-dominated subset Figs. 17 and 18 sweep; the coloring
/// pair's extreme thrash regime makes low ratios prohibitively slow to
/// simulate without changing the trend.
const SENSITIVITY_WORKLOADS: &[&str] = &["BC", "BFS-DWC", "BFS-TTC", "BFS-TWC", "SSSP-TWC", "PR"];

fn header(id: &str, caption: &str) {
    println!();
    println!("==== {id}: {caption} ====");
}

/// `BASELINE` with its oversubscription axis replaced by `spec`.
fn oversubscribed(spec: &str) -> CellPolicy {
    CellPolicy::Custom(PolicySpec { oversubscription: spec.into(), ..PolicySpec::default() })
}

/// Table 1: the simulated system configuration.
pub fn table1(suite: &SuiteConfig) {
    header("Table 1", "Configuration of the simulated system");
    println!("{}", suite.sim.table1());
}

/// Fig. 1: working-set size vs. active GPU core count, regular (top) vs.
/// irregular (bottom) workloads.
pub fn fig1(suite: &SuiteConfig) {
    header("Fig. 1", "Working set vs. number of active GPU cores (SMs)");
    let gpu = suite.sim.gpu.clone();

    println!("-- regular workloads (working set shrinks with core throttling) --");
    print!("{:<10}", "workload");
    for n in 1..=16 {
        print!(" {n:>5}");
    }
    println!();
    let regulars = TiledRegular::suite(1 << (suite.scale + 4));
    let reg_curves = parallel_map(regulars, |w| {
        (batmem_sim::ops::Workload::name(w), working_set_curve(w, 16, &gpu))
    });
    for (name, curve) in &reg_curves {
        print!("{name:<10}");
        for v in curve {
            print!(" {:>4.0}%", v * 100.0);
        }
        println!();
    }

    println!("-- irregular workloads (working set shared across cores) --");
    let jobs: Vec<&str> = registry::irregular_names().to_vec();
    let irr_curves = parallel_map(jobs, |name| {
        registry::build(name, suite.input(name))
            .map(|w| (*name, working_set_curve(w.as_ref(), 16, &gpu)))
    });
    for entry in &irr_curves {
        let Some((name, curve)) = entry else { continue };
        print!("{name:<10}");
        for v in curve {
            print!(" {:>4.0}%", v * 100.0);
        }
        println!();
    }
}

/// Fig. 3: per-page fault handling time vs. batch size for BFS.
pub fn fig3(suite: &SuiteConfig) {
    header("Fig. 3", "Per-page fault handling time (us) vs. batch size (BFS)");
    let baseline = ConfigName::Baseline;
    let variants = [(baseline, suite.clone(), CellPolicy::Preset(baseline))];
    let runs = run_grid("Fig. 3", &variants, &["BFS-TTC"]);
    if runs.complete(&[baseline]).is_empty() {
        return;
    }
    let m = runs.get("BFS-TTC", baseline);
    // Bucket batches by size and report the mean per-page time per bucket.
    let bucket_pages = 4u32;
    let mut sums: Vec<(f64, u64)> = Vec::new();
    for b in &m.uvm.batches {
        let Some(t) = b.per_page_time() else { continue };
        let idx = (b.pages() / bucket_pages) as usize;
        if sums.len() <= idx {
            sums.resize(idx + 1, (0.0, 0));
        }
        sums[idx].0 += t;
        sums[idx].1 += 1;
    }
    println!("{:>14} {:>10} {:>22}", "batch size", "batches", "per-page time (us)");
    for (i, (sum, n)) in sums.iter().enumerate() {
        if *n == 0 {
            continue;
        }
        let pages = (i as u32 + 1) * bucket_pages;
        let kb = u64::from(pages) * 64;
        println!("{:>11} KB {:>10} {:>22.1}", kb, n, sum / *n as f64 / 1_000.0);
    }
    println!("(per-page cost amortizes as batches grow; compare the paper's hyperbola)");
}

/// Fig. 5: performance degradation from +1 block/SM with context switching
/// on a traditional GPU (no demand paging).
pub fn fig5(suite: &SuiteConfig) {
    header(
        "Fig. 5",
        "Relative performance when an extra block per SM requires context switching (memory fits)",
    );
    let fits = suite.clone().with_ratio(1.0);
    let variants = [
        ("BASELINE", fits.clone(), CellPolicy::Preset(ConfigName::Baseline)),
        ("to:any", fits, oversubscribed("to:any")),
    ];
    let runs = run_grid("Fig. 5", &variants, registry::irregular_names());
    let ws = runs.complete(&["BASELINE", "to:any"]);
    let rel = |w: &str| runs.get(w, "BASELINE").cycles as f64 / runs.get(w, "to:any").cycles as f64;
    println!("{:<10} {:>14} {:>12}", "workload", "rel. perf", "ctx switches");
    for name in &ws {
        println!("{name:<10} {:>14.2} {:>12}", rel(name), runs.get(name, "to:any").ctx_switches);
    }
    println!("{:<10} {:>14.2}", "GEOMEAN", geomean(ws.iter().map(|w| rel(w))));
    println!("(the paper reports an average 0.51x: switching hurts when memory fits)");
}

/// Fig. 8: 50% oversubscription vs. unlimited memory, and the ideal-eviction
/// limit.
pub fn fig8(results: &SuiteResults) {
    header("Fig. 8", "Performance at 50% memory vs. unlimited, with ideal eviction");
    let ws =
        results.complete(&[ConfigName::Unlimited, ConfigName::Baseline, ConfigName::IdealEviction]);
    println!("{:<10} {:>10} {:>14}", "workload", "BASELINE", "IDEAL-EVICT");
    for name in &ws {
        let unlimited = results.get(name, ConfigName::Unlimited).cycles as f64;
        let base = unlimited / results.get(name, ConfigName::Baseline).cycles as f64;
        let ideal = unlimited / results.get(name, ConfigName::IdealEviction).cycles as f64;
        println!("{name:<10} {base:>10.2} {ideal:>14.2}");
    }
    let gb = geomean(ws.iter().map(|w| {
        results.get(w, ConfigName::Unlimited).cycles as f64
            / results.get(w, ConfigName::Baseline).cycles as f64
    }));
    let gi = geomean(ws.iter().map(|w| {
        results.get(w, ConfigName::Unlimited).cycles as f64
            / results.get(w, ConfigName::IdealEviction).cycles as f64
    }));
    println!("{:<10} {gb:>10.2} {gi:>14.2}", "GEOMEAN");
}

/// Fig. 11: the headline speedup comparison.
pub fn fig11(results: &SuiteResults) {
    header("Fig. 11", "Speedup over BASELINE (with state-of-the-art prefetching)");
    let configs = [
        ConfigName::Baseline,
        ConfigName::BaselineCompressed,
        ConfigName::To,
        ConfigName::Ue,
        ConfigName::ToUe,
        ConfigName::Etc,
    ];
    let ws = results.complete(&configs);
    print!("{:<10}", "workload");
    for c in configs {
        print!(" {:>14}", c.label());
    }
    println!();
    for name in &ws {
        let base = results.get(name, ConfigName::Baseline).cycles as f64;
        print!("{name:<10}");
        for c in configs {
            print!(" {:>14.2}", base / results.get(name, c).cycles as f64);
        }
        println!();
    }
    print!("{:<10}", "GEOMEAN");
    for c in configs {
        let g = geomean(ws.iter().map(|w| {
            results.get(w, ConfigName::Baseline).cycles as f64 / results.get(w, c).cycles as f64
        }));
        print!(" {g:>14.2}");
    }
    println!();
}

/// Fig. 12: total number of batches, baseline vs. TO.
pub fn fig12(results: &SuiteResults) {
    header("Fig. 12", "Total number of batches (relative to BASELINE)");
    let ws = results.complete(&[ConfigName::Baseline, ConfigName::To]);
    println!("{:<10} {:>10} {:>10} {:>10}", "workload", "BASELINE", "TO", "relative");
    for name in &ws {
        let b = results.get(name, ConfigName::Baseline).uvm.num_batches();
        let t = results.get(name, ConfigName::To).uvm.num_batches();
        println!("{name:<10} {b:>10} {t:>10} {:>9.0}%", t as f64 / b as f64 * 100.0);
    }
    let g = geomean(ws.iter().map(|w| {
        results.get(w, ConfigName::To).uvm.num_batches() as f64
            / results.get(w, ConfigName::Baseline).uvm.num_batches() as f64
    }));
    println!("{:<10} {:>32.0}%", "GEOMEAN", g * 100.0);
}

/// Fig. 13: average batch sizes, baseline vs. TO.
pub fn fig13(results: &SuiteResults) {
    header("Fig. 13", "Average batch size (relative to BASELINE)");
    let ws = results.complete(&[ConfigName::Baseline, ConfigName::To]);
    println!("{:<10} {:>12} {:>12} {:>10}", "workload", "BASE pages", "TO pages", "relative");
    for name in &ws {
        let b = results.get(name, ConfigName::Baseline).uvm.avg_batch_pages();
        let t = results.get(name, ConfigName::To).uvm.avg_batch_pages();
        println!("{name:<10} {b:>12.1} {t:>12.1} {:>9.0}%", t / b * 100.0);
    }
    let g = geomean(ws.iter().map(|w| {
        results.get(w, ConfigName::To).uvm.avg_batch_pages()
            / results.get(w, ConfigName::Baseline).uvm.avg_batch_pages()
    }));
    println!("{:<10} {:>36.0}%", "GEOMEAN", g * 100.0);
}

/// Fig. 14: average batch processing time: baseline, TO, TO+UE.
pub fn fig14(results: &SuiteResults) {
    header("Fig. 14", "Average batch processing time, normalized to BASELINE");
    let ws = results.complete(&[ConfigName::Baseline, ConfigName::To, ConfigName::ToUe]);
    println!("{:<10} {:>10} {:>10} {:>10}", "workload", "BASELINE", "TO", "TO+UE");
    for name in &ws {
        let b = results.get(name, ConfigName::Baseline).uvm.avg_processing_time();
        let t = results.get(name, ConfigName::To).uvm.avg_processing_time();
        let tu = results.get(name, ConfigName::ToUe).uvm.avg_processing_time();
        println!("{name:<10} {:>10.2} {:>10.2} {:>10.2}", 1.0, t / b, tu / b);
    }
    let gt = geomean(ws.iter().map(|w| {
        results.get(w, ConfigName::To).uvm.avg_processing_time()
            / results.get(w, ConfigName::Baseline).uvm.avg_processing_time()
    }));
    let gtu = geomean(ws.iter().map(|w| {
        results.get(w, ConfigName::ToUe).uvm.avg_processing_time()
            / results.get(w, ConfigName::Baseline).uvm.avg_processing_time()
    }));
    println!("{:<10} {:>10.2} {gt:>10.2} {gtu:>10.2}", "GEOMEAN", 1.0);
}

/// Fig. 15: premature eviction comparison, baseline vs. TO.
pub fn fig15(results: &SuiteResults) {
    header("Fig. 15", "Premature eviction rate");
    let ws = results.complete(&[ConfigName::Baseline, ConfigName::To]);
    println!("{:<10} {:>10} {:>10}", "workload", "BASELINE", "TO");
    for name in &ws {
        let b = results.get(name, ConfigName::Baseline).uvm.premature_rate();
        let t = results.get(name, ConfigName::To).uvm.premature_rate();
        println!("{name:<10} {:>9.1}% {:>9.1}%", b * 100.0, t * 100.0);
    }
}

/// Fig. 16: batch-size distribution (baseline vs. TO) and per-size
/// efficiency.
pub fn fig16(results: &SuiteResults) {
    header("Fig. 16", "Batch size distribution and efficiency");
    let ws = results.complete(&[ConfigName::Baseline, ConfigName::To]);
    let bucket = 1024 * 1024; // 1 MB buckets (the paper uses 5 MB at full scale)
    let mut base_hist: Vec<u64> = Vec::new();
    let mut to_hist: Vec<u64> = Vec::new();
    let mut eff: Vec<(f64, u64)> = Vec::new();
    for name in &ws {
        for (hist, cfg) in [(&mut base_hist, ConfigName::Baseline), (&mut to_hist, ConfigName::To)]
        {
            for b in &results.get(name, cfg).uvm.batches {
                let idx = (b.migrated_bytes / bucket) as usize;
                if hist.len() <= idx {
                    hist.resize(idx + 1, 0);
                }
                hist[idx] += 1;
                if eff.len() <= idx {
                    eff.resize(idx + 1, (0.0, 0));
                }
                if let Some(t) = b.per_page_time() {
                    eff[idx].0 += t;
                    eff[idx].1 += 1;
                }
            }
        }
    }
    let base_total: u64 = base_hist.iter().sum::<u64>().max(1);
    let to_total: u64 = to_hist.iter().sum::<u64>().max(1);
    let best_eff = eff
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(s, n)| *n as f64 / s) // batches per us: higher = better
        .fold(f64::MIN, f64::max);
    println!("{:>10} {:>10} {:>10} {:>12}", "size <=", "BASELINE", "TO", "efficiency");
    for i in 0..base_hist.len().max(to_hist.len()) {
        let b = base_hist.get(i).copied().unwrap_or(0);
        let t = to_hist.get(i).copied().unwrap_or(0);
        let e = eff.get(i).filter(|(_, n)| *n > 0).map(|(s, n)| (*n as f64 / s) / best_eff * 100.0);
        println!(
            "{:>8}MB {:>9.1}% {:>9.1}% {:>11}",
            i + 1,
            b as f64 / base_total as f64 * 100.0,
            t as f64 / to_total as f64 * 100.0,
            e.map_or("-".to_string(), |v| format!("{v:.0}%")),
        );
    }
    println!("(TO shifts mass toward bigger batches; bigger batches are more efficient)");
}

/// Fig. 17: sensitivity to the memory oversubscription ratio.
pub fn fig17(suite: &SuiteConfig) {
    header("Fig. 17", "Sensitivity to oversubscription ratio (geomean over sweep subset)");
    let ratios = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    let variants: Vec<_> = ratios
        .iter()
        .flat_map(|&r| {
            [ConfigName::Baseline, ConfigName::Ue]
                .map(|c| ((r, c), suite.clone().with_ratio(r), CellPolicy::Preset(c)))
        })
        .collect();
    let runs = run_grid("Fig. 17", &variants, SENSITIVITY_WORKLOADS);
    let ratio_of = |a, b| {
        geomean(
            runs.complete(&[a, b])
                .iter()
                .map(|w| runs.get(w, a).cycles as f64 / runs.get(w, b).cycles as f64),
        )
    };
    println!("{:>6} {:>16} {:>12}", "ratio", "rel. exec time", "UE speedup");
    for &r in &ratios {
        let base = (r, ConfigName::Baseline);
        let rel = ratio_of(base, (1.0, ConfigName::Baseline));
        let ue = ratio_of(base, (r, ConfigName::Ue));
        println!("{r:>6.1} {rel:>16.2} {ue:>12.2}");
    }
    println!("(exec time grows as memory shrinks; UE's benefit grows with eviction pressure)");
}

/// Fig. 18: sensitivity to the GPU runtime fault handling time.
pub fn fig18(suite: &SuiteConfig) {
    header("Fig. 18", "TO+UE speedup vs. GPU runtime fault handling time");
    let handling = [20u64, 30, 40, 50];
    let variants: Vec<_> = handling
        .iter()
        .flat_map(|&h| {
            let mut s = suite.clone();
            s.sim.uvm.fault_handling_base = us(h);
            [ConfigName::Baseline, ConfigName::ToUe]
                .map(|c| ((h, c), s.clone(), CellPolicy::Preset(c)))
        })
        .collect();
    let runs = run_grid("Fig. 18", &variants, SENSITIVITY_WORKLOADS);
    println!("{:>12} {:>10}", "handling", "speedup");
    for &h in &handling {
        let (base, to_ue) = ((h, ConfigName::Baseline), (h, ConfigName::ToUe));
        let sp = geomean(
            runs.complete(&[base, to_ue])
                .iter()
                .map(|w| runs.get(w, base).cycles as f64 / runs.get(w, to_ue).cycles as f64),
        );
        println!("{h:>10}us {sp:>10.2}");
    }
    println!("(each bar normalized to its own baseline; benefit grows with handling cost)");
}

/// §6.5: context-switch overhead sensitivity.
pub fn ctxswitch(suite: &SuiteConfig) {
    header("§6.5", "TO+UE with modeled vs. close-to-ideal context switch cost");
    let mut ideal = suite.clone();
    // Close-to-ideal: shared-memory-bandwidth switching (eq. 1 of VT):
    // 1024 bits/cycle and no fixed drain cost.
    ideal.sim.gpu.ctx_switch_bytes_per_cycle = 128 * 1024;
    ideal.sim.gpu.ctx_switch_fixed_cycles = 0;
    let to_ue = CellPolicy::Preset(ConfigName::ToUe);
    let variants = [("modeled", suite.clone(), to_ue.clone()), ("ideal", ideal, to_ue)];
    let runs = run_grid("§6.5", &variants, registry::irregular_names());
    println!("{:<10} {:>26}", "workload", "modeled/ideal exec time");
    for name in runs.complete(&["modeled", "ideal"]) {
        let rel = runs.get(name, "modeled").cycles as f64 / runs.get(name, "ideal").cycles as f64;
        println!("{name:<10} {rel:>26.3}");
    }
    println!("(the paper finds overall execution time insensitive to switch cost)");
}

/// Ablation (§7 discussion): ETC's proactive eviction on irregular
/// workloads — the reason its authors disable it.
pub fn pe_ablation(suite: &SuiteConfig) {
    header("PE ablation", "ETC with vs. without proactive eviction (irregular workloads)");
    let variants = [
        ("etc", suite.clone(), oversubscribed("etc")),
        ("etc:50:pe", suite.clone(), oversubscribed("etc:50:pe")),
    ];
    let runs = run_grid("PE ablation", &variants, registry::irregular_names());
    println!(
        "{:<10} {:>12} {:>14} {:>14}",
        "workload", "PE speedup", "premature(PE)", "premature(off)"
    );
    for name in runs.complete(&["etc", "etc:50:pe"]) {
        let (off, on) = (runs.get(name, "etc"), runs.get(name, "etc:50:pe"));
        println!(
            "{name:<10} {:>12.2} {:>13.1}% {:>13.1}%",
            off.cycles as f64 / on.cycles as f64,
            on.uvm.premature_rate() * 100.0,
            off.uvm.premature_rate() * 100.0
        );
    }
    println!("(PE speedup < 1 means proactive eviction hurts, as the ETC authors found)");
}
