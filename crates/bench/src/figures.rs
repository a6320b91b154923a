//! Per-figure printers: each regenerates the rows/series of one table or
//! figure from the paper's evaluation.
//!
//! Every printer tolerates failed runs: a `(workload, config)` pair that
//! returns an error is reported and skipped, and geometric means are taken
//! over the rows that completed, so one bad run never aborts a sweep.

use crate::error::BenchError;
use crate::runner::{parallel_map, run_one, ConfigName, SuiteConfig, SuiteResults};
use crate::sweep::CellPolicy;
use batmem::experiments::working_set_curve;
use batmem::{policies, Simulation};
use batmem_types::time::us;
use batmem_workloads::registry;
use batmem_workloads::regular::TiledRegular;

fn header(id: &str, caption: &str) {
    println!();
    println!("==== {id}: {caption} ====");
}

fn skipped(id: &str, what: &str, err: &BenchError) {
    println!("{id}: skipping {what}: {err}");
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
        registry::build(name, suite.graph_for(name))
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
    let graph = suite.graph();
    let baseline = CellPolicy::Preset(ConfigName::Baseline);
    let m = match run_one("BFS-TTC", &baseline, None, suite, &graph) {
        Ok(m) => m,
        Err(e) => return skipped("Fig. 3", "BFS-TTC/BASELINE", &e),
    };
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
    let jobs: Vec<&str> = registry::irregular_names().to_vec();
    let rows = parallel_map(jobs, |name| -> Result<_, BenchError> {
        let build = |n: &str| {
            registry::build(n, suite.graph_for(n))
                .ok_or_else(|| BenchError::msg(format!("unknown workload `{n}`")))
        };
        let base = Simulation::builder()
            .config(suite.sim.clone())
            .policy(policies::baseline())
            .memory_ratio(1.0)
            .try_run(build(name)?)?;
        let switched = Simulation::builder()
            .config(suite.sim.clone())
            .oversubscription("to:any")
            .memory_ratio(1.0)
            .try_run(build(name)?)?;
        Ok((*name, base.cycles as f64 / switched.cycles as f64, switched.ctx_switches))
    });
    println!("{:<10} {:>14} {:>12}", "workload", "rel. perf", "ctx switches");
    let mut logs = 0.0;
    let mut n = 0usize;
    for row in &rows {
        match row {
            Ok((name, rel, sw)) => {
                println!("{name:<10} {rel:>14.2} {sw:>12}");
                logs += rel.ln();
                n += 1;
            }
            Err(e) => skipped("Fig. 5", "row", e),
        }
    }
    if n > 0 {
        println!("{:<10} {:>14.2}", "GEOMEAN", (logs / n as f64).exp());
    }
    println!("(the paper reports an average 0.51x: switching hurts when memory fits)");
}

/// Fig. 8: 50% oversubscription vs. unlimited memory, and the ideal-eviction
/// limit.
pub fn fig8(results: &SuiteResults) {
    header("Fig. 8", "Performance at 50% memory vs. unlimited, with ideal eviction");
    results.report_failures();
    let ws =
        results.complete(&[ConfigName::Unlimited, ConfigName::Baseline, ConfigName::IdealEviction]);
    println!("{:<10} {:>10} {:>14}", "workload", "BASELINE", "IDEAL-EVICT");
    for name in &ws {
        let unlimited = results.get(name, ConfigName::Unlimited).cycles as f64;
        let base = unlimited / results.get(name, ConfigName::Baseline).cycles as f64;
        let ideal = unlimited / results.get(name, ConfigName::IdealEviction).cycles as f64;
        println!("{name:<10} {base:>10.2} {ideal:>14.2}");
    }
    let gb = results.geomean_over(&ws, |w| {
        results.get(w, ConfigName::Unlimited).cycles as f64
            / results.get(w, ConfigName::Baseline).cycles as f64
    });
    let gi = results.geomean_over(&ws, |w| {
        results.get(w, ConfigName::Unlimited).cycles as f64
            / results.get(w, ConfigName::IdealEviction).cycles as f64
    });
    println!("{:<10} {gb:>10.2} {gi:>14.2}", "GEOMEAN");
}

/// Fig. 11: the headline speedup comparison.
pub fn fig11(results: &SuiteResults) {
    header("Fig. 11", "Speedup over BASELINE (with state-of-the-art prefetching)");
    results.report_failures();
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
        let g = results.geomean_over(&ws, |w| {
            results.get(w, ConfigName::Baseline).cycles as f64 / results.get(w, c).cycles as f64
        });
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
    let g = results.geomean_over(&ws, |w| {
        results.get(w, ConfigName::To).uvm.num_batches() as f64
            / results.get(w, ConfigName::Baseline).uvm.num_batches() as f64
    });
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
    let g = results.geomean_over(&ws, |w| {
        results.get(w, ConfigName::To).uvm.avg_batch_pages()
            / results.get(w, ConfigName::Baseline).uvm.avg_batch_pages()
    });
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
    let gt = results.geomean_over(&ws, |w| {
        results.get(w, ConfigName::To).uvm.avg_processing_time()
            / results.get(w, ConfigName::Baseline).uvm.avg_processing_time()
    });
    let gtu = results.geomean_over(&ws, |w| {
        results.get(w, ConfigName::ToUe).uvm.avg_processing_time()
            / results.get(w, ConfigName::Baseline).uvm.avg_processing_time()
    });
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
    let graph = suite.graph();
    let ratios = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    // The sweep uses the traversal-dominated subset; the coloring pair's
    // extreme thrash regime makes low ratios prohibitively slow to
    // simulate without changing the trend.
    let names: &[&str] = &["BC", "BFS-DWC", "BFS-TTC", "BFS-TWC", "SSSP-TWC", "PR"];
    let mut jobs = Vec::new();
    for &r in &ratios {
        for &w in names {
            for c in [ConfigName::Baseline, ConfigName::Ue] {
                jobs.push((r, w, c));
            }
        }
    }
    let metrics = parallel_map(jobs.clone(), |(r, w, c)| {
        let mut s = suite.clone();
        s.ratio = *r;
        run_one(w, &CellPolicy::Preset(*c), None, &s, &graph)
    });
    for ((_, w, c), m) in jobs.iter().zip(&metrics) {
        if let Err(e) = m {
            skipped("Fig. 17", &format!("{w}/{}", c.label()), e);
        }
    }
    let lookup = |r: f64, w: &str, c: ConfigName| -> Option<f64> {
        let i = jobs.iter().position(|&(jr, jw, jc)| jr == r && jw == w && jc == c)?;
        metrics[i].as_ref().ok().map(|m| m.cycles as f64)
    };
    println!("{:>6} {:>16} {:>12}", "ratio", "rel. exec time", "UE speedup");
    for &r in &ratios {
        let rel = geomean(names.iter().filter_map(|&w| {
            Some(lookup(r, w, ConfigName::Baseline)? / lookup(1.0, w, ConfigName::Baseline)?)
        }));
        let ue = geomean(names.iter().filter_map(|&w| {
            Some(lookup(r, w, ConfigName::Baseline)? / lookup(r, w, ConfigName::Ue)?)
        }));
        println!("{r:>6.1} {rel:>16.2} {ue:>12.2}");
    }
    println!("(exec time grows as memory shrinks; UE's benefit grows with eviction pressure)");
}

/// Fig. 18: sensitivity to the GPU runtime fault handling time.
pub fn fig18(suite: &SuiteConfig) {
    header("Fig. 18", "TO+UE speedup vs. GPU runtime fault handling time");
    let graph = suite.graph();
    let names: &[&str] = &["BC", "BFS-DWC", "BFS-TTC", "BFS-TWC", "SSSP-TWC", "PR"];
    let handling = [20u64, 30, 40, 50];
    let mut jobs = Vec::new();
    for &h in &handling {
        for &w in names {
            for c in [ConfigName::Baseline, ConfigName::ToUe] {
                jobs.push((h, w, c));
            }
        }
    }
    let metrics = parallel_map(jobs.clone(), |(h, w, c)| {
        let mut s = suite.clone();
        s.sim.uvm.fault_handling_base = us(*h);
        run_one(w, &CellPolicy::Preset(*c), None, &s, &graph)
    });
    for ((_, w, c), m) in jobs.iter().zip(&metrics) {
        if let Err(e) = m {
            skipped("Fig. 18", &format!("{w}/{}", c.label()), e);
        }
    }
    let lookup = |h: u64, w: &str, c: ConfigName| -> Option<f64> {
        let i = jobs.iter().position(|&(jh, jw, jc)| jh == h && jw == w && jc == c)?;
        metrics[i].as_ref().ok().map(|m| m.cycles as f64)
    };
    println!("{:>12} {:>10}", "handling", "speedup");
    for &h in &handling {
        let sp = geomean(names.iter().filter_map(|&w| {
            Some(lookup(h, w, ConfigName::Baseline)? / lookup(h, w, ConfigName::ToUe)?)
        }));
        println!("{h:>10}us {sp:>10.2}");
    }
    println!("(each bar normalized to its own baseline; benefit grows with handling cost)");
}

/// §6.5: context-switch overhead sensitivity.
pub fn ctxswitch(suite: &SuiteConfig) {
    header("§6.5", "TO+UE with modeled vs. close-to-ideal context switch cost");
    let graph = suite.graph();
    let names: Vec<&str> = registry::irregular_names().to_vec();
    let rows = parallel_map(names, |name| -> Result<_, BenchError> {
        let to_ue = CellPolicy::Preset(ConfigName::ToUe);
        let modeled = run_one(name, &to_ue, None, suite, &graph)?;
        let mut fast = suite.clone();
        // Close-to-ideal: shared-memory-bandwidth switching (eq. 1 of VT):
        // 1024 bits/cycle and no fixed drain cost.
        fast.sim.gpu.ctx_switch_bytes_per_cycle = 128 * 1024;
        fast.sim.gpu.ctx_switch_fixed_cycles = 0;
        let ideal = run_one(name, &to_ue, None, &fast, &graph)?;
        Ok((*name, modeled.cycles as f64 / ideal.cycles as f64))
    });
    println!("{:<10} {:>26}", "workload", "modeled/ideal exec time");
    for row in &rows {
        match row {
            Ok((name, rel)) => println!("{name:<10} {rel:>26.3}"),
            Err(e) => skipped("§6.5", "row", e),
        }
    }
    println!("(the paper finds overall execution time insensitive to switch cost)");
}

/// Ablation (§7 discussion): ETC's proactive eviction on irregular
/// workloads — the reason its authors disable it.
pub fn pe_ablation(suite: &SuiteConfig) {
    header("PE ablation", "ETC with vs. without proactive eviction (irregular workloads)");
    let names: Vec<&str> = registry::irregular_names().to_vec();
    let rows = parallel_map(names, |name| -> Result<_, BenchError> {
        let run = |oversub: &str| -> Result<_, BenchError> {
            let w = registry::build(name, suite.graph_for(name))
                .ok_or_else(|| BenchError::msg(format!("unknown workload `{name}`")))?;
            Simulation::builder()
                .config(suite.sim.clone())
                .oversubscription(oversub)
                .memory_ratio(suite.ratio)
                .try_run(w)
                .map_err(BenchError::from)
        };
        let off = run("etc")?;
        let on = run("etc:50:pe")?;
        Ok((
            *name,
            off.cycles as f64 / on.cycles as f64,
            on.uvm.premature_rate(),
            off.uvm.premature_rate(),
        ))
    });
    println!(
        "{:<10} {:>12} {:>14} {:>14}",
        "workload", "PE speedup", "premature(PE)", "premature(off)"
    );
    for row in &rows {
        match row {
            Ok((name, sp, pon, poff)) => {
                println!("{name:<10} {sp:>12.2} {:>13.1}% {:>13.1}%", pon * 100.0, poff * 100.0)
            }
            Err(e) => skipped("PE ablation", "row", e),
        }
    }
    println!("(PE speedup < 1 means proactive eviction hurts, as the ETC authors found)");
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v.ln();
        n += 1;
    }
    (sum / n.max(1) as f64).exp()
}
