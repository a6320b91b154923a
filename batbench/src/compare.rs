//! `batbench compare`: A/B verdicts over saved benchmark outputs.
//!
//! Each file is the standard output of one run: its `host` line names the
//! workload and its last line holds the metrics. Side A is the parent,
//! side B the change; the i-th file of each side form a pair, so list the
//! runs in the order they were taken (ABAB...). Per workload and metric:
//!
//! * `better` — over at least [`MIN_PAIRS`] pairs, B wins at least 9 of
//!   every 10, and the medians differ by more than A's interquartile range
//!   or every B run beats every A run;
//! * `worse` — B's median is worse than A's by more than the metric's
//!   bound (end-to-end metrics), or the mirror of `better` (per-layer
//!   metrics, which have no bound);
//! * `unresolved` — A's own spread is wider than the bound;
//! * `same` — otherwise.
//!
//! Exits 1 when any end-to-end metric is `worse`.

use crate::json::Json;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Pairs a gain (or a per-layer loss) needs before it is claimed.
const MIN_PAIRS: usize = 10;

/// One metric's definition in `BENCHMARK.json`.
struct Def {
    unit: String,
    higher_is_better: bool,
    /// `Some` for end-to-end metrics.
    bound: Option<f64>,
}

/// Metric values by workload, then metric, in file order.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn main(args: &[String]) -> ExitCode {
    match compare(args) {
        Ok(worse) => {
            if worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("batbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn compare(args: &[String]) -> Result<bool, String> {
    let mut bench = "BENCHMARK.json".to_string();
    let mut files: [Vec<&str>; 2] = [Vec::new(), Vec::new()];
    let mut side = 0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => bench = it.next().ok_or("--bench needs a path")?.clone(),
            "vs" if side == 0 => side = 1,
            f => files[side].push(f),
        }
    }
    if files[0].is_empty() || files[1].is_empty() {
        return Err("usage: batbench compare [--bench BENCHMARK.json] A.txt... vs B.txt...".into());
    }
    let defs = definitions(&bench)?;
    let a = load(&files[0])?;
    let b = load(&files[1])?;
    println!(
        "{:<12} {:<26} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "wins"
    );
    let mut any_worse = false;
    for (workload, a_metrics) in &a {
        for (name, def) in &defs {
            let (Some(av), Some(bv)) =
                (a_metrics.get(name), b.get(workload).and_then(|m| m.get(name)))
            else {
                continue;
            };
            let v = verdict(av, bv, def);
            any_worse |= v.word == "worse" && def.bound.is_some();
            println!(
                "{workload:<12} {name:<26} {:>14.6} {:>14.6} {:>7.1}% {:>3}/{:<2}  {} ({})",
                v.a_median,
                v.b_median,
                100.0 * (v.b_median - v.a_median) / v.a_median.abs().max(f64::MIN_POSITIVE),
                v.wins,
                v.pairs,
                v.word,
                def.unit,
            );
        }
    }
    Ok(any_worse)
}

struct Verdict {
    word: &'static str,
    a_median: f64,
    b_median: f64,
    wins: usize,
    pairs: usize,
}

fn verdict(a: &[f64], b: &[f64], def: &Def) -> Verdict {
    // Orient every difference so that positive means B is better.
    let sign = if def.higher_is_better { 1.0 } else { -1.0 };
    let (a_median, b_median) = (median(a).unwrap_or(0.0), median(b).unwrap_or(0.0));
    let gain = sign * (b_median - a_median);
    let iqr = quartiles(a).map_or(0.0, |(q1, q3)| q3 - q1);
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| sign * (*y - *x) > 0.0).count();
    let losses = a.iter().zip(b).filter(|(x, y)| sign * (*y - *x) < 0.0).count();
    let best_a = a.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let worst_b = b.iter().map(|y| sign * y).fold(f64::INFINITY, f64::min);
    let nine_of_ten = |n: usize| pairs >= MIN_PAIRS && n * 10 >= pairs * 9;
    let word = if nine_of_ten(wins) && (gain > iqr || worst_b > best_a) {
        "better"
    } else {
        match def.bound {
            Some(bound) if -gain > bound * a_median.abs() => "worse",
            Some(bound) if iqr > bound * a_median.abs() => "unresolved",
            None if nine_of_ten(losses) && -gain > iqr => "worse",
            _ => "same",
        }
    };
    Verdict { word, a_median, b_median, wins, pairs }
}

fn definitions(path: &str) -> Result<BTreeMap<String, Def>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut defs = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in doc.get(section).map(Json::as_arr).unwrap_or_default() {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            let name =
                field("name").ok_or_else(|| format!("{path}: a {section} metric has no name"))?;
            defs.insert(
                name,
                Def {
                    unit: field("unit").unwrap_or_default(),
                    higher_is_better: field("better").as_deref() == Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64),
                },
            );
        }
    }
    Ok(defs)
}

fn load(files: &[&str]) -> Result<Side, String> {
    let mut side = Side::new();
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let (workload, values) = parse_output(&text).map_err(|e| format!("{path}: {e}"))?;
        let metrics = side.entry(workload).or_default();
        for (name, v) in values {
            metrics.entry(name).or_default().push(v);
        }
    }
    Ok(side)
}

/// The workload and metric values of one run's standard output.
fn parse_output(text: &str) -> Result<(String, Vec<(String, f64)>), String> {
    let workload = text
        .lines()
        .find_map(|l| l.strip_prefix("host "))
        .and_then(|h| Json::parse(h).ok())
        .and_then(|h| h.get("workload").and_then(Json::as_str).map(str::to_string))
        .ok_or("no host line naming the workload")?;
    let last = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("last line: {e}"))?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err("the run was not correct".into());
    }
    let values = result
        .get("metrics")
        .map(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok((workload, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(bound: Option<f64>) -> Def {
        Def { unit: "s".into(), higher_is_better: false, bound }
    }

    #[test]
    fn nine_of_ten_pairs_beyond_the_spread_is_better() {
        let a: Vec<f64> = (0..10).map(|i| 1.0 + 0.001 * f64::from(i)).collect();
        let mut b: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        b[0] = 2.0; // one lost pair still leaves 9 of 10
        assert_eq!(verdict(&a, &b, &def(Some(0.1))).word, "better");
        b[1] = 2.0; // 8 of 10 is not enough
        assert_eq!(verdict(&a, &b, &def(Some(0.1))).word, "same");
    }

    #[test]
    fn fewer_than_ten_pairs_claim_no_gain() {
        let a = vec![1.0; 9];
        let b = vec![0.5; 9];
        assert_eq!(verdict(&a, &b, &def(Some(0.1))).word, "same");
        assert_eq!(
            verdict(&[a, vec![1.0]].concat(), &[b, vec![0.5]].concat(), &def(None)).word,
            "better"
        );
    }

    #[test]
    fn a_median_beyond_the_bound_is_worse() {
        let a: Vec<f64> = [1.0, 1.01, 0.99, 1.0, 1.0].repeat(2);
        let b: Vec<f64> = [1.2, 1.21, 1.19, 1.2, 1.2].repeat(2);
        assert_eq!(verdict(&a, &b, &def(Some(0.1))).word, "worse");
        assert_eq!(verdict(&a, &b, &def(Some(0.25))).word, "same");
        assert_eq!(verdict(&a, &b, &def(None)).word, "worse");
        assert_eq!(verdict(&a[..4], &b[..4], &def(Some(0.1))).word, "worse");
        assert_eq!(verdict(&a[..4], &b[..4], &def(None)).word, "same");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = vec![1.0, 1.5, 0.7, 1.3, 0.8];
        let b = vec![1.05, 1.4, 0.75, 1.35, 0.8];
        assert_eq!(verdict(&a, &b, &def(Some(0.1))).word, "unresolved");
    }

    #[test]
    fn run_outputs_parse_into_workload_and_values() {
        let text = "batbench x\nhost {\"workload\": \"bfs-fit\"}\n  run_s 1.0 s\n\
             {\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}\n";
        let (workload, values) = parse_output(text).unwrap();
        assert_eq!(workload, "bfs-fit");
        assert_eq!(values, vec![("run_s".to_string(), 1.25)]);
        assert!(parse_output(&text.replace("true", "false")).is_err());
        assert!(parse_output("{}").is_err());
    }
}
