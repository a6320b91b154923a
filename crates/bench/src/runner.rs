//! Parallel execution of the evaluation suite.

use crate::error::BenchError;
use crate::sweep::{input_scale, CellPolicy};
use batmem::policies::PolicySpec;
use batmem::{RunMetrics, SimConfig, Simulation};
use batmem_graph::{gen, Csr};
use batmem_uvm::InjectConfig;
use batmem_workloads::registry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

pub use batmem::policies::ConfigName;

/// Suite-wide parameters (graph scale, oversubscription ratio, ...).
///
/// [`SuiteConfig::default`] is the paper's evaluation point (R-MAT scale
/// 15, edge factor 16, 50% oversubscription) and reads no environment;
/// binaries that accept `BATMEM_SCALE`-style overrides parse them
/// themselves and apply the `with_*` builders.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// R-MAT scale (vertices = 2^scale).
    pub scale: u32,
    /// R-MAT edge factor.
    pub edge_factor: u32,
    /// Graph seed.
    pub seed: u64,
    /// Memory oversubscription ratio (paper default: 0.5).
    pub ratio: f64,
    /// Base system configuration.
    pub sim: SimConfig,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl SuiteConfig {
    /// The paper's evaluation point: R-MAT scale 15, edge factor 16, seed
    /// 42, 50% memory oversubscription, Table 1 system configuration.
    pub fn paper() -> Self {
        Self::new(15, 16)
    }

    /// A suite over an R-MAT graph of `scale` and `edge_factor`, with the
    /// paper's seed, ratio, and system configuration.
    pub fn new(scale: u32, edge_factor: u32) -> Self {
        Self { scale, edge_factor, seed: 42, ratio: 0.5, sim: SimConfig::default() }
    }

    /// Replaces the R-MAT scale.
    pub fn with_scale(mut self, scale: u32) -> Self {
        self.scale = scale;
        self
    }

    /// Replaces the R-MAT edge factor.
    pub fn with_edge_factor(mut self, edge_factor: u32) -> Self {
        self.edge_factor = edge_factor;
        self
    }

    /// Replaces the graph seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the memory oversubscription ratio.
    pub fn with_ratio(mut self, ratio: f64) -> Self {
        self.ratio = ratio;
        self
    }

    /// Replaces the base system configuration.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// The shared input graph, generated on every available core
    /// (bit-identical to the serial generator).
    pub fn graph(&self) -> Arc<Csr> {
        Arc::new(gen::rmat_par(self.scale, self.edge_factor, self.seed, available_cores()))
    }

    /// The input graph for `workload`: the coloring workloads run a
    /// smaller one (`sweep::input_scale`).
    pub fn graph_for(&self, workload: &str) -> Arc<Csr> {
        let scale = input_scale(workload, self.scale);
        Arc::new(gen::rmat_par(scale, self.edge_factor, self.seed, available_cores()))
    }
}

/// All metrics produced by one suite invocation, keyed by
/// `(workload, config)`.
#[derive(Debug)]
pub struct SuiteResults {
    /// Workload display names, in figure order.
    pub workloads: Vec<&'static str>,
    results: HashMap<(String, ConfigName), RunMetrics>,
    /// Runs that failed, with the reason; successful rows are unaffected.
    pub failures: Vec<(String, ConfigName, BenchError)>,
}

impl SuiteResults {
    /// The metrics of `(workload, config)`.
    ///
    /// # Panics
    ///
    /// Panics if the pair was not part of the suite invocation or failed;
    /// figure printers should restrict themselves to
    /// [`SuiteResults::complete`] workloads first.
    pub fn get(&self, workload: &str, config: ConfigName) -> &RunMetrics {
        self.results
            .get(&(workload.to_string(), config))
            .unwrap_or_else(|| panic!("no result for {workload}/{config:?}"))
    }

    /// The metrics of `(workload, config)`, or `None` if that run failed or
    /// was not requested.
    pub fn get_opt(&self, workload: &str, config: ConfigName) -> Option<&RunMetrics> {
        self.results.get(&(workload.to_string(), config))
    }

    /// The workloads for which every one of `configs` produced a result, in
    /// figure order.
    pub fn complete(&self, configs: &[ConfigName]) -> Vec<&'static str> {
        self.workloads
            .iter()
            .copied()
            .filter(|w| configs.iter().all(|&c| self.get_opt(w, c).is_some()))
            .collect()
    }

    /// Geometric mean of `f` over all workloads.
    pub fn geomean<F: Fn(&str) -> f64>(&self, f: F) -> f64 {
        self.geomean_over(&self.workloads, f)
    }

    /// Geometric mean of `f` over `workloads` (use with
    /// [`SuiteResults::complete`] to skip failed rows).
    pub fn geomean_over<F: Fn(&str) -> f64>(&self, workloads: &[&str], f: F) -> f64 {
        if workloads.is_empty() {
            return f64::NAN;
        }
        let logs: f64 = workloads.iter().map(|w| f(w).ln()).sum();
        (logs / workloads.len() as f64).exp()
    }

    /// Prints one line per failed run to stderr.
    pub fn report_failures(&self) {
        for (w, c, e) in &self.failures {
            eprintln!("suite: {w}/{} failed: {e}", c.label());
        }
    }
}

/// Runs one workload under `policy`, with an optional fault-injection spec
/// (`noisy:42`, `lost:1:3`, `off`) — the CLI's `--inject` flag. Every
/// policy runs at the suite's memory ratio except UNLIMITED, which runs
/// with unsized memory.
///
/// Never panics: unknown workloads, unknown policy or inject specs (the
/// registry's typed errors, listing the known names), invalid
/// configurations, and simulation failures all come back as
/// [`BenchError`] so sweeps can skip the row.
pub fn run_one(
    name: &str,
    policy: &CellPolicy,
    inject: Option<&str>,
    suite: &SuiteConfig,
    graph: &Arc<Csr>,
) -> Result<RunMetrics, BenchError> {
    let graph = if name.starts_with("GC-") { suite.graph_for(name) } else { Arc::clone(graph) };
    run_workload(
        name,
        graph,
        &suite.sim,
        policy.spec(),
        policy.memory_ratio(suite.ratio),
        inject,
        &format!("{name}/{}", policy.label()),
    )
}

/// The one path from a workload name to a finished run, shared by
/// [`run_one`] and the sweep's cells: parses `inject`, builds `name` over
/// `graph`, and runs it on `sim` under `policy` with `memory_ratio` (`None`
/// = unsized memory). Spec and simulation errors carry `context`.
pub(crate) fn run_workload(
    name: &str,
    graph: Arc<Csr>,
    sim: &SimConfig,
    policy: PolicySpec,
    memory_ratio: Option<f64>,
    inject: Option<&str>,
    context: &str,
) -> Result<RunMetrics, BenchError> {
    let inject = match inject {
        Some(spec) => {
            InjectConfig::parse_spec(spec).map_err(|e| BenchError::context(context, &e))?
        }
        None => None,
    };
    let workload = registry::build(name, graph)
        .ok_or_else(|| BenchError::msg(format!("unknown workload `{name}`")))?;
    let mut b = Simulation::builder().config(sim.clone()).policy(policy);
    if let Some(ratio) = memory_ratio {
        b = b.memory_ratio(ratio);
    }
    if let Some(inject) = inject {
        b = b.inject(inject);
    }
    b.try_run(workload).map_err(|e| BenchError::context(context, &e))
}

/// The host's available parallelism (4 when it cannot be determined).
fn available_cores() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
}

/// Runs `f` over `items` on a thread pool of up to 16 workers, preserving
/// order.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let threads = available_cores().min(16);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let value = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("result slot poisoned").expect("slot filled"))
        .collect()
}

/// Runs `configs` × the 11-workload suite in parallel and collects results.
///
/// Failed runs are recorded in [`SuiteResults::failures`] rather than
/// aborting the sweep.
pub fn suite_results(configs: &[ConfigName], suite: &SuiteConfig) -> SuiteResults {
    let graph = suite.graph();
    let workloads = registry::irregular_names();
    let mut jobs: Vec<(&'static str, ConfigName)> = Vec::new();
    for &w in workloads {
        for &c in configs {
            jobs.push((w, c));
        }
    }
    let outcomes = parallel_map(jobs, |&(w, c)| {
        (w, c, run_one(w, &CellPolicy::Preset(c), None, suite, &graph))
    });
    let mut results = HashMap::new();
    let mut failures = Vec::new();
    for (w, c, outcome) in outcomes {
        match outcome {
            Ok(m) => {
                results.insert((w.to_string(), c), m);
            }
            Err(e) => failures.push((w.to_string(), c, e)),
        }
    }
    SuiteResults { workloads: workloads.to_vec(), results, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100u64).collect(), |&x| x * 2);
        assert_eq!(out, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn config_labels_match_paper_vocabulary() {
        assert_eq!(ConfigName::Baseline.label(), "BASELINE");
        assert_eq!(ConfigName::ToUe.label(), "TO+UE");
        assert_eq!(ConfigName::Etc.label(), "ETC");
    }

    #[test]
    fn etc_config_carries_framework() {
        let etc = |c: ConfigName| {
            batmem::PolicyRegistry.build_oversubscription(&c.spec().oversubscription).unwrap().etc
        };
        assert!(etc(ConfigName::Etc).unwrap().enabled);
        assert!(etc(ConfigName::Baseline).is_none());
    }

    #[test]
    fn default_suite_is_the_paper_point_without_env() {
        let suite = SuiteConfig::default();
        assert_eq!(suite.scale, 15);
        assert_eq!(suite.edge_factor, 16);
        let tuned = SuiteConfig::new(8, 4).with_seed(7).with_ratio(0.75);
        assert_eq!((tuned.scale, tuned.edge_factor, tuned.seed, tuned.ratio), (8, 4, 7, 0.75));
    }

    #[test]
    fn suite_runs_one_small_workload() {
        let suite = SuiteConfig::new(8, 4).with_seed(1);
        let graph = suite.graph();
        let run = |c| run_one("BFS-TTC", &CellPolicy::Preset(c), None, &suite, &graph).unwrap();
        assert!(run(ConfigName::Baseline).cycles > 0);
        assert!(run(ConfigName::Unlimited).memory_pages.is_none());
    }

    #[test]
    fn custom_combo_runs_and_unknown_spec_is_an_error() {
        let suite = SuiteConfig::new(8, 4).with_seed(1);
        let graph = suite.graph();
        let custom = PolicySpec {
            eviction: "random:7".into(),
            prefetch: "none".into(),
            ..PolicySpec::default()
        };
        assert_eq!(custom.to_string(), "random:7/none/none");
        let m = run_one("BFS-TTC", &CellPolicy::Custom(custom), None, &suite, &graph).unwrap();
        assert!(m.cycles > 0);
        let bad =
            CellPolicy::Custom(PolicySpec { eviction: "mru".into(), ..PolicySpec::default() });
        let err = run_one("BFS-TTC", &bad, None, &suite, &graph).unwrap_err();
        assert!(err.to_string().contains("unknown eviction policy"), "{err}");
    }

    #[test]
    fn inject_spec_is_parsed_next_to_the_policy_specs() {
        let suite = SuiteConfig::new(8, 4).with_seed(1);
        let graph = suite.graph();
        let custom = CellPolicy::Custom(PolicySpec::default());
        let run = |inject| run_one("BFS-TTC", &custom, inject, &suite, &graph);
        let clean = run(Some("off")).unwrap();
        let noisy = run(Some("noisy:7")).unwrap();
        let plain = run(None).unwrap();
        assert_eq!(clean.cycles, plain.cycles, "`off` must be identical to no injection");
        assert_ne!(clean.cycles, noisy.cycles, "noisy injection must perturb the run");
        let err = run(Some("chaos")).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown inject policy") && msg.contains("noisy"), "{msg}");
    }

    #[test]
    fn unknown_workload_is_an_error_not_a_panic() {
        let suite = SuiteConfig::new(8, 4).with_seed(1);
        let graph = suite.graph();
        let baseline = CellPolicy::Preset(ConfigName::Baseline);
        let err = run_one("NO-SUCH-WORKLOAD", &baseline, None, &suite, &graph).unwrap_err();
        assert!(err.to_string().contains("NO-SUCH-WORKLOAD"));
    }

    #[test]
    fn invalid_config_is_reported_per_row_not_panicked() {
        let mut suite = SuiteConfig::new(8, 4).with_seed(1);
        suite.sim.gpu.num_sms = 0;
        let graph = suite.graph();
        let baseline = CellPolicy::Preset(ConfigName::Baseline);
        let err = run_one("BFS-TTC", &baseline, None, &suite, &graph).unwrap_err();
        assert!(err.to_string().contains("num_sms"), "{err}");
        // A degenerate suite ratio is a per-row error too, not a panic.
        for ratio in [0.0, f64::NAN] {
            let suite = SuiteConfig::new(8, 4).with_seed(1).with_ratio(ratio);
            let err = run_one("BFS-TTC", &baseline, None, &suite, &graph).unwrap_err();
            assert!(err.to_string().contains("memory_ratio"), "{err}");
        }
    }

    #[test]
    fn geomean_of_constants_is_the_constant() {
        let suite = SuiteConfig::new(8, 4).with_seed(1);
        let graph = suite.graph();
        let baseline = CellPolicy::Preset(ConfigName::Baseline);
        let m = run_one("PR", &baseline, None, &suite, &graph).unwrap();
        let mut results = HashMap::new();
        for w in registry::irregular_names() {
            results.insert((w.to_string(), ConfigName::Baseline), m.clone());
        }
        let r = SuiteResults {
            workloads: registry::irregular_names().to_vec(),
            results,
            failures: Vec::new(),
        };
        let g = r.geomean(|_| 3.0);
        assert!((g - 3.0).abs() < 1e-12);
        assert_eq!(r.complete(&[ConfigName::Baseline]).len(), r.workloads.len());
        assert!(r.complete(&[ConfigName::ToUe]).is_empty());
    }
}
