//! Parallel execution of the evaluation suite.

use crate::error::BenchError;
use crate::sweep::{input_scale, CellPolicy, GraphCache};
use batmem::policies::PolicySpec;
use batmem::{RunMetrics, SimConfig, Simulation};
use batmem_graph::Csr;
use batmem_uvm::InjectConfig;
use batmem_workloads::registry;
use std::fmt::Debug;
use std::sync::{Arc, Mutex};

pub use batmem::policies::ConfigName;

/// Suite-wide parameters (graph scale, oversubscription ratio, ...).
///
/// [`SuiteConfig::default`] is the paper's evaluation point (R-MAT scale
/// 15, edge factor 16, 50% oversubscription) and reads no environment;
/// binaries that accept `BATMEM_SCALE`-style overrides parse them
/// themselves and apply the `with_*` builders.
///
/// A suite owns one [`GraphCache`], shared by its clones, so every figure
/// and variant derived from one suite reads each input graph built once.
/// Its clones also share one cache of the runs [`run_one`] finished, so a
/// figure that repeats another's run reads it instead of simulating again.
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
    graphs: Arc<GraphCache>,
    runs: Arc<RunCache>,
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
        Self {
            scale,
            edge_factor,
            seed: 42,
            ratio: 0.5,
            sim: SimConfig::default(),
            graphs: Arc::default(),
            runs: Arc::default(),
        }
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

    /// The input graph of `workload` from the suite's cache: the coloring
    /// workloads read a smaller one ([`input_scale`]).
    pub(crate) fn input(&self, workload: &str) -> Arc<Csr> {
        let (scale, edge_factor, seed) = self.input_key(workload);
        self.graphs.get(scale, edge_factor, seed)
    }

    /// The R-MAT scale, edge factor and seed of `workload`'s input graph.
    fn input_key(&self, workload: &str) -> (u32, u32, u64) {
        (input_scale(workload, self.scale), self.edge_factor, self.seed)
    }
}

/// Everything a [`run_one`] run depends on: equal keys give equal runs.
#[derive(Debug, Clone, PartialEq)]
struct RunKey {
    workload: String,
    spec: PolicySpec,
    memory_ratio: Option<f64>,
    inject: Option<String>,
    sim: SimConfig,
    /// The input graph's R-MAT scale, edge factor and seed.
    input: (u32, u32, u64),
}

/// The runs [`run_one`] finished, by key. Failed runs are not kept, so a
/// repeat of one fails again and is reported again. A few hundred runs at
/// most, so the lookup is a scan.
#[derive(Debug, Default)]
struct RunCache {
    runs: Mutex<Vec<(RunKey, RunMetrics)>>,
}

impl RunCache {
    fn get(&self, key: &RunKey) -> Option<RunMetrics> {
        let runs = self.runs.lock().expect("run cache lock poisoned");
        runs.iter().find(|(k, _)| k == key).map(|(_, m)| m.clone())
    }

    fn insert(&self, key: RunKey, metrics: RunMetrics) {
        self.runs.lock().expect("run cache lock poisoned").push((key, metrics));
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.runs.lock().expect("run cache lock poisoned").len()
    }
}

/// The runs of one figure's (variant × workload) grid: the metrics of
/// every run that completed, by workload and variant key.
#[derive(Debug)]
pub struct Runs<K> {
    /// Workload display names, in figure order.
    workloads: Vec<&'static str>,
    done: Vec<(&'static str, K, RunMetrics)>,
}

/// The shared suite's runs (Figs. 8 and 11–16), keyed by preset.
pub type SuiteResults = Runs<ConfigName>;

impl<K: Copy + PartialEq + Debug> Runs<K> {
    fn find(&self, workload: &str, key: K) -> Option<&RunMetrics> {
        self.done.iter().find(|(w, k, _)| *w == workload && *k == key).map(|(_, _, m)| m)
    }

    /// The metrics of `(workload, key)`.
    ///
    /// # Panics
    ///
    /// Panics if that run failed or was not part of the grid; figure
    /// printers restrict themselves to [`Runs::complete`] workloads first.
    pub fn get(&self, workload: &str, key: K) -> &RunMetrics {
        self.find(workload, key).unwrap_or_else(|| panic!("no run for {workload} {key:?}"))
    }

    /// The workloads for which every one of `keys` completed, in figure
    /// order.
    pub fn complete(&self, keys: &[K]) -> Vec<&'static str> {
        self.workloads
            .iter()
            .copied()
            .filter(|w| keys.iter().all(|&k| self.find(w, k).is_some()))
            .collect()
    }
}

/// Runs every workload under every variant, a `(key, suite, policy)`
/// triple, through [`run_one`] on [`parallel_map`], and returns the runs
/// by workload and key. A failed run is reported once on stderr, naming
/// `figure`, the workload and the key, and is left out of the grid, so one
/// bad run never aborts a figure.
pub(crate) fn run_grid<K>(
    figure: &str,
    variants: &[(K, SuiteConfig, CellPolicy)],
    workloads: &[&'static str],
) -> Runs<K>
where
    K: Copy + PartialEq + Debug + Send + Sync,
{
    let jobs: Vec<(&'static str, usize)> =
        workloads.iter().flat_map(|&w| (0..variants.len()).map(move |v| (w, v))).collect();
    let outcomes = parallel_map(jobs, |&(w, v)| {
        let (key, suite, policy) = &variants[v];
        (w, *key, run_one(w, policy, None, suite))
    });
    let mut done = Vec::new();
    for (w, key, outcome) in outcomes {
        match outcome {
            Ok(m) => done.push((w, key, m)),
            Err(e) => eprintln!("{figure}: skipping {w} {key:?}: {e}"),
        }
    }
    Runs { workloads: workloads.to_vec(), done }
}

/// The geometric mean of `values`, their logs summed in order; NaN when
/// there are none (0/0).
pub(crate) fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut logs, mut n) = (0.0, 0usize);
    for v in values {
        logs += v.ln();
        n += 1;
    }
    (logs / n as f64).exp()
}

/// Runs one workload under `policy`, over its input graph from the
/// suite's cache, with an optional fault-injection spec (`noisy:42`,
/// `lost:1:3`, `off`) — the CLI's `--inject` flag. Every policy runs at
/// the suite's memory ratio except UNLIMITED, which runs with unsized
/// memory. A run the suite (or a clone of it) already finished with the
/// same workload, policy spec, memory ratio, inject spec, configuration
/// and input graph is returned from its cache instead of simulated again.
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
) -> Result<RunMetrics, BenchError> {
    let key = RunKey {
        workload: name.to_string(),
        spec: policy.spec(),
        memory_ratio: policy.memory_ratio(suite.ratio),
        inject: inject.map(str::to_string),
        sim: suite.sim.clone(),
        input: suite.input_key(name),
    };
    if let Some(metrics) = suite.runs.get(&key) {
        return Ok(metrics);
    }
    let metrics = run_workload(
        name,
        suite.input(name),
        &suite.sim,
        key.spec.clone(),
        key.memory_ratio,
        inject,
        &format!("{name}/{}", policy.label()),
    )?;
    suite.runs.insert(key, metrics.clone());
    Ok(metrics)
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

/// Runs `configs` × the 11-workload suite in parallel. A failed run is
/// reported once on stderr and left out of the results.
pub fn suite_results(configs: &[ConfigName], suite: &SuiteConfig) -> SuiteResults {
    let variants: Vec<_> =
        configs.iter().map(|&c| (c, suite.clone(), CellPolicy::Preset(c))).collect();
    run_grid("suite", &variants, registry::irregular_names())
}

#[cfg(test)]
mod tests {
    use super::*;
    use batmem_graph::gen;

    #[test]
    fn a_repeated_run_is_read_from_the_suite_cache() {
        let suite = SuiteConfig::new(8, 4);
        let base = CellPolicy::Preset(ConfigName::Baseline);
        let first = run_one("BFS-TTC", &base, None, &suite).unwrap();
        let clone = suite.clone();
        let again = run_one("BFS-TTC", &base, None, &clone).unwrap();
        assert_eq!(format!("{first:?}"), format!("{again:?}"));
        assert_eq!(suite.runs.len(), 1, "the clone read the run its parent made");
        // Any part of the key that differs is a new run.
        run_one("BFS-TTC", &base, None, &clone.clone().with_ratio(0.25)).unwrap();
        run_one("BFS-TTC", &base, Some("noisy:1"), &clone).unwrap();
        run_one("BFS-TA", &base, None, &clone).unwrap();
        let mut slow = clone.clone();
        slow.sim.uvm.fault_handling_base *= 2;
        run_one("BFS-TTC", &base, None, &slow).unwrap();
        assert_eq!(suite.runs.len(), 5);
        // A failed run is not kept.
        assert!(run_one("BFS-TTC", &base, Some("bogus"), &clone).is_err());
        assert_eq!(suite.runs.len(), 5);
    }

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
        let oversub = |c: ConfigName| {
            batmem::PolicyRegistry.build_oversubscription(&c.spec().oversubscription).unwrap()
        };
        assert!(matches!(oversub(ConfigName::Etc), batmem::Oversubscription::Etc(_)));
        assert!(matches!(oversub(ConfigName::Baseline), batmem::Oversubscription::Off));
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
        let run = |c| run_one("BFS-TTC", &CellPolicy::Preset(c), None, &suite).unwrap();
        assert!(run(ConfigName::Baseline).cycles > 0);
        assert!(run(ConfigName::Unlimited).memory_pages.is_none());
    }

    #[test]
    fn custom_combo_runs_and_unknown_spec_is_an_error() {
        let suite = SuiteConfig::new(8, 4).with_seed(1);
        let custom = PolicySpec {
            eviction: "random:7".into(),
            prefetch: "none".into(),
            ..PolicySpec::default()
        };
        assert_eq!(custom.to_string(), "random:7/none/none");
        let m = run_one("BFS-TTC", &CellPolicy::Custom(custom), None, &suite).unwrap();
        assert!(m.cycles > 0);
        let bad =
            CellPolicy::Custom(PolicySpec { eviction: "mru".into(), ..PolicySpec::default() });
        let err = run_one("BFS-TTC", &bad, None, &suite).unwrap_err();
        assert!(err.to_string().contains("unknown eviction policy"), "{err}");
    }

    #[test]
    fn inject_spec_is_parsed_next_to_the_policy_specs() {
        let suite = SuiteConfig::new(8, 4).with_seed(1);
        let custom = CellPolicy::Custom(PolicySpec::default());
        let run = |inject| run_one("BFS-TTC", &custom, inject, &suite);
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
        let baseline = CellPolicy::Preset(ConfigName::Baseline);
        let err = run_one("NO-SUCH-WORKLOAD", &baseline, None, &suite).unwrap_err();
        assert!(err.to_string().contains("NO-SUCH-WORKLOAD"));
    }

    #[test]
    fn invalid_config_is_reported_per_row_not_panicked() {
        let mut suite = SuiteConfig::new(8, 4).with_seed(1);
        suite.sim.gpu.num_sms = 0;
        let baseline = CellPolicy::Preset(ConfigName::Baseline);
        let err = run_one("BFS-TTC", &baseline, None, &suite).unwrap_err();
        assert!(err.to_string().contains("num_sms"), "{err}");
        // A degenerate suite ratio is a per-row error too, not a panic.
        for ratio in [0.0, f64::NAN] {
            let suite = SuiteConfig::new(8, 4).with_seed(1).with_ratio(ratio);
            let err = run_one("BFS-TTC", &baseline, None, &suite).unwrap_err();
            assert!(err.to_string().contains("memory_ratio"), "{err}");
        }
    }

    #[test]
    fn geomean_of_constants_is_the_constant() {
        let g = geomean([3.0; 11]);
        assert!((g - 3.0).abs() < 1e-12);
        assert!(geomean([]).is_nan(), "a point with no completed runs prints NaN");
    }

    #[test]
    fn a_suite_and_its_clones_read_one_graph_cache() {
        let suite = SuiteConfig::new(9, 4).with_seed(1);
        let mut variant = suite.clone().with_ratio(1.0);
        variant.sim.gpu.ctx_switch_fixed_cycles = 0;
        for w in ["BFS-TTC", "GC-TTC", "PR"] {
            assert!(Arc::ptr_eq(&suite.input(w), &variant.input(w)), "{w}");
        }
        assert_eq!(*suite.input("BFS-TTC"), gen::rmat(9, 4, 1));
        assert_eq!(*suite.input("GC-TTC"), gen::rmat(input_scale("GC-TTC", 9), 4, 1));
        assert_eq!(suite.graphs.len(), 2, "one graph per input scale");
    }

    #[test]
    fn a_grid_keeps_completed_runs_and_leaves_failed_ones_out() {
        let suite = SuiteConfig::new(8, 4).with_seed(1);
        let mut broken = suite.clone();
        broken.sim.gpu.num_sms = 0;
        let baseline = CellPolicy::Preset(ConfigName::Baseline);
        let variants =
            [("ok", suite.clone(), baseline.clone()), ("broken", broken, baseline.clone())];
        let runs = run_grid("test", &variants, &["BFS-TTC", "PR"]);
        assert_eq!(runs.complete(&["ok"]), ["BFS-TTC", "PR"]);
        assert!(runs.complete(&["ok", "broken"]).is_empty());
        let alone = run_one("PR", &baseline, None, &suite).unwrap();
        assert_eq!(runs.get("PR", "ok").cycles, alone.cycles);
    }
}
