//! The workloads and how one process measures one of them.

use crate::alloc;
use crate::speed;
use crate::stats::median;
use crate::uvm::{self, Recorder, ReplaySpec, Stage};
use crate::wrap::{self, Capture, FabTimes, Mode, Probed};
use batmem::policies::{registry_specs, ConfigName};
use batmem::probes::MetricsRow;
use batmem::{RunMetrics, SimConfig, Simulation};
use batmem_bench::sweep::{self, ArtifactStore, CellPolicy, CellRunner, PoolConfig, SweepPlan};
use batmem_graph::{gen, Csr};
use batmem_sim::ops::Workload;
use batmem_types::sweep::fnv1a_64;
use batmem_workloads::registry;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// R-MAT edge factor of every input.
pub const EDGE_FACTOR: u32 = 16;
/// Set-ups timed per process; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Timed units a process always measures, however short `--seconds` is.
pub const MIN_UNITS: usize = 3;
/// The seed the pinned simulated outputs were taken at.
pub const PINNED_SEED: u64 = 42;

/// One simulation run: a workload over an R-MAT graph under a policy given
/// only as registry spec strings.
#[derive(Debug, Clone)]
pub struct Case {
    pub workload: String,
    pub scale: u32,
    pub eviction: &'static str,
    pub prefetch: &'static str,
    pub oversub: &'static str,
    pub ratio: f64,
}

/// Simulated outputs of a single-run workload at [`PINNED_SEED`].
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    pub cycles: u64,
    pub mem_ops: u64,
    pub batches: u64,
    pub evictions: u64,
    pub ctx_switches: u64,
}

pub enum Kind {
    Single(Case, Pin),
    /// The 11 paper workloads × {BASELINE, TO+UE} through the sweep pool,
    /// with the sum of cell cycles pinned at [`PINNED_SEED`].
    Sweep {
        scale: u32,
        ratio: f64,
        pinned_cycle_sum: u64,
    },
}

pub struct Bench {
    pub name: &'static str,
    pub kind: Kind,
}

/// The benchmark's workloads, in `BENCHMARK.json` order (which also says
/// why each was chosen).
pub fn benches() -> Vec<Bench> {
    let case = |workload: &str, scale, eviction, oversub, ratio| Case {
        workload: workload.to_string(),
        scale,
        eviction,
        prefetch: "tree:50",
        oversub,
        ratio,
    };
    vec![
        Bench {
            name: "bfs-fit",
            kind: Kind::Single(
                case("BFS-TTC", 19, "lru", "none", 1.0),
                Pin {
                    cycles: 3_998_794,
                    mem_ops: 1_127_631,
                    batches: 54,
                    evictions: 0,
                    ctx_switches: 0,
                },
            ),
        },
        Bench {
            name: "sssp-thrash",
            kind: Kind::Single(
                case("SSSP-TWC", 17, "ue", "to", 0.25),
                Pin {
                    cycles: 12_058_798,
                    mem_ops: 1_299_676,
                    batches: 313,
                    evictions: 1_192,
                    ctx_switches: 95_860,
                },
            ),
        },
        Bench {
            name: "pr-evict",
            kind: Kind::Single(
                case("PR", 18, "lru", "none", 0.5),
                Pin {
                    cycles: 10_095_257,
                    mem_ops: 1_226_104,
                    batches: 100,
                    evictions: 909,
                    ctx_switches: 0,
                },
            ),
        },
        Bench {
            name: "suite-sweep",
            kind: Kind::Sweep { scale: 15, ratio: 0.5, pinned_cycle_sum: 747_733_106 },
        },
    ]
}

/// Attempted and failed units, with what went wrong.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one attempted unit, failed if `problems` is non-empty.
    fn unit(&mut self, label: &str, problems: Vec<String>) -> bool {
        self.attempted += 1;
        if problems.is_empty() {
            return true;
        }
        self.failed += 1;
        self.problems.extend(problems.into_iter().map(|p| format!("{label}: {p}")));
        false
    }
}

/// A successful run.
pub struct Run {
    pub metrics: RunMetrics,
    pub secs: f64,
    pub mem_mb: f64,
}

/// Builds `case`'s workload over `graph` and runs it, timing `try_run`
/// alone. A `SimError` or a panic comes back as `Err`.
pub fn run_case(
    case: &Case,
    graph: &Arc<Csr>,
    mode: Option<Mode>,
    probe: Option<Recorder>,
) -> Result<Run, String> {
    let workload = build(case, graph)?;
    let workload: Box<dyn Workload> = match mode {
        Some(mode) => Box::new(Probed::new(workload, mode)),
        None => workload,
    };
    let mut b = Simulation::builder()
        .eviction(case.eviction)
        .prefetch(case.prefetch)
        .oversubscription(case.oversub)
        .memory_ratio(case.ratio);
    if let Some(p) = probe {
        b = b.probe(p);
    }
    let baseline = alloc::reset_peak();
    let start = Instant::now();
    let r = panic::catch_unwind(AssertUnwindSafe(|| b.try_run(workload)));
    let secs = start.elapsed().as_secs_f64();
    let mem_mb = alloc::peak_growth_mb(baseline);
    match r {
        Ok(Ok(metrics)) => Ok(Run { metrics, secs, mem_mb }),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(panic_text(&*payload)),
    }
}

fn build(case: &Case, graph: &Arc<Csr>) -> Result<Box<dyn Workload>, String> {
    registry::build(&case.workload, Arc::clone(graph))
        .ok_or_else(|| format!("unknown workload {}", case.workload))
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    format!("panicked: {msg}")
}

/// A digest of every simulated output of a run.
pub fn digest(m: &RunMetrics) -> u64 {
    fnv1a_64(format!("{m:?}").as_bytes())
}

fn pin_problems(m: &RunMetrics, pin: &Pin) -> Vec<String> {
    let got = [m.cycles, m.mem_ops, m.uvm.num_batches(), m.uvm.evictions, m.ctx_switches];
    let want = [pin.cycles, pin.mem_ops, pin.batches, pin.evictions, pin.ctx_switches];
    ["cycles", "mem_ops", "batches", "evictions", "ctx_switches"]
        .iter()
        .zip(got.iter().zip(want))
        .filter(|(_, (g, w))| *g != w)
        .map(|(name, (g, w))| format!("{name} = {g}, pinned {w} at seed {PINNED_SEED}"))
        .collect()
}

/// Set-up timings: `SETUPS` × (generate the inputs, build the workloads).
#[derive(Debug, Default)]
pub struct Setup {
    pub total_s: Vec<f64>,
    pub gen_s: Vec<f64>,
    pub build_s: Vec<f64>,
}

impl Setup {
    /// Times `SETUPS` set-ups, each generating the graph of every scale
    /// `cases` use and building every case's workload over it; returns the
    /// last graphs, keyed by scale.
    fn measure(&mut self, cases: &[Case], seed: u64) -> Result<BTreeMap<u32, Arc<Csr>>, String> {
        let mut graphs = BTreeMap::new();
        for _ in 0..SETUPS {
            graphs.clear();
            let start = Instant::now();
            graphs = cases
                .iter()
                .map(|c| c.scale)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .map(|s| (s, Arc::new(gen::rmat(s, EDGE_FACTOR, seed))))
                .collect();
            let gen_s = start.elapsed().as_secs_f64();
            let built = Instant::now();
            for c in cases {
                drop(build(c, &graphs[&c.scale])?);
            }
            self.build_s.push(built.elapsed().as_secs_f64());
            self.gen_s.push(gen_s);
            self.total_s.push(start.elapsed().as_secs_f64());
        }
        Ok(graphs)
    }
}

/// Everything one process measured.
#[derive(Default)]
pub struct Measured {
    pub tally: Tally,
    pub setup: Setup,
    /// Host seconds per timed unit: a run, or a sweep set.
    pub unit_s: Vec<f64>,
    /// Peak heap growth per timed unit, MB; for a sweep set, that of its
    /// largest cell.
    pub unit_mem_mb: Vec<f64>,
    /// Simulated warp memory operations per unit.
    pub mem_ops: u64,
    /// Wall seconds of each simulation run inside the units (the units
    /// themselves for single runs, the cells of a sweep).
    pub cell_s: Vec<f64>,
    /// Threads the units ran on.
    pub workers: usize,
    /// Wall seconds of the timed loop.
    pub loop_s: f64,
    /// Host-speed kernel times, one before the set-up and one before each
    /// timed unit (see [`crate::speed`]).
    pub speed_s: Vec<f64>,
    /// The kernel time taken just before each entry of `unit_s`.
    pub unit_speed_s: Vec<f64>,
    /// Raw per-layer sums of a traced measurement.
    pub layers: Option<Raw>,
}

/// Per-layer sums: wall nanoseconds and counts, by key.
pub type Raw = BTreeMap<String, f64>;

fn add(raw: &mut Raw, key: &str, v: f64) {
    *raw.entry(key.to_string()).or_default() += v;
}

/// Measures a single-run workload.
pub fn single(case: &Case, pin: &Pin, seed: u64, seconds: u64, trace: bool) -> Measured {
    let mut m = Measured { workers: 1, ..Measured::default() };
    m.speed_s.push(speed::measure(1));
    let graph = match m.setup.measure(std::slice::from_ref(case), seed) {
        Ok(g) => g[&case.scale].clone(),
        Err(e) => {
            m.tally.unit("set-up", vec![e]);
            return m;
        }
    };
    let mut reference: Option<RunMetrics> = None;
    let mut check = |label: &str, r: Result<Run, String>, tally: &mut Tally| -> Option<Run> {
        let run = match r {
            Ok(run) => run,
            Err(e) => {
                tally.unit(label, vec![e]);
                return None;
            }
        };
        let mut problems = Vec::new();
        if seed == PINNED_SEED {
            problems.extend(pin_problems(&run.metrics, pin));
        }
        match &reference {
            Some(r) if digest(r) != digest(&run.metrics) => {
                problems.push("simulated outputs differ from the first run's".into());
            }
            Some(_) => {}
            None => reference = Some(run.metrics.clone()),
        }
        tally.unit(label, problems).then_some(run)
    };
    check("warm-up", run_case(case, &graph, None, None), &mut m.tally);
    let start = Instant::now();
    let mut attempts = 0;
    while attempts < MIN_UNITS || start.elapsed() < Duration::from_secs(seconds) {
        attempts += 1;
        let speed = speed::measure(1);
        m.speed_s.push(speed);
        if let Some(run) = check("run", run_case(case, &graph, None, None), &mut m.tally) {
            m.unit_s.push(run.secs);
            m.unit_speed_s.push(speed);
            m.unit_mem_mb.push(run.mem_mb);
            m.mem_ops = run.metrics.mem_ops;
        }
    }
    m.loop_s = start.elapsed().as_secs_f64();
    m.cell_s = m.unit_s.clone();
    if trace {
        if let (Some(reference), Some(untraced_s)) = (reference, median(&m.unit_s)) {
            let mut raw = Raw::new();
            trace_case(case, &graph, &reference, untraced_s, &mut raw, &mut m.tally);
            m.layers = Some(raw);
        }
    }
    m
}

/// The traced and the capture run of one case, and the UVM replay, added
/// into `raw`. `reference` is an untraced run of the case and
/// `untraced_s` its host time.
fn trace_case(
    case: &Case,
    graph: &Arc<Csr>,
    reference: &RunMetrics,
    untraced_s: f64,
    raw: &mut Raw,
    tally: &mut Tally,
) {
    let same = |m: &RunMetrics, what: &str| {
        (digest(m) != digest(reference))
            .then(|| format!("{what} run's simulated outputs differ from the untraced run's"))
    };
    // Traced run: the workload layer timed, every probe event counted.
    let times = Arc::new(FabTimes::default());
    let recorder = Recorder::default();
    let traced =
        run_case(case, graph, Some(Mode::Time(Arc::clone(&times))), Some(recorder.clone()));
    let recorded = recorder.take();
    let traced = match traced {
        Ok(run) => {
            let m = &run.metrics;
            let count = |kind: &str| recorded.counts.get(kind).copied().unwrap_or(0);
            let mut problems: Vec<String> = same(m, "traced").into_iter().collect();
            for (kind, want) in [
                ("fault_raised", m.uvm.faults_raised),
                ("batch_opened", m.uvm.num_batches()),
                ("context_switch", m.ctx_switches),
            ] {
                if count(kind) != want {
                    problems.push(format!("{} {kind} events, RunMetrics says {want}", count(kind)));
                }
            }
            let streams = times.streams.load(Relaxed);
            if streams != m.warps_retired {
                problems.push(format!("{streams} streams built for {} warps", m.warps_retired));
            }
            tally.unit(&format!("traced {}", case.workload), problems).then_some(run)
        }
        Err(e) => {
            tally.unit(&format!("traced {}", case.workload), vec![e]);
            None
        }
    };
    let Some(traced) = traced else { return };
    // Capture run: memory operations replayed through the MMU and the
    // data path as they issue.
    let capture = Arc::new(Mutex::new(Capture::new(&SimConfig::default())));
    let captured = run_case(case, graph, Some(Mode::Capture(Arc::clone(&capture))), None);
    let replays = capture.lock().expect("capture lock poisoned").finish();
    let mut problems = Vec::new();
    match &captured {
        Ok(run) => problems.extend(same(&run.metrics, "capture")),
        Err(e) => problems.push(e.clone()),
    }
    problems.extend(replays.error.clone());
    let drained =
        build(case, graph).map(|w| wrap::drain(w.as_ref(), SimConfig::default().gpu.warp_size));
    if let Err(e) = &drained {
        problems.push(e.clone());
    }
    let uvm = uvm::replay(
        &ReplaySpec {
            eviction: case.eviction,
            prefetch: case.prefetch,
            ratio: case.ratio,
            footprint_bytes: reference.footprint_bytes,
        },
        &recorded.faults,
    );
    if let Err(e) = &uvm {
        problems.push(format!("UVM replay: {e}"));
    }
    if !tally.unit(&format!("capture {}", case.workload), problems) {
        return;
    }
    let (uvm, drained) = (uvm.expect("checked above"), drained.expect("checked above"));

    let m = reference;
    for (key, v) in [
        ("untraced_s", untraced_s),
        ("traced_s", traced.secs),
        ("kernel_ns", times.kernel_ns.load(Relaxed) as f64),
        ("kernels", times.kernels.load(Relaxed) as f64),
        ("stream_ns", times.stream_ns.load(Relaxed) as f64),
        ("streams", times.streams.load(Relaxed) as f64),
        ("next_op_ns", drained.next_op_ns as f64),
        ("ops", drained.ops as f64),
        ("mem_txns", drained.mem_txns as f64),
        ("mempath_ns", replays.mempath_ns as f64),
        ("accesses", replays.accesses as f64),
        ("l1d_hits", replays.l1d_hits as f64),
        ("l2d_hits", replays.l2d_hits as f64),
        ("l2d_accesses", replays.l2d_accesses as f64),
        ("translate_ns", replays.translate_ns as f64),
        ("translates", replays.translates as f64),
        ("l1_tlb_hits", replays.l1_tlb_hits as f64),
        ("l1_tlb_lookups", replays.l1_tlb_lookups as f64),
        ("walks", replays.walks as f64),
        ("replay_batches", uvm.batches as f64),
        ("faults", m.uvm.faults_raised as f64),
        ("batches", m.uvm.num_batches() as f64),
        ("evictions", m.uvm.evictions as f64),
        ("premature", m.uvm.premature_evictions as f64),
        ("sim_cycles", m.cycles as f64),
        ("mem_ops", m.mem_ops as f64),
        ("ctx_switches", m.ctx_switches as f64),
    ] {
        add(raw, key, v);
    }
    for stage in Stage::ALL {
        let (ns, calls) = uvm.stages[stage as usize];
        add(raw, &format!("uvm_{}_ns", stage.stem()), ns as f64);
        add(raw, &format!("uvm_{}s", stage.stem()), calls as f64);
    }
    for kind in EVENT_KINDS {
        add(raw, kind, recorded.counts.get(kind).copied().unwrap_or(0) as f64);
    }
}

/// Probe event kinds reported as `core.events.<kind>`.
pub const EVENT_KINDS: [&str; 5] =
    ["fault_raised", "batch_opened", "context_switch", "warp_stalled", "eviction_begun"];

/// The graph scale a sweep cell of `workload` runs at: the sweep gives the
/// coloring workloads a smaller input (`batmem_bench::sweep::run_cell`).
fn input_scale(workload: &str, scale: u32) -> u32 {
    if workload.starts_with("GC-") {
        scale.saturating_sub(3).max(8)
    } else {
        scale
    }
}

/// Sweep workers: at most two, and never more than the cores.
pub fn sweep_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get()).min(2)
}

/// Measures the sweep workload: sets of all cells through
/// `sweep::run_sweep`, each into a fresh store, with every cell timed by a
/// wrapper around the production `CellRunner`.
pub fn suite(
    scale: u32,
    ratio: f64,
    pinned_cycle_sum: u64,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Measured {
    let workers = sweep_workers();
    let mut m = Measured { workers, ..Measured::default() };
    let plan = SweepPlan {
        workloads: registry::irregular_names().iter().map(|s| s.to_string()).collect(),
        policies: vec![
            CellPolicy::Preset(ConfigName::Baseline),
            CellPolicy::Preset(ConfigName::ToUe),
        ],
        scales: vec![scale],
        edge_factors: vec![EDGE_FACTOR],
        ratios: vec![ratio],
        seeds: vec![seed],
        ..SweepPlan::default()
    };
    let cells = match plan.cells() {
        Ok(c) => c,
        Err(e) => {
            m.tally.unit("sweep plan", vec![e.to_string()]);
            return m;
        }
    };
    let cases: Vec<(String, Case)> = cells
        .iter()
        .filter_map(|cell| {
            let CellPolicy::Preset(name) = cell.policy else { return None };
            let specs = registry_specs(name);
            let case = Case {
                workload: cell.workload.clone(),
                scale: input_scale(&cell.workload, cell.scale),
                eviction: specs.eviction,
                prefetch: specs.prefetch,
                oversub: specs.oversubscription,
                ratio: cell.ratio,
            };
            Some((cell.label(), case))
        })
        .collect();
    let all_cases: Vec<Case> = cases.iter().map(|(_, c)| c.clone()).collect();
    m.speed_s.push(speed::measure(workers));
    let graphs = match m.setup.measure(&all_cases, seed) {
        Ok(g) => g,
        Err(e) => {
            m.tally.unit("set-up", vec![e]);
            return m;
        }
    };

    // Warm-up: every cell run directly (not through the pool) on the
    // same number of threads, for the reference outputs of each cell.
    let next = AtomicUsize::new(0);
    let warm: Vec<Mutex<Option<Result<Run, String>>>> =
        cases.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Relaxed);
                let Some((_, case)) = cases.get(i) else { break };
                let r = run_case(case, &graphs[&case.scale], None, None);
                *warm[i].lock().expect("warm-up slot lock poisoned") = Some(r);
            });
        }
    });
    let mut reference: BTreeMap<String, RunMetrics> = BTreeMap::new();
    for ((label, _), slot) in cases.iter().zip(warm) {
        match slot.into_inner().expect("warm-up slot lock poisoned") {
            Some(Ok(run)) => {
                m.tally.unit(label, Vec::new());
                reference.insert(label.clone(), run.metrics);
            }
            Some(Err(e)) => {
                m.tally.unit(label, vec![e]);
            }
            None => {
                m.tally.unit(label, vec!["never ran".into()]);
            }
        }
    }
    if reference.len() != cases.len() {
        return m;
    }
    m.mem_ops = reference.values().map(|r| r.mem_ops).sum();
    let cycle_sum: u64 = reference.values().map(|r| r.cycles).sum();
    if seed == PINNED_SEED && cycle_sum != pinned_cycle_sum {
        m.tally.unit(
            "sweep",
            vec![format!(
                "cell cycles sum to {cycle_sum}, pinned {pinned_cycle_sum} at seed {PINNED_SEED}"
            )],
        );
    }

    let start = Instant::now();
    let mut set = 0;
    while set < MIN_UNITS || start.elapsed() < Duration::from_secs(seconds) {
        set += 1;
        let speed = speed::measure(workers);
        m.speed_s.push(speed);
        match sweep_set(&cells, workers, set) {
            Ok(run) => {
                for (label, _) in &cases {
                    m.tally.unit(label, row_problems(run.rows.get(label), &reference[label]));
                }
                m.unit_s.push(run.secs);
                m.unit_speed_s.push(speed);
                m.unit_mem_mb.push(run.cells.iter().map(|c| c.1).fold(0.0, f64::max));
                m.cell_s.extend(run.cells.iter().map(|c| c.0));
            }
            Err(e) => {
                m.tally.unit(&format!("sweep set {set}"), vec![e]);
            }
        }
    }
    m.loop_s = start.elapsed().as_secs_f64();

    if trace {
        let mut raw = Raw::new();
        for (label, case) in &cases {
            let graph = &graphs[&case.scale];
            match run_case(case, graph, None, None) {
                Ok(run) => {
                    let mut problems = Vec::new();
                    if reference.get(label).map(digest) != Some(digest(&run.metrics)) {
                        problems.push("simulated outputs differ from the warm-up run's".into());
                    }
                    if m.tally.unit(label, problems) {
                        trace_case(case, graph, &run.metrics, run.secs, &mut raw, &mut m.tally);
                    }
                }
                Err(e) => {
                    m.tally.unit(label, vec![e]);
                }
            }
        }
        m.layers = Some(raw);
    }
    m
}

/// The counters a sweep row shares with `RunMetrics` must match the
/// direct run of the same cell.
fn row_problems(row: Option<&MetricsRow>, reference: &RunMetrics) -> Vec<String> {
    let Some(row) = row else { return vec!["no completed record".into()] };
    let r = reference;
    let got = [row.cycles, row.batches, row.evictions, row.ctx_switches, row.faults_raised];
    let want =
        [r.cycles, r.uvm.num_batches(), r.uvm.evictions, r.ctx_switches, r.uvm.faults_raised];
    if got == want {
        Vec::new()
    } else {
        vec![format!("sweep row {got:?} differs from the direct run's {want:?}")]
    }
}

/// One timed sweep set.
struct SetRun {
    secs: f64,
    /// Each cell's (wall seconds, peak heap growth MB).
    cells: Vec<(f64, f64)>,
    /// Completed rows by cell label.
    rows: BTreeMap<String, MetricsRow>,
}

/// Runs every cell through the pool into a fresh store.
fn sweep_set(cells: &[sweep::SweepCell], workers: usize, set: usize) -> Result<SetRun, String> {
    let dir = store_dir(set);
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let inner = sweep::cell_runner(SimConfig::default());
    let cell_runs = Arc::new(Mutex::new(Vec::new()));
    let timed = Arc::clone(&cell_runs);
    let runner: CellRunner = Arc::new(move |cell| {
        let baseline = alloc::reset_peak();
        let start = Instant::now();
        let r = inner(cell);
        let run = (start.elapsed().as_secs_f64(), alloc::peak_growth_mb(baseline));
        timed.lock().expect("cell timing lock poisoned").push(run);
        r
    });
    let config = PoolConfig { workers, max_retries: 0, ..PoolConfig::default() };
    let cancel = AtomicBool::new(false);
    let start = Instant::now();
    let report = sweep::run_sweep(cells, &store, &config, &cancel, runner);
    let secs = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    let report = report.map_err(|e| e.to_string())?;
    for failure in report.failures() {
        eprintln!("batbench: {}", failure.report_line());
    }
    let rows = report.records.into_iter().filter_map(|r| r.row.map(|row| (r.label, row))).collect();
    let cells = std::mem::take(&mut *cell_runs.lock().expect("cell timing lock poisoned"));
    Ok(SetRun { secs, cells, rows })
}

/// A scratch store for one set, under this package's build directory.
fn store_dir(set: usize) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("sweep-store-{}-{set}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(eviction: &'static str, oversub: &'static str, ratio: f64) -> Case {
        Case { workload: "BFS-TTC".into(), scale: 8, eviction, prefetch: "tree:50", oversub, ratio }
    }

    #[test]
    fn wrappers_leave_the_simulation_unchanged() {
        for case in [
            tiny("lru", "none", 1.0),
            tiny("ue", "to", 0.25),
            Case { workload: "PR".into(), ..tiny("lru", "none", 0.5) },
        ] {
            let graph = Arc::new(gen::rmat(case.scale, 4, 7));
            let plain = run_case(&case, &graph, None, None).unwrap().metrics;
            let times = Arc::new(FabTimes::default());
            let timed = run_case(
                &case,
                &graph,
                Some(Mode::Time(Arc::clone(&times))),
                Some(Recorder::default()),
            )
            .unwrap()
            .metrics;
            let capture = Arc::new(Mutex::new(Capture::new(&SimConfig::default())));
            let captured = run_case(&case, &graph, Some(Mode::Capture(Arc::clone(&capture))), None)
                .unwrap()
                .metrics;
            assert_eq!(digest(&plain), digest(&timed), "{case:?}");
            assert_eq!(digest(&plain), digest(&captured), "{case:?}");
            assert_eq!(times.streams.load(Relaxed), plain.warps_retired);
            let replays = capture.lock().unwrap().finish();
            assert!(replays.error.is_none(), "{:?}", replays.error);
            let drained = wrap::drain(build(&case, &graph).unwrap().as_ref(), 32);
            assert_eq!(replays.accesses, drained.mem_txns, "{case:?}");
        }
    }

    #[test]
    fn every_replay_runs_on_every_policy() {
        for case in [tiny("lru", "none", 1.0), tiny("ue", "to", 0.25), tiny("lru", "none", 0.5)] {
            let graph = Arc::new(gen::rmat(case.scale, 4, 7));
            let reference = run_case(&case, &graph, None, None).unwrap().metrics;
            let mut raw = Raw::new();
            let mut tally = Tally::default();
            trace_case(&case, &graph, &reference, 1.0, &mut raw, &mut tally);
            assert_eq!(tally.failed, 0, "{:?}", tally.problems);
            assert_eq!(tally.attempted, 2);
            assert!(raw["accesses"] > 0.0 && raw["translates"] > 0.0);
            assert_eq!(raw["uvm_captures"] > 0.0, reference.uvm.faults_raised > 0);
            assert!(raw["replay_batches"] > 0.0);
        }
    }

    #[test]
    fn a_changed_output_fails_the_pin() {
        let case = tiny("lru", "none", 1.0);
        let graph = Arc::new(gen::rmat(case.scale, 4, 7));
        let m = run_case(&case, &graph, None, None).unwrap().metrics;
        let pin = Pin {
            cycles: m.cycles,
            mem_ops: m.mem_ops,
            batches: m.uvm.num_batches(),
            evictions: m.uvm.evictions,
            ctx_switches: m.ctx_switches,
        };
        assert!(pin_problems(&m, &pin).is_empty());
        let off = Pin { cycles: m.cycles + 1, ..pin };
        assert_eq!(pin_problems(&m, &off).len(), 1);
    }
}
