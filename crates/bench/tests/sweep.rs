//! Integration tests for the fault-tolerant sweep service: differential
//! (pool vs. serial), kill/resume, and failure-path (chaos) coverage.

use batmem::policies::ConfigName;
use batmem::probes::MetricsRow;
use batmem::SimConfig;
use batmem_bench::sweep::{
    self, run_sweep, ArtifactStore, CellPolicy, CellRunner, GraphCache, PoolConfig, SweepCell,
    SweepPlan,
};
use batmem_bench::BenchError;
use batmem_types::sweep::{Backoff, OutcomeKind};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("batmem-sweep-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small-but-real plan: one workload across every Fig. 11 preset.
fn preset_plan() -> SweepPlan {
    SweepPlan {
        workloads: vec!["BFS-TTC".into()],
        policies: ConfigName::all().iter().map(|&c| CellPolicy::Preset(c)).collect(),
        scales: vec![7],
        edge_factors: vec![4],
        ratios: vec![0.5],
        seeds: vec![42],
        inject: None,
        coalesce: None,
        fault_servicing: None,
        tag: String::new(),
    }
}

/// Fast retries for tests that exercise the backoff path.
fn fast_pool(workers: usize, max_retries: u32) -> PoolConfig {
    PoolConfig {
        workers,
        max_retries,
        cell_timeout: None,
        backoff: Backoff { base: Duration::from_millis(1), cap: Duration::from_millis(4) },
        progress_every: None,
    }
}

/// A synthetic cell for pool-only tests (never actually simulated).
fn synthetic_cell(workload: &str) -> SweepCell {
    SweepCell {
        workload: workload.into(),
        policy: CellPolicy::Preset(ConfigName::Baseline),
        scale: 7,
        edge_factor: 4,
        ratio: 0.5,
        seed: 42,
        inject: None,
        coalesce: None,
        fault_servicing: None,
        tag: "synthetic".into(),
    }
}

fn fake_row(label: String) -> MetricsRow {
    MetricsRow { label, cycles: 1, ..MetricsRow::default() }
}

/// Differential test: an N-worker sweep must produce byte-identical
/// per-cell metrics rows to running every cell serially through the same
/// `run_cell` path, across all eight paper presets.
#[test]
fn pool_matches_serial_run_on_every_preset() {
    let cells = preset_plan().cells().unwrap();
    assert_eq!(cells.len(), ConfigName::all().len());

    // Serial reference: one-by-one in plan order.
    let graphs = GraphCache::new();
    let sim = SimConfig::default();
    let serial: HashMap<String, String> = cells
        .iter()
        .map(|c| {
            let row = sweep::run_cell(c, &sim, &graphs).expect("serial run succeeds");
            (c.label(), row.to_csv_row())
        })
        .collect();

    // Pooled run, four workers.
    let store = ArtifactStore::open(tmpdir("differential")).unwrap();
    let cancel = AtomicBool::new(false);
    let report = run_sweep(
        &cells,
        &store,
        &fast_pool(4, 0),
        &cancel,
        sweep::cell_runner(SimConfig::default()),
    )
    .unwrap();

    assert!(report.failures().is_empty(), "{:?}", report.failures());
    assert_eq!(report.records.len(), cells.len());
    for rec in &report.records {
        let row = rec.row.as_ref().expect("completed record has a row");
        assert_eq!(
            Some(&row.to_csv_row()),
            serial.get(&rec.label),
            "pooled row for {} must be byte-identical to the serial run",
            rec.label
        );
    }
    let _ = std::fs::remove_dir_all(store.dir());
}

/// Determinism through the pool: the merged `sweep.csv` must not depend on
/// worker count (records are sorted at flush).
#[test]
fn merged_artifacts_are_worker_count_independent() {
    let cells = preset_plan().cells().unwrap();
    let mut csvs = Vec::new();
    for workers in [1, 4] {
        let store = ArtifactStore::open(tmpdir(&format!("workers-{workers}"))).unwrap();
        let cancel = AtomicBool::new(false);
        let report = run_sweep(
            &cells,
            &store,
            &fast_pool(workers, 0),
            &cancel,
            sweep::cell_runner(SimConfig::default()),
        )
        .unwrap();
        assert!(report.failures().is_empty());
        csvs.push(std::fs::read_to_string(store.dir().join("sweep.csv")).unwrap());
        let _ = std::fs::remove_dir_all(store.dir());
    }
    assert_eq!(csvs[0], csvs[1], "sweep.csv must be identical for 1 vs 4 workers");
}

/// Kill/resume: drop cell records mid-sweep (simulated crash), restart with
/// the same plan, and the final artifact set must be complete and
/// byte-identical to an uninterrupted run.
#[test]
fn killed_sweep_resumes_losslessly() {
    let cells = preset_plan().cells().unwrap();
    let runner = || sweep::cell_runner(SimConfig::default());
    let cancel = AtomicBool::new(false);

    // Uninterrupted reference run.
    let ref_store = ArtifactStore::open(tmpdir("resume-ref")).unwrap();
    run_sweep(&cells, &ref_store, &fast_pool(2, 0), &cancel, runner()).unwrap();
    let reference = std::fs::read_to_string(ref_store.dir().join("sweep.csv")).unwrap();

    // "Crashed" run: complete everything, then destroy two records and
    // truncate a third to simulate a kill mid-write.
    let store = ArtifactStore::open(tmpdir("resume-crash")).unwrap();
    run_sweep(&cells, &store, &fast_pool(2, 0), &cancel, runner()).unwrap();
    let cell_file = |c: &SweepCell| store.dir().join("cells").join(format!("{}.json", c.id()));
    std::fs::remove_file(cell_file(&cells[0])).unwrap();
    std::fs::remove_file(cell_file(&cells[3])).unwrap();
    let half = std::fs::read_to_string(cell_file(&cells[5])).unwrap();
    std::fs::write(cell_file(&cells[5]), &half[..half.len() / 2]).unwrap();

    // Resume: only the three destroyed cells re-run.
    let report = run_sweep(&cells, &store, &fast_pool(2, 0), &cancel, runner()).unwrap();
    assert_eq!(report.discarded, 1, "the truncated record is detected and discarded");
    assert_eq!(report.resumed.len(), cells.len() - 3, "intact records are skipped");
    assert_eq!(report.records.len(), 3, "exactly the destroyed cells re-run");
    assert!(report.failures().is_empty());

    let resumed_csv = std::fs::read_to_string(store.dir().join("sweep.csv")).unwrap();
    assert_eq!(resumed_csv, reference, "resumed artifacts match the uninterrupted run");
    let _ = std::fs::remove_dir_all(ref_store.dir());
    let _ = std::fs::remove_dir_all(store.dir());
}

/// Acceptance scenario: a matrix with an always-failing cell and an
/// always-panicking cell completes the rest and quarantines both with
/// typed outcomes — the pool itself never panics or errors.
#[test]
fn failing_and_panicking_cells_are_quarantined_not_fatal() {
    let cells: Vec<SweepCell> =
        ["ok-1", "boom", "ok-2", "fail", "ok-3", "ok-4"].map(synthetic_cell).into();
    let runner: CellRunner = Arc::new(|cell: &SweepCell| match cell.workload.as_str() {
        "boom" => panic!("deliberate test panic in {}", cell.workload),
        "fail" => Err(BenchError::msg("deliberate failure")),
        _ => Ok(fake_row(cell.label())),
    });
    let store = ArtifactStore::open(tmpdir("quarantine")).unwrap();
    let cancel = AtomicBool::new(false);
    let report = run_sweep(&cells, &store, &fast_pool(3, 1), &cancel, runner).unwrap();

    assert_eq!(report.completed(), 4, "healthy cells complete despite the sick ones");
    let failures = report.failures();
    assert_eq!(failures.len(), 2);
    for rec in &failures {
        assert_eq!(rec.attempts, 2, "one retry before quarantine");
        match rec.label.split('/').next().unwrap() {
            "boom" => {
                assert_eq!(rec.outcome, OutcomeKind::Panicked);
                assert!(rec.error.as_deref().unwrap().contains("deliberate test panic"));
            }
            "fail" => {
                assert_eq!(rec.outcome, OutcomeKind::Failed);
                assert!(rec.error.as_deref().unwrap().contains("deliberate failure"));
            }
            other => panic!("unexpected quarantined cell {other}"),
        }
    }
    let failed_json = std::fs::read_to_string(store.dir().join("failed_cells.json")).unwrap();
    assert!(failed_json.contains("\"outcome\":\"panicked\""));
    assert!(failed_json.contains("\"outcome\":\"failed\""));
    let _ = std::fs::remove_dir_all(store.dir());
}

/// A cell that blows its wall-clock deadline is abandoned, retried, and
/// finally quarantined as `timed_out`.
#[test]
fn hung_cells_hit_the_wall_clock_deadline() {
    let cells = vec![synthetic_cell("slow"), synthetic_cell("quick")];
    let runner: CellRunner = Arc::new(|cell: &SweepCell| {
        if cell.workload == "slow" {
            std::thread::sleep(Duration::from_secs(5));
        }
        Ok(fake_row(cell.label()))
    });
    let cfg = PoolConfig { cell_timeout: Some(Duration::from_millis(50)), ..fast_pool(2, 1) };
    let store = ArtifactStore::open(tmpdir("deadline")).unwrap();
    let cancel = AtomicBool::new(false);
    let report = run_sweep(&cells, &store, &cfg, &cancel, runner).unwrap();

    assert_eq!(report.completed(), 1);
    let failures = report.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].outcome, OutcomeKind::TimedOut);
    assert_eq!(failures[0].attempts, 2);
    assert!(
        failures[0].error.as_deref().unwrap().contains("watchdog_event_budget"),
        "the timeout record points at the in-sim watchdog layer"
    );
    let _ = std::fs::remove_dir_all(store.dir());
}

/// A flaky cell that fails its first attempt succeeds on retry, and the
/// record keeps the attempt count.
#[test]
fn flaky_cells_recover_under_retry_with_backoff() {
    let cells: Vec<SweepCell> = ["flaky-a", "flaky-b", "flaky-c"].map(synthetic_cell).into();
    let attempts: Arc<Mutex<HashMap<String, u32>>> = Arc::new(Mutex::new(HashMap::new()));
    let seen = Arc::clone(&attempts);
    let runner: CellRunner = Arc::new(move |cell: &SweepCell| {
        let mut seen = seen.lock().unwrap();
        let n = seen.entry(cell.workload.clone()).or_insert(0);
        *n += 1;
        if *n == 1 {
            Err(BenchError::msg("transient failure"))
        } else {
            Ok(fake_row(cell.label()))
        }
    });
    let store = ArtifactStore::open(tmpdir("flaky")).unwrap();
    let cancel = AtomicBool::new(false);
    let report = run_sweep(&cells, &store, &fast_pool(2, 2), &cancel, runner).unwrap();

    assert!(report.failures().is_empty());
    assert_eq!(report.completed(), 3);
    for rec in &report.records {
        assert_eq!(rec.attempts, 2, "{}: first attempt fails, retry succeeds", rec.label);
    }
    let _ = std::fs::remove_dir_all(store.dir());
}

/// Cancelling mid-sweep drains gracefully (in-flight cells finish, the
/// queue is abandoned, the store is flushed) and a resumed sweep finishes
/// the abandoned cells losslessly.
#[test]
fn cancelled_sweep_drains_and_resumes() {
    let cells: Vec<SweepCell> = ["c1", "c2", "c3", "c4"].map(synthetic_cell).into();
    let cancel = Arc::new(AtomicBool::new(false));
    let tripwire = Arc::clone(&cancel);
    let runner: CellRunner = Arc::new(move |cell: &SweepCell| {
        // The first cell to run pulls the plug on the rest of the sweep.
        tripwire.store(true, Ordering::SeqCst);
        Ok(fake_row(cell.label()))
    });
    let store = ArtifactStore::open(tmpdir("drain")).unwrap();
    let report = run_sweep(&cells, &store, &fast_pool(1, 0), &cancel, runner).unwrap();

    assert!(report.cancelled);
    assert_eq!(report.records.len(), 1, "the in-flight cell finished and was recorded");
    assert_eq!(report.abandoned, 3, "queued cells were abandoned, not decided");

    // Resume with the flag cleared: only the abandoned cells run.
    cancel.store(false, Ordering::SeqCst);
    let runner: CellRunner = Arc::new(|cell: &SweepCell| Ok(fake_row(cell.label())));
    let report = run_sweep(&cells, &store, &fast_pool(2, 0), &cancel, runner).unwrap();
    assert!(!report.cancelled);
    assert_eq!(report.resumed.len(), 1);
    assert_eq!(report.records.len(), 3);
    assert_eq!(report.completed(), 3);
    let _ = std::fs::remove_dir_all(store.dir());
}

/// A record of the v1 layout, which kept the counters as one positional
/// CSV string, as a scale-8 sweep wrote it.
const V1_RECORD: &str = r#"{"v":1,"id":"6c4a1344be2e23f4","label":"BFS-TTC/BASELINE@s8e16r0.5x42","outcome":"completed","attempts":1,"row":"BFS-TTC/BASELINE@s8e16r0.5x42,136448,4,4,11,0,3,7,458752,4,0,1,11,11,0,0,40,736,16,0,16,0,0,0,13","complete":true}"#;

/// Older-format records are unreadable: `load` discards them, and a
/// resumed sweep re-runs their cells and writes them in the current layout.
#[test]
fn v1_records_are_discarded_and_their_cells_rerun() {
    let cell =
        SweepCell { scale: 8, edge_factor: 16, tag: String::new(), ..synthetic_cell("BFS-TTC") };
    assert_eq!(cell.id().to_string(), "6c4a1344be2e23f4");
    assert_eq!(cell.label(), "BFS-TTC/BASELINE@s8e16r0.5x42");
    let store = ArtifactStore::open(tmpdir("v1")).unwrap();
    let file = store.dir().join("cells").join(format!("{}.json", cell.id()));
    std::fs::write(&file, V1_RECORD).unwrap();
    let loaded = store.load().unwrap();
    assert!(loaded.records.is_empty());
    assert_eq!(loaded.discarded, 1);
    assert!(!file.exists(), "the unreadable record is deleted");

    std::fs::write(&file, V1_RECORD).unwrap();
    let runs = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&runs);
    let runner: CellRunner = Arc::new(move |cell: &SweepCell| {
        counted.fetch_add(1, Ordering::SeqCst);
        Ok(fake_row(cell.label()))
    });
    let cancel = AtomicBool::new(false);
    let report = run_sweep(&[cell], &store, &fast_pool(1, 0), &cancel, runner).unwrap();
    assert_eq!(report.discarded, 1);
    assert!(report.resumed.is_empty());
    assert_eq!((report.completed(), runs.load(Ordering::SeqCst)), (1, 1));
    let rewritten = std::fs::read_to_string(&file).unwrap();
    assert!(rewritten.starts_with("{\"v\":2,"), "{rewritten}");
    let _ = std::fs::remove_dir_all(store.dir());
}

/// Quarantined records do not block resume: a re-run sweep retries the
/// failed cell and overwrites its record on success.
#[test]
fn quarantined_cells_rerun_on_resume() {
    let cells = vec![synthetic_cell("heals")];
    let store = ArtifactStore::open(tmpdir("requarantine")).unwrap();
    let cancel = AtomicBool::new(false);

    let always_fail: CellRunner = Arc::new(|_: &SweepCell| Err(BenchError::msg("still broken")));
    let report = run_sweep(&cells, &store, &fast_pool(1, 0), &cancel, always_fail).unwrap();
    assert_eq!(report.failures().len(), 1);

    let healed: CellRunner = Arc::new(|cell: &SweepCell| Ok(fake_row(cell.label())));
    let report = run_sweep(&cells, &store, &fast_pool(1, 0), &cancel, healed).unwrap();
    assert!(report.resumed.is_empty(), "a quarantined record is not treated as done");
    assert_eq!(report.completed(), 1);

    let loaded = store.load().unwrap();
    assert_eq!(loaded.records.len(), 1);
    assert_eq!(loaded.records[0].outcome, OutcomeKind::Completed);
    let _ = std::fs::remove_dir_all(store.dir());
}

/// Chaos through the real simulator: `lost:seed:every` strands in-flight
/// batches, the in-sim watchdog surfaces a typed deadlock, and the pool
/// quarantines the cell as `failed` after retries.
#[test]
fn injected_lost_completions_quarantine_with_a_typed_error() {
    let plan = SweepPlan {
        workloads: vec!["BFS-TTC".into()],
        policies: vec![CellPolicy::Preset(ConfigName::Baseline)],
        scales: vec![7],
        edge_factors: vec![4],
        ratios: vec![0.5],
        seeds: vec![42],
        inject: Some("lost:1:2".into()),
        coalesce: None,
        fault_servicing: None,
        tag: String::new(),
    };
    let cells = plan.cells().unwrap();
    let store = ArtifactStore::open(tmpdir("inject-lost")).unwrap();
    let cancel = AtomicBool::new(false);
    let report = run_sweep(
        &cells,
        &store,
        &fast_pool(1, 1),
        &cancel,
        sweep::cell_runner(SimConfig::default()),
    )
    .unwrap();

    let failures = report.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].outcome, OutcomeKind::Failed);
    assert_eq!(failures[0].attempts, 2);
    let err = failures[0].error.as_deref().unwrap();
    assert!(
        err.contains("deadlock") || err.contains("livelock") || err.contains("watchdog"),
        "the simulator's typed diagnosis survives into the record: {err}"
    );
    let _ = std::fs::remove_dir_all(store.dir());
}
