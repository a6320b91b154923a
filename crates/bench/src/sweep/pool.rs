//! The fault-tolerant worker pool: bounded job queue → N workers → one
//! results/writer thread streaming records into the artifact store.
//!
//! Robustness contract, per cell:
//!
//! * a panic is caught ([`std::panic::catch_unwind`]) and demoted to a
//!   `Panicked` record — it never takes down the pool;
//! * an optional wall-clock deadline is layered on top of the in-sim
//!   `watchdog_event_budget`: the attempt runs on a disposable thread and
//!   is abandoned if it blows the deadline (the in-sim watchdog
//!   eventually reaps the stray run);
//! * failed, panicked, and timed-out attempts are retried up to
//!   `max_retries` times under bounded exponential [`Backoff`], then
//!   quarantined as a typed [`CellRecord`];
//! * setting the cancel flag (the binary wires it to SIGINT) triggers a
//!   graceful drain: in-flight cells finish or time out, the queue is
//!   abandoned, the store is flushed — a killed sweep resumes losslessly
//!   because undecided cells simply have no record yet.

use super::outcome::{AttemptOutcome, CellRecord};
use super::plan::SweepCell;
use super::store::ArtifactStore;
use crate::error::BenchError;
use batmem::probes::MetricsRow;
use batmem_types::sweep::{Backoff, CellId};
use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The function a worker applies to one cell. The production runner is
/// [`super::run_cell`] behind a shared graph cache; tests substitute
/// panicking, hanging, or flaky runners to exercise the failure paths.
pub type CellRunner = Arc<dyn Fn(&SweepCell) -> Result<MetricsRow, BenchError> + Send + Sync>;

/// Pool sizing and robustness knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (≥ 1; each owns an independent `Simulation` run).
    pub workers: usize,
    /// Retries after the first attempt before a cell is quarantined.
    pub max_retries: u32,
    /// Wall-clock deadline per attempt; `None` leaves only the in-sim
    /// watchdog.
    pub cell_timeout: Option<Duration>,
    /// Delay schedule between retries.
    pub backoff: Backoff,
    /// Period between progress logs on stderr; `None` disables them.
    pub progress_every: Option<Duration>,
}

impl Default for PoolConfig {
    /// All cores (capped at 16), two retries, no wall-clock deadline, the
    /// default backoff, no progress logs.
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).min(16),
            max_retries: 2,
            cell_timeout: None,
            backoff: Backoff::default(),
            progress_every: None,
        }
    }
}

/// What one [`run_sweep`] invocation did.
#[derive(Debug)]
pub struct SweepReport {
    /// Records decided this run (completed and quarantined), in completion
    /// order.
    pub records: Vec<CellRecord>,
    /// Completed records found in the store and skipped (resume).
    pub resumed: Vec<CellRecord>,
    /// Store files discarded as unreadable: half-written, corrupt, or of
    /// another record version.
    pub discarded: usize,
    /// Cells neither decided nor skipped (queue abandoned on cancel).
    pub abandoned: usize,
    /// Whether the sweep was cancelled mid-flight.
    pub cancelled: bool,
}

impl SweepReport {
    /// The quarantined records of this run.
    pub fn failures(&self) -> Vec<&CellRecord> {
        self.records.iter().filter(|r| !r.is_success()).collect()
    }

    /// Cells completed this run.
    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.is_success()).count()
    }
}

/// Runs `cells` through the pool, streaming records into `store`, skipping
/// cells the store already has completed, and flushing the merged roll-up
/// artifacts at the end (including on cancel).
///
/// # Errors
///
/// Returns a [`BenchError`] only for store-level I/O failures (open, scan,
/// flush). Per-cell failures never error — they become quarantine records.
pub fn run_sweep(
    cells: &[SweepCell],
    store: &ArtifactStore,
    cfg: &PoolConfig,
    cancel: &AtomicBool,
    runner: CellRunner,
) -> Result<SweepReport, BenchError> {
    let loaded = store.load().map_err(|e| BenchError::context("artifact store scan", &e))?;
    let done: HashSet<CellId> = loaded.completed_ids().into_iter().collect();
    let resumed: Vec<CellRecord> =
        loaded.records.into_iter().filter(CellRecord::is_success).collect();
    let pending: Vec<SweepCell> =
        cells.iter().filter(|c| !done.contains(&c.id())).cloned().collect();
    let total = pending.len();

    // Every worker hosts a full engine on one thread: more workers than
    // cores would just interleave them. Clamp the pool instead.
    let avail = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    let workers = cfg.workers.clamp(1, avail);
    if workers < cfg.workers {
        eprintln!(
            "sweep: {} workers exceed the {avail} available cores; clamping to {workers} workers",
            cfg.workers,
        );
    }
    let (job_tx, job_rx) = mpsc::sync_channel::<SweepCell>(workers * 2);
    let job_rx = Mutex::new(job_rx);
    let (rec_tx, rec_rx) = mpsc::channel::<CellRecord>();

    let mut records: Vec<CellRecord> = Vec::with_capacity(total);
    std::thread::scope(|s| {
        for _ in 0..workers {
            let rec_tx = rec_tx.clone();
            let runner = Arc::clone(&runner);
            let job_rx = &job_rx;
            s.spawn(move || worker_loop(job_rx, &rec_tx, cfg, cancel, &runner));
        }
        drop(rec_tx);
        s.spawn(move || {
            // try_send + poll rather than a blocking send: a blocking send
            // could wedge forever if every worker exits on cancel while
            // the bounded buffer is full, and the scope would never join.
            'feed: for cell in pending {
                let mut cell = cell;
                loop {
                    if cancel.load(Ordering::SeqCst) {
                        break 'feed; // abandon the rest of the queue
                    }
                    match job_tx.try_send(cell) {
                        Ok(()) => break,
                        Err(mpsc::TrySendError::Full(c)) => {
                            cell = c;
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(mpsc::TrySendError::Disconnected(_)) => {
                            break 'feed; // every worker already exited
                        }
                    }
                }
            }
        });
        // This thread is the results thread: it owns all store writes, so
        // workers never contend on the filesystem.
        let started = Instant::now();
        let mut last_log = Instant::now();
        loop {
            match rec_rx.recv_timeout(Duration::from_millis(200)) {
                Ok(rec) => {
                    if let Err(e) = store.record(&rec) {
                        eprintln!("sweep: failed to persist cell {}: {e}", rec.id);
                    }
                    records.push(rec);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if let Some(every) = cfg.progress_every {
                if last_log.elapsed() >= every {
                    let failed = records.iter().filter(|r| !r.is_success()).count();
                    eprintln!(
                        "sweep: {}/{} cells decided ({} failed, {} resumed, {:.1}s elapsed)",
                        records.len(),
                        total,
                        failed,
                        resumed.len(),
                        started.elapsed().as_secs_f64()
                    );
                    last_log = Instant::now();
                }
            }
        }
    });

    let mut all: Vec<CellRecord> = resumed.clone();
    all.extend(records.iter().cloned());
    store.flush(&all).map_err(|e| BenchError::context("artifact store flush", &e))?;

    Ok(SweepReport {
        abandoned: total - records.len(),
        records,
        resumed,
        discarded: loaded.discarded,
        cancelled: cancel.load(Ordering::SeqCst),
    })
}

fn worker_loop(
    jobs: &Mutex<Receiver<SweepCell>>,
    out: &Sender<CellRecord>,
    cfg: &PoolConfig,
    cancel: &AtomicBool,
    runner: &CellRunner,
) {
    loop {
        if cancel.load(Ordering::SeqCst) {
            return; // graceful drain: stop taking new work
        }
        // Shared-receiver pattern: the lock is held across the blocking
        // recv, which is equivalent to every idle worker blocking on the
        // channel directly.
        let Ok(cell) = jobs.lock().expect("job queue lock poisoned").recv() else {
            return; // feeder done and queue drained
        };
        if cancel.load(Ordering::SeqCst) {
            return; // job was queued before cancel: abandon it
        }
        if let Some(rec) = decide_cell(&cell, cfg, cancel, runner) {
            if out.send(rec).is_err() {
                return;
            }
        }
    }
}

/// Runs one cell to a terminal record: attempt, retry under backoff,
/// quarantine. Returns `None` when cancelled mid-backoff — the cell stays
/// unrecorded so a resumed sweep re-runs it.
fn decide_cell(
    cell: &SweepCell,
    cfg: &PoolConfig,
    cancel: &AtomicBool,
    runner: &CellRunner,
) -> Option<CellRecord> {
    let id = cell.id();
    let label = cell.label();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match run_attempt(cell, cfg.cell_timeout, runner) {
            AttemptOutcome::Ok(row) => {
                return Some(CellRecord::completed(id, label, attempt, *row));
            }
            failure => {
                if attempt > cfg.max_retries {
                    return Some(CellRecord::quarantined(
                        id,
                        label,
                        failure.kind(),
                        attempt,
                        failure.error_text(),
                    ));
                }
                if !sleep_cancellable(cfg.backoff.delay(attempt), cancel) {
                    return None;
                }
            }
        }
    }
}

/// One attempt at one cell: inline when no deadline is set, on a
/// disposable thread when one is.
fn run_attempt(cell: &SweepCell, timeout: Option<Duration>, runner: &CellRunner) -> AttemptOutcome {
    let Some(deadline) = timeout else {
        return attempt_inline(cell, runner);
    };
    let (tx, rx) = mpsc::sync_channel(1);
    let cell_owned = cell.clone();
    let runner_owned = Arc::clone(runner);
    let spawned =
        std::thread::Builder::new().name(format!("sweep-cell-{}", cell.id())).spawn(move || {
            let _ = tx.send(attempt_inline(&cell_owned, &runner_owned));
        });
    if let Err(e) = spawned {
        return AttemptOutcome::Err(format!("could not spawn cell thread: {e}"));
    }
    match rx.recv_timeout(deadline) {
        Ok(outcome) => outcome,
        Err(_) => AttemptOutcome::TimedOut(format!(
            "wall-clock deadline {:.1}s exceeded; attempt abandoned (the in-sim \
             watchdog_event_budget reaps the stray run)",
            deadline.as_secs_f64()
        )),
    }
}

fn attempt_inline(cell: &SweepCell, runner: &CellRunner) -> AttemptOutcome {
    match panic::catch_unwind(AssertUnwindSafe(|| runner(cell))) {
        Ok(Ok(row)) => AttemptOutcome::Ok(Box::new(row)),
        Ok(Err(e)) => AttemptOutcome::Err(e.to_string()),
        // `&*payload`, not `&payload`: the Box would itself coerce to
        // `&dyn Any` and the downcast would always miss.
        Err(payload) => AttemptOutcome::Panicked(panic_message(&*payload)),
    }
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Sleeps `d` in small slices, returning `false` early if `cancel` is set.
fn sleep_cancellable(d: Duration, cancel: &AtomicBool) -> bool {
    let deadline = Instant::now() + d;
    loop {
        if cancel.load(Ordering::SeqCst) {
            return false;
        }
        let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
            return true;
        };
        if remaining.is_zero() {
            return true;
        }
        std::thread::sleep(remaining.min(Duration::from_millis(10)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_messages_are_extracted() {
        let p: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(&*p), "static str");
        let p: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(&*p), "owned");
        let p: Box<dyn std::any::Any + Send> = Box::new(42u8);
        assert_eq!(panic_message(&*p), "non-string panic payload");
    }

    #[test]
    fn cancellable_sleep_honors_the_flag() {
        let cancel = AtomicBool::new(true);
        let start = Instant::now();
        assert!(!sleep_cancellable(Duration::from_secs(5), &cancel));
        assert!(start.elapsed() < Duration::from_secs(1));
        let cancel = AtomicBool::new(false);
        assert!(sleep_cancellable(Duration::from_millis(5), &cancel));
    }

    #[test]
    fn default_pool_config_is_sane() {
        let cfg = PoolConfig::default();
        assert!(cfg.workers >= 1 && cfg.workers <= 16);
        assert_eq!(cfg.max_retries, 2);
        assert!(cfg.cell_timeout.is_none());
    }
}
