//! Per-cell sweep outcomes: what one cell's attempts amounted to.

use batmem::probes::MetricsRow;
use batmem_types::sweep::{CellId, OutcomeKind};

/// The terminal record of one sweep cell: either a sealed metrics row or a
/// typed failure after exhausting retries. This is exactly what the
/// artifact store persists and the quarantine report lists.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The cell's content-hash identity.
    pub id: CellId,
    /// Human-readable cell label (`workload/policy@point`).
    pub label: String,
    /// How the cell ended.
    pub outcome: OutcomeKind,
    /// Attempts made, including the first (1 = succeeded immediately).
    pub attempts: u32,
    /// The sealed metrics row, labelled `label`; `Some` iff `outcome` is
    /// `Completed`.
    pub row: Option<MetricsRow>,
    /// The last attempt's failure rendering (typed `SimError`/`BenchError`
    /// display, panic message, or deadline description); `None` on
    /// success.
    pub error: Option<String>,
}

impl CellRecord {
    /// A completed record sealing `row` after `attempts` tries. The row
    /// carries the record's `label`, which the store writes once.
    pub fn completed(id: CellId, label: String, attempts: u32, mut row: MetricsRow) -> Self {
        row.label.clone_from(&label);
        Self { id, label, outcome: OutcomeKind::Completed, attempts, row: Some(row), error: None }
    }

    /// A quarantined record: the cell's last failure after `attempts`
    /// tries, classified as `outcome`.
    pub fn quarantined(
        id: CellId,
        label: String,
        outcome: OutcomeKind,
        attempts: u32,
        error: String,
    ) -> Self {
        debug_assert!(outcome != OutcomeKind::Completed);
        Self { id, label, outcome, attempts, row: None, error: Some(error) }
    }

    /// Whether this record should be skipped (not re-run) on resume.
    pub fn is_success(&self) -> bool {
        self.outcome.is_success()
    }

    /// One quarantine-report line: outcome, attempts, label, error.
    pub fn report_line(&self) -> String {
        format!(
            "{:>9}  x{}  {}  {}",
            self.outcome,
            self.attempts,
            self.label,
            self.error.as_deref().unwrap_or("-")
        )
    }
}

/// How one *attempt* at a cell ended, before retry logic is applied.
#[derive(Debug)]
pub enum AttemptOutcome {
    /// The run finished with a sealed row.
    Ok(Box<MetricsRow>),
    /// The run returned a typed error.
    Err(String),
    /// The run panicked; the payload was caught.
    Panicked(String),
    /// The run blew its wall-clock deadline and was abandoned.
    TimedOut(String),
}

impl AttemptOutcome {
    /// The outcome classification for a terminal (no more retries) record.
    pub fn kind(&self) -> OutcomeKind {
        match self {
            AttemptOutcome::Ok(_) => OutcomeKind::Completed,
            AttemptOutcome::Err(_) => OutcomeKind::Failed,
            AttemptOutcome::Panicked(_) => OutcomeKind::Panicked,
            AttemptOutcome::TimedOut(_) => OutcomeKind::TimedOut,
        }
    }

    /// The failure rendering; empty for `Ok`.
    pub fn error_text(&self) -> String {
        match self {
            AttemptOutcome::Ok(_) => String::new(),
            AttemptOutcome::Err(e) | AttemptOutcome::Panicked(e) | AttemptOutcome::TimedOut(e) => {
                e.clone()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_classify_success_and_quarantine() {
        let id = CellId::from_hash(7);
        let ok = CellRecord::completed(id, "w/p".into(), 1, MetricsRow::default());
        assert!(ok.is_success());
        assert!(ok.row.is_some() && ok.error.is_none());
        let bad = CellRecord::quarantined(
            id,
            "w/p".into(),
            OutcomeKind::TimedOut,
            3,
            "deadline 2s exceeded".into(),
        );
        assert!(!bad.is_success());
        let line = bad.report_line();
        assert!(line.contains("timed_out") && line.contains("x3") && line.contains("deadline"));
    }

    #[test]
    fn attempt_outcomes_map_to_kinds() {
        assert_eq!(AttemptOutcome::Ok(Box::default()).kind(), OutcomeKind::Completed);
        assert_eq!(AttemptOutcome::Err("e".into()).kind(), OutcomeKind::Failed);
        assert_eq!(AttemptOutcome::Panicked("p".into()).kind(), OutcomeKind::Panicked);
        assert_eq!(AttemptOutcome::TimedOut("t".into()).kind(), OutcomeKind::TimedOut);
        assert_eq!(AttemptOutcome::Panicked("boom".into()).error_text(), "boom");
    }
}
