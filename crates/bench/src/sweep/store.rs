//! The resumable on-disk artifact store.
//!
//! Layout under the store directory:
//!
//! ```text
//! <dir>/cells/<cell-id>.json   one flat JSON record per decided cell
//! <dir>/sweep.csv              merged MetricsRow CSV of completed cells
//! <dir>/sweep.json             merged JSON array of all cell records
//! <dir>/failed_cells.json      the quarantine report (empty array if none)
//! ```
//!
//! Records are written to a `.tmp` sibling and atomically renamed into
//! place, so a crash cannot leave a half-written `.json` behind — but the
//! loader does not rely on that: every record is re-parsed on resume, and
//! anything truncated, corrupt, or stale (`.tmp` leftovers, id/filename
//! mismatches, unparsable rows) is deleted and the cell re-run.

use super::json::{self, Value};
use super::outcome::CellRecord;
use batmem::probes::{json_escape, MetricsRow};
use batmem_types::sweep::{CellId, OutcomeKind};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What [`ArtifactStore::load`] found on disk.
#[derive(Debug, Default)]
pub struct LoadedStore {
    /// Valid records, in unspecified order.
    pub records: Vec<CellRecord>,
    /// Files discarded as half-written, corrupt, or stale.
    pub discarded: usize,
}

impl LoadedStore {
    /// The ids of cells whose records are complete-and-successful — the
    /// set a resumed sweep skips.
    pub fn completed_ids(&self) -> Vec<CellId> {
        self.records.iter().filter(|r| r.is_success()).map(|r| r.id).collect()
    }
}

/// A directory of per-cell sweep records plus merged roll-up artifacts.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(dir.join("cells"))?;
        Ok(Self { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn cells_dir(&self) -> PathBuf {
        self.dir.join("cells")
    }

    fn cell_path(&self, id: CellId) -> PathBuf {
        self.cells_dir().join(format!("{id}.json"))
    }

    /// Whether any per-cell record files exist (valid or not).
    pub fn has_cells(&self) -> bool {
        fs::read_dir(self.cells_dir())
            .map(|mut d| d.next().is_some())
            .unwrap_or(false)
    }

    /// Renders one record as its on-disk flat JSON document. The
    /// `"complete":true` field is written last, so even a non-atomic
    /// partial write is detectable.
    fn render(rec: &CellRecord) -> String {
        let mut s = format!(
            "{{\"v\":1,\"id\":\"{}\",\"label\":\"{}\",\"outcome\":\"{}\",\"attempts\":{}",
            rec.id,
            json_escape(&rec.label),
            rec.outcome,
            rec.attempts
        );
        if let Some(row) = &rec.row {
            s.push_str(&format!(",\"row\":\"{}\"", json_escape(&row.to_csv_row())));
        }
        if let Some(err) = &rec.error {
            s.push_str(&format!(",\"error\":\"{}\"", json_escape(err)));
        }
        s.push_str(",\"complete\":true}");
        s
    }

    fn parse(doc: &str) -> Result<CellRecord, String> {
        let pairs = json::parse_object(doc)?;
        let get_str = |k: &str| -> Result<&str, String> {
            json::get(&pairs, k)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("missing string field `{k}`"))
        };
        if json::get(&pairs, "complete").and_then(Value::as_bool) != Some(true) {
            return Err("record not marked complete".into());
        }
        if json::get(&pairs, "v").and_then(Value::as_int) != Some(1) {
            return Err("unknown record version".into());
        }
        let id: CellId = get_str("id")?.parse()?;
        let label = get_str("label")?.to_string();
        let outcome = OutcomeKind::from_label(get_str("outcome")?)
            .ok_or_else(|| "unknown outcome".to_string())?;
        let attempts = json::get(&pairs, "attempts")
            .and_then(Value::as_int)
            .ok_or("missing attempts")? as u32;
        let row = match json::get(&pairs, "row").and_then(Value::as_str) {
            Some(csv) => {
                Some(MetricsRow::parse_csv_row(csv).ok_or("unparsable metrics row")?)
            }
            None => None,
        };
        if (row.is_some()) != (outcome == OutcomeKind::Completed) {
            return Err("row presence contradicts outcome".into());
        }
        let error = json::get(&pairs, "error").and_then(Value::as_str).map(str::to_string);
        Ok(CellRecord { id, label, outcome, attempts, row, error })
    }

    /// Persists one record atomically (`.tmp` write + rename).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn record(&self, rec: &CellRecord) -> io::Result<()> {
        let path = self.cell_path(rec.id);
        let tmp = path.with_extension("json.tmp");
        fs::write(&tmp, Self::render(rec))?;
        fs::rename(&tmp, &path)
    }

    /// Scans the store, returning every valid record and deleting anything
    /// half-written or corrupt so the corresponding cells re-run.
    ///
    /// # Errors
    ///
    /// Propagates directory-scan failures; per-file problems are handled
    /// by discarding the file, not by erroring.
    pub fn load(&self) -> io::Result<LoadedStore> {
        let mut out = LoadedStore::default();
        for entry in fs::read_dir(self.cells_dir())? {
            let path = entry?.path();
            let is_record = path.extension().is_some_and(|e| e == "json");
            let valid = is_record
                .then(|| fs::read_to_string(&path).ok())
                .flatten()
                .and_then(|doc| Self::parse(&doc).ok())
                .filter(|rec| {
                    // The filename is the key: a mismatched id is stale.
                    path.file_stem().is_some_and(|s| s.to_string_lossy() == rec.id.to_string())
                });
            match valid {
                Some(rec) => out.records.push(rec),
                None => {
                    // Half-written, corrupt, or a `.tmp` leftover: discard
                    // so the pool re-runs the cell.
                    let _ = fs::remove_file(&path);
                    out.discarded += 1;
                }
            }
        }
        Ok(out)
    }

    /// Writes the merged roll-up artifacts from `records` (completed rows
    /// into `sweep.csv`, everything into `sweep.json`, failures into
    /// `failed_cells.json`). Records are sorted by label then id, so the
    /// merged artifacts are byte-identical however many workers produced
    /// them and in whatever order.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn flush(&self, records: &[CellRecord]) -> io::Result<()> {
        let mut sorted: Vec<&CellRecord> = records.iter().collect();
        sorted.sort_by(|a, b| (&a.label, a.id).cmp(&(&b.label, b.id)));
        let mut csv = String::from(MetricsRow::csv_header());
        csv.push('\n');
        let mut all = Vec::new();
        let mut failed = Vec::new();
        for rec in &sorted {
            if let Some(row) = &rec.row {
                csv.push_str(&row.to_csv_row());
                csv.push('\n');
            } else {
                failed.push(Self::render(rec));
            }
            all.push(Self::render(rec));
        }
        fs::write(self.dir.join("sweep.csv"), csv)?;
        fs::write(self.dir.join("sweep.json"), format!("[{}]", all.join(",")))?;
        fs::write(self.dir.join("failed_cells.json"), format!("[{}]", failed.join(",")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("batmem-store-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn completed(id: u64) -> CellRecord {
        let row = MetricsRow { label: format!("w/p@{id}"), cycles: id, ..MetricsRow::default() };
        CellRecord::completed(CellId::from_hash(id), format!("w/p@{id}"), 1, row)
    }

    #[test]
    fn records_roundtrip_through_disk() {
        let store = ArtifactStore::open(tmpdir("roundtrip")).unwrap();
        let ok = completed(1);
        let bad = CellRecord::quarantined(
            CellId::from_hash(2),
            "w/q\"uote".into(),
            OutcomeKind::Panicked,
            3,
            "index out of bounds: the len is 4".into(),
        );
        store.record(&ok).unwrap();
        store.record(&bad).unwrap();
        let mut loaded = store.load().unwrap();
        loaded.records.sort_by_key(|r| r.id);
        assert_eq!(loaded.discarded, 0);
        assert_eq!(loaded.records, vec![ok.clone(), bad]);
        assert_eq!(loaded.completed_ids(), vec![ok.id]);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn half_written_and_corrupt_records_are_discarded() {
        let store = ArtifactStore::open(tmpdir("corrupt")).unwrap();
        store.record(&completed(1)).unwrap();
        let cells = store.dir().join("cells");
        // A truncated record (simulated crash mid-write without rename).
        let full = ArtifactStore::render(&completed(2));
        fs::write(cells.join(format!("{}.json", CellId::from_hash(2))), &full[..full.len() / 2])
            .unwrap();
        // A leftover tmp file.
        fs::write(cells.join("deadbeef.json.tmp"), "{").unwrap();
        // A record whose filename does not match its id.
        fs::write(cells.join(format!("{}.json", CellId::from_hash(9))), &full).unwrap();
        let loaded = store.load().unwrap();
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.discarded, 3);
        // Discarded files are gone: a second load is clean.
        let again = store.load().unwrap();
        assert_eq!(again.discarded, 0);
        assert_eq!(again.records.len(), 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn flush_merges_sorted_rollups() {
        let store = ArtifactStore::open(tmpdir("flush")).unwrap();
        let recs = vec![
            completed(3),
            completed(1),
            CellRecord::quarantined(
                CellId::from_hash(5),
                "w/fail".into(),
                OutcomeKind::Failed,
                2,
                "deadlock at cycle 9".into(),
            ),
        ];
        store.flush(&recs).unwrap();
        let csv = fs::read_to_string(store.dir().join("sweep.csv")).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 completed rows
        assert!(lines[1].starts_with("w/p@1,"), "sorted by label: {}", lines[1]);
        let failed = fs::read_to_string(store.dir().join("failed_cells.json")).unwrap();
        assert!(failed.contains("deadlock") && failed.contains("\"outcome\":\"failed\""));
        let merged = fs::read_to_string(store.dir().join("sweep.json")).unwrap();
        assert_eq!(merged.matches("\"complete\":true").count(), 3);
        let _ = fs::remove_dir_all(store.dir());
    }
}
