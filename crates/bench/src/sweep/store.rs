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
//! A record names every field, counters included:
//!
//! ```text
//! {"v":2,"id":"…","label":"…","outcome":"completed","attempts":1,
//!  "cycles":136448,"kernels":4,…,"l2_conflict_evictions":0,"complete":true}
//! ```
//!
//! The counters, one per `MetricsRow::COUNTERS` entry, are present exactly
//! when the outcome is `completed`; a failed record carries `"error"`
//! instead. Records are written to a `.tmp` sibling and atomically renamed
//! into place, so a crash cannot leave a half-written `.json` behind — but
//! the loader does not rely on that: every record is re-parsed on resume,
//! and anything unreadable (truncated, corrupt, of another version, missing
//! a counter, a `.tmp` leftover, an id/filename mismatch) is deleted and
//! the cell re-run.

use super::json::{self, Value};
use super::outcome::CellRecord;
use batmem::probes::{json_escape, MetricsRow};
use batmem_types::sweep::{CellId, OutcomeKind};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The record layout this store writes and reads. A record of any other
/// version is discarded on load and its cell re-run: cells are
/// deterministic, so the re-run reproduces the same row.
const VERSION: u64 = 2;

/// What [`ArtifactStore::load`] found on disk.
#[derive(Debug, Default)]
pub struct LoadedStore {
    /// Valid records, in unspecified order.
    pub records: Vec<CellRecord>,
    /// Files discarded as unreadable: half-written, corrupt, stale, or of
    /// another record version.
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
        fs::read_dir(self.cells_dir()).map(|mut d| d.next().is_some()).unwrap_or(false)
    }

    /// Renders one record as its on-disk flat JSON document: a `"v":2`
    /// header, one named integer field per [`MetricsRow::COUNTERS`] entry
    /// when the cell completed, the error when it did not, and
    /// `"complete":true` last, so even a non-atomic partial write is
    /// detectable.
    fn render(rec: &CellRecord) -> String {
        let mut s = format!(
            "{{\"v\":{VERSION},\"id\":\"{}\",\"label\":\"{}\",\"outcome\":\"{}\",\"attempts\":{}",
            rec.id,
            json_escape(&rec.label),
            rec.outcome,
            rec.attempts
        );
        if let Some(row) = &rec.row {
            for (name, value) in MetricsRow::COUNTERS.iter().zip(row.counters()) {
                let _ = write!(s, ",\"{name}\":{value}");
            }
        }
        if let Some(err) = &rec.error {
            let _ = write!(s, ",\"error\":\"{}\"", json_escape(err));
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
        if json::get(&pairs, "v").and_then(Value::as_int) != Some(VERSION) {
            return Err("unknown record version".into());
        }
        let id: CellId = get_str("id")?.parse()?;
        let label = get_str("label")?.to_string();
        let outcome = OutcomeKind::from_label(get_str("outcome")?)
            .ok_or_else(|| "unknown outcome".to_string())?;
        let attempts =
            json::get(&pairs, "attempts").and_then(Value::as_int).ok_or("missing attempts")?;
        let attempts = u32::try_from(attempts).map_err(|_| "attempts out of range")?;
        let mut row = MetricsRow { label: label.clone(), ..MetricsRow::default() };
        let mut counters = 0;
        for (name, slot) in MetricsRow::COUNTERS.iter().zip(row.counters_mut()) {
            if let Some(value) = json::get(&pairs, name) {
                *slot = value.as_int().ok_or_else(|| format!("counter `{name}` is no integer"))?;
                counters += 1;
            }
        }
        // The counters are present exactly when the cell completed.
        let row = match (outcome == OutcomeKind::Completed, counters) {
            (true, n) if n == MetricsRow::COUNTERS.len() => Some(row),
            (false, 0) => None,
            _ => return Err("counters contradict outcome".into()),
        };
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
        let csv = MetricsRow::csv(sorted.iter().filter_map(|rec| rec.row.as_ref()));
        let all: Vec<String> = sorted.iter().map(|rec| Self::render(rec)).collect();
        let failed: Vec<String> =
            sorted.iter().filter(|rec| rec.row.is_none()).map(|rec| Self::render(rec)).collect();
        fs::write(self.dir.join("sweep.csv"), csv)?;
        fs::write(self.dir.join("sweep.json"), format!("[{}]", all.join(",")))?;
        fs::write(self.dir.join("failed_cells.json"), format!("[{}]", failed.join(",")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("batmem-store-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn completed(id: u64) -> CellRecord {
        let row = MetricsRow { cycles: id, ..MetricsRow::default() };
        CellRecord::completed(CellId::from_hash(id), format!("w/p@{id}"), 1, row)
    }

    /// A completed record whose counter `i` holds `i + 1`, so reading a
    /// counter under another counter's name yields a different value.
    fn distinct_counters(id: u64, label: &str) -> CellRecord {
        let mut row = MetricsRow::default();
        for (i, slot) in row.counters_mut().enumerate() {
            *slot = i as u64 + 1;
        }
        CellRecord::completed(CellId::from_hash(id), label.into(), 3, row)
    }

    fn write_cell(store: &ArtifactStore, id: u64, doc: &str) {
        fs::write(store.cell_path(CellId::from_hash(id)), doc).unwrap();
    }

    #[test]
    fn records_roundtrip_through_disk() {
        let store = ArtifactStore::open(tmpdir("roundtrip")).unwrap();
        let ok = distinct_counters(1, "BFS-TTC/a,b\"c@s8");
        let bad = CellRecord::quarantined(
            CellId::from_hash(2),
            "w/q\"uote".into(),
            OutcomeKind::Panicked,
            3,
            "index out of bounds: the len is 4".into(),
        );
        store.record(&ok).unwrap();
        store.record(&bad).unwrap();
        let doc = fs::read_to_string(store.cell_path(ok.id)).unwrap();
        assert!(doc.starts_with("{\"v\":2,"), "{doc}");
        for (i, name) in MetricsRow::COUNTERS.iter().enumerate() {
            assert!(doc.contains(&format!(",\"{name}\":{},", i + 1)), "{name}: {doc}");
        }
        assert_eq!(doc.matches("a,b").count(), 1, "the label is written once: {doc}");
        let mut loaded = store.load().unwrap();
        loaded.records.sort_by_key(|r| r.id);
        assert_eq!(loaded.discarded, 0);
        assert_eq!(loaded.records, vec![ok.clone(), bad]);
        assert_eq!(loaded.completed_ids(), vec![ok.id]);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn records_with_missing_or_non_integer_counters_are_discarded() {
        let store = ArtifactStore::open(tmpdir("counters")).unwrap();
        let n = MetricsRow::COUNTERS.len() as u64;
        // A completed record missing each counter in turn: the `id`-th
        // counter holds `id`.
        for (id, name) in (1..).zip(MetricsRow::COUNTERS) {
            let doc = ArtifactStore::render(&distinct_counters(id, "w/p"));
            let field = format!(",\"{name}\":{id}");
            assert!(doc.contains(&field), "{doc}");
            write_cell(&store, id, &doc.replacen(&field, "", 1));
        }
        // A float and a string where an integer belongs.
        let doc = ArtifactStore::render(&distinct_counters(n + 1, "w/p"));
        write_cell(&store, n + 1, &doc.replacen("\"cycles\":1,", "\"cycles\":1.5,", 1));
        let doc = ArtifactStore::render(&distinct_counters(n + 2, "w/p"));
        write_cell(&store, n + 2, &doc.replacen("\"cycles\":1,", "\"cycles\":\"1\",", 1));
        // A quarantined record carrying a counter.
        let id = CellId::from_hash(n + 3);
        let failed = CellRecord::quarantined(id, "w/f".into(), OutcomeKind::Failed, 1, "e".into());
        let doc = ArtifactStore::render(&failed);
        write_cell(&store, n + 3, &doc.replacen(",\"error\"", ",\"cycles\":7,\"error\"", 1));
        let loaded = store.load().unwrap();
        assert!(loaded.records.is_empty(), "{:?}", loaded.records);
        assert_eq!(loaded.discarded as u64, n + 3);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn attempts_past_u32_are_discarded_not_wrapped() {
        let store = ArtifactStore::open(tmpdir("attempts")).unwrap();
        let doc = ArtifactStore::render(&completed(1));
        write_cell(&store, 1, &doc.replacen("\"attempts\":1,", "\"attempts\":4294967297,", 1));
        let doc = ArtifactStore::render(&completed(2));
        write_cell(&store, 2, &doc.replacen("\"attempts\":1,", "\"attempts\":4294967295,", 1));
        let loaded = store.load().unwrap();
        assert_eq!(loaded.discarded, 1);
        assert_eq!(loaded.records.len(), 1);
        let kept = &loaded.records[0];
        assert_eq!((kept.id, kept.attempts), (CellId::from_hash(2), u32::MAX));
        assert!(!store.cell_path(CellId::from_hash(1)).exists());
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
                                    // Pinned: a reordered or renamed column is a deliberate change.
        assert_eq!(
            lines[0],
            "label,cycles,kernels,batches,faults_raised,faults_absorbed,prefetches,migrations,\
             migrated_bytes,evictions,forced_pinned_evictions,premature_evictions,warp_stalls,\
             warp_resumes,ctx_switches,ctx_switch_cycles,watchdog_ticks,l1_tlb_hits,l1_tlb_misses,\
             large_tlb_hits,walks,coalesces,splinters,l2_conflict_evictions"
        );
        assert!(lines[1].starts_with("w/p@1,"), "sorted by label: {}", lines[1]);
        let failed = fs::read_to_string(store.dir().join("failed_cells.json")).unwrap();
        assert!(failed.contains("deadlock") && failed.contains("\"outcome\":\"failed\""));
        let merged = fs::read_to_string(store.dir().join("sweep.json")).unwrap();
        assert_eq!(merged.matches("\"complete\":true").count(), 3);
        let _ = fs::remove_dir_all(store.dir());
    }
}
