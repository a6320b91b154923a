//! Aggregated UVM runtime statistics.

use crate::batch::BatchRecord;
use batmem_types::Cycle;
use std::fmt::Write as _;

/// End-of-run statistics of the UVM runtime, assembled by
/// [`crate::runtime::UvmRuntime::stats`].
#[derive(Debug, Clone, Default)]
pub struct UvmStats {
    /// Every processed batch, in order.
    pub batches: Vec<BatchRecord>,
    /// Total faults raised (including coalesced duplicates).
    pub faults_raised: u64,
    /// Faults coalesced into an existing buffer entry.
    pub faults_deduped: u64,
    /// Faults that overflowed the buffer into the replay set.
    pub buffer_overflows: u64,
    /// Faults raised for pages already migrating in the current batch.
    pub faults_on_inflight: u64,
    /// Prefetch candidates the prefetcher issued. The pages that migrated
    /// as prefetches are the batch records' `prefetches`; the two differ
    /// when the adaptive throttle or the injector drops candidates, or
    /// coalescing completion adds pages.
    pub prefetches: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Evictions whose page was later re-faulted (premature evictions).
    pub premature_evictions: u64,
    /// Bytes moved host-to-device.
    pub h2d_bytes: u64,
    /// Bytes moved device-to-host.
    pub d2h_bytes: u64,
    /// Mean page lifetime (cycles) across evicted pages, if any.
    pub mean_page_lifetime: Option<f64>,
    /// Highest simultaneous resident-page count observed.
    pub peak_resident_pages: u64,
    /// Preemptive evictions issued by the UE top-half path.
    pub preemptive_evictions: u64,
    /// Evictions issued ahead of demand by ETC's proactive eviction.
    pub proactive_evictions: u64,
    /// Faults serviced by a non-CPU fault-servicing model (0 under the
    /// default `cpu` model).
    pub gpu_serviced_faults: u64,
    /// Handler-occupancy cycles charged by the fault-servicing model (0
    /// under the default `cpu` model).
    pub handler_occupancy_cycles: u64,
}

impl UvmStats {
    /// Number of batches processed.
    pub fn num_batches(&self) -> u64 {
        self.batches.len() as u64
    }

    /// Mean batch size in pages (0 when no batch ran).
    pub fn avg_batch_pages(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        let total: u64 = self.batches.iter().map(|b| u64::from(b.pages())).sum();
        total as f64 / self.batches.len() as f64
    }

    /// Mean batch processing time in cycles.
    pub fn avg_processing_time(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        let total: u128 = self.batches.iter().map(|b| u128::from(b.processing_time())).sum();
        total as f64 / self.batches.len() as f64
    }

    /// Mean GPU runtime fault handling time in cycles.
    pub fn avg_fault_handling_time(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        let total: u128 = self.batches.iter().map(|b| u128::from(b.fault_handling_time())).sum();
        total as f64 / self.batches.len() as f64
    }

    /// Premature-eviction rate in [0, 1].
    pub fn premature_rate(&self) -> f64 {
        if self.evictions == 0 {
            0.0
        } else {
            self.premature_evictions as f64 / self.evictions as f64
        }
    }

    /// Histogram of batch sizes in bytes: `(bucket upper bound, count)`
    /// with fixed-width buckets of `bucket_bytes` (the Fig. 16
    /// distribution).
    ///
    /// # Panics
    ///
    /// Panics if `bucket_bytes` is zero.
    pub fn batch_size_histogram(&self, bucket_bytes: u64) -> Vec<(u64, u64)> {
        assert!(bucket_bytes > 0, "bucket size must be positive");
        let mut counts: Vec<u64> = Vec::new();
        for b in &self.batches {
            let bucket = (b.migrated_bytes / bucket_bytes) as usize;
            if counts.len() <= bucket {
                counts.resize(bucket + 1, 0);
            }
            counts[bucket] += 1;
        }
        counts.into_iter().enumerate().map(|(i, c)| ((i as u64 + 1) * bucket_bytes, c)).collect()
    }

    /// Cycles per batch phase summed over every batch: `(handling,
    /// eviction wait, migration)`. The three sum to the batches' total
    /// processing time.
    pub fn phase_totals(&self) -> (Cycle, Cycle, Cycle) {
        self.batches.iter().fold((0, 0, 0), |(h, w, m), b| {
            (h + b.handling_cycles(), w + b.eviction_wait_cycles(), m + b.migration_cycles())
        })
    }

    /// The batch records as CSV: a header, then one row per batch with
    /// its composition, timestamps and phase split.
    pub fn batches_csv(&self) -> String {
        let mut out = String::from(
            "batch,pages,faults,prefetches,evictions,forced_pinned_evictions,migrated_bytes,\
             opened_at,closed_at,total_cycles,handling_cycles,eviction_wait_cycles,\
             migration_cycles\n",
        );
        for b in &self.batches {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{}",
                b.id,
                b.pages(),
                b.faults,
                b.prefetches,
                b.evictions,
                b.forced_pinned_evictions,
                b.migrated_bytes,
                b.start,
                b.end,
                b.processing_time(),
                b.handling_cycles(),
                b.eviction_wait_cycles(),
                b.migration_cycles(),
            );
        }
        out
    }

    /// Checks the structural invariants every run must satisfy: batches
    /// are well-ordered and non-overlapping, byte accounting balances, and
    /// residency never exceeded `capacity`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self, capacity: Option<u64>, page_bytes: u64) -> Result<(), String> {
        let mut prev_end = 0;
        for b in &self.batches {
            if b.start < prev_end {
                return Err(format!("batch {} overlaps its predecessor", b.id));
            }
            if b.handling_done < b.start {
                return Err(format!("batch {}: handling precedes start", b.id));
            }
            if b.first_migration_start < b.handling_done {
                return Err(format!("batch {}: migration inside handling window", b.id));
            }
            if b.end < b.first_migration_start {
                return Err(format!("batch {}: ends before migrating", b.id));
            }
            if b.faults == 0 {
                return Err(format!("batch {} serviced no faults", b.id));
            }
            if b.migrated_bytes != u64::from(b.pages()) * page_bytes {
                return Err(format!("batch {}: byte accounting mismatch", b.id));
            }
            prev_end = b.end;
        }
        let pages: u64 = self.batches.iter().map(|b| u64::from(b.pages())).sum();
        if self.h2d_bytes != pages * page_bytes {
            return Err("H2D bytes disagree with pages migrated".into());
        }
        let evictions: u64 = self.batches.iter().map(|b| u64::from(b.evictions)).sum();
        if self.evictions != evictions {
            return Err("eviction totals disagree with batch records".into());
        }
        if self.premature_evictions > self.evictions {
            return Err("more premature evictions than evictions".into());
        }
        if let Some(cap) = capacity {
            if self.peak_resident_pages > cap {
                return Err(format!(
                    "peak residency {} exceeds capacity {cap}",
                    self.peak_resident_pages
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, pages: u32, start: Cycle, end: Cycle) -> BatchRecord {
        BatchRecord {
            id,
            start,
            handling_done: start + 20_000,
            first_migration_start: start + 20_000,
            end,
            faults: pages,
            prefetches: 0,
            evictions: 0,
            forced_pinned_evictions: 0,
            migrated_bytes: u64::from(pages) * 65_536,
        }
    }

    #[test]
    fn averages() {
        let s = UvmStats {
            batches: vec![rec(0, 10, 0, 100_000), rec(1, 30, 200_000, 260_000)],
            ..UvmStats::default()
        };
        assert_eq!(s.num_batches(), 2);
        assert_eq!(s.avg_batch_pages(), 20.0);
        assert_eq!(s.avg_processing_time(), 80_000.0);
        assert_eq!(s.avg_fault_handling_time(), 20_000.0);
    }

    #[test]
    fn phase_totals_split_processing_time_and_feed_the_csv() {
        // A 300-cycle batch: 50 handling, 50 eviction wait, 200 migration.
        let split = BatchRecord {
            handling_done: 150,
            first_migration_start: 200,
            prefetches: 4,
            evictions: 2,
            forced_pinned_evictions: 1,
            ..rec(0, 4, 100, 400)
        };
        let s = UvmStats { batches: vec![split, rec(1, 2, 1_000, 61_000)], ..UvmStats::default() };
        assert_eq!(s.phase_totals(), (50 + 20_000, 50, 200 + 40_000));
        let (handling, wait, migration) = s.phase_totals();
        let processing: Cycle = s.batches.iter().map(BatchRecord::processing_time).sum();
        assert_eq!(handling + wait + migration, processing);
        let csv = s.batches_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().nth(1), Some("0,8,4,4,2,1,262144,100,400,300,50,50,200"));
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = UvmStats::default();
        assert_eq!(s.avg_batch_pages(), 0.0);
        assert_eq!(s.avg_processing_time(), 0.0);
        assert_eq!(s.premature_rate(), 0.0);
    }

    #[test]
    fn histogram_buckets() {
        let s = UvmStats {
            batches: vec![rec(0, 10, 0, 1), rec(1, 30, 0, 1), rec(2, 33, 0, 1)],
            ..UvmStats::default()
        };
        // Bucket width 1 MB: 10 pages = 640 KB -> bucket 0; 30/33 pages
        // ≈ 1.9/2.1 MB -> buckets 1 and 2.
        let h = s.batch_size_histogram(1024 * 1024);
        assert_eq!(h.len(), 3);
        assert_eq!(h[0], (1024 * 1024, 1));
        assert_eq!(h[1].1, 1);
        assert_eq!(h[2].1, 1);
    }

    #[test]
    fn premature_rate() {
        let s = UvmStats { evictions: 10, premature_evictions: 3, ..UvmStats::default() };
        assert!((s.premature_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn validate_accepts_well_formed_stats() {
        let s = UvmStats {
            batches: vec![rec(0, 10, 0, 100_000), rec(1, 5, 100_000, 160_000)],
            h2d_bytes: 15 * 65_536,
            ..UvmStats::default()
        };
        s.validate(Some(100), 65_536).unwrap();
    }

    #[test]
    fn validate_rejects_overlapping_batches() {
        let s = UvmStats {
            batches: vec![rec(0, 10, 0, 100_000), rec(1, 5, 90_000, 160_000)],
            h2d_bytes: 15 * 65_536,
            ..UvmStats::default()
        };
        assert!(s.validate(None, 65_536).unwrap_err().contains("overlaps"));
    }

    #[test]
    fn validate_rejects_capacity_violation() {
        let s = UvmStats {
            batches: vec![rec(0, 10, 0, 100_000)],
            h2d_bytes: 10 * 65_536,
            peak_resident_pages: 50,
            ..UvmStats::default()
        };
        assert!(s.validate(Some(40), 65_536).unwrap_err().contains("capacity"));
        s.validate(Some(50), 65_536).unwrap();
    }

    #[test]
    fn validate_rejects_byte_mismatch() {
        let s = UvmStats {
            batches: vec![rec(0, 10, 0, 100_000)],
            h2d_bytes: 9 * 65_536,
            ..UvmStats::default()
        };
        assert!(s.validate(None, 65_536).is_err());
    }
}
