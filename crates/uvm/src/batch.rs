//! Per-batch timing records.
//!
//! The paper defines (§2.2, Fig. 2):
//!
//! * **GPU runtime fault handling time** — from the start of a batch's
//!   processing to the start of the batch's first page transfer;
//! * **batch processing time** — from the start of a batch's processing to
//!   the migration of its last page.
//!
//! A record also splits its processing time into three phases (the Fig. 5
//! anatomy): the runtime's handling window, the wait for an eviction to
//! free the first frame, and the migration itself.

use batmem_types::Cycle;

/// The timing and composition of one processed fault batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRecord {
    /// Sequence number (0-based).
    pub id: u64,
    /// When the runtime began processing the batch.
    pub start: Cycle,
    /// When preprocessing/page-table walks finished and migration
    /// scheduling began.
    pub handling_done: Cycle,
    /// When the first page transfer actually started on the PCIe pipe
    /// (≥ `handling_done`; later if the pipe was still draining).
    pub first_migration_start: Cycle,
    /// When the batch's last page arrived in device memory.
    pub end: Cycle,
    /// Distinct faulted pages serviced.
    pub faults: u32,
    /// Prefetched pages appended by the prefetcher.
    pub prefetches: u32,
    /// Evictions this batch scheduled.
    pub evictions: u32,
    /// Evictions that were forced to take a pinned (same-batch) page.
    pub forced_pinned_evictions: u32,
    /// Bytes migrated host-to-device.
    pub migrated_bytes: u64,
}

impl BatchRecord {
    /// Pages migrated (faults + prefetches).
    pub fn pages(&self) -> u32 {
        self.faults + self.prefetches
    }

    /// GPU runtime fault handling time (paper definition: batch start to
    /// first page transfer).
    pub fn fault_handling_time(&self) -> Cycle {
        self.first_migration_start - self.start
    }

    /// Batch processing time (batch start to last page migrated).
    pub fn processing_time(&self) -> Cycle {
        self.end - self.start
    }

    /// The runtime's fault-handling window (batch start to the end of
    /// preprocessing and page-table walks).
    pub fn handling_cycles(&self) -> Cycle {
        self.handling_done - self.start
    }

    /// Cycles between the end of handling and the first transfer: the
    /// eviction-serialization stall UE removes (Fig. 5).
    pub fn eviction_wait_cycles(&self) -> Cycle {
        self.first_migration_start - self.handling_done
    }

    /// Cycles from the first transfer start to the last arrival.
    pub fn migration_cycles(&self) -> Cycle {
        self.end - self.first_migration_start
    }

    /// Per-page fault handling time (processing time / pages), the Fig. 3
    /// metric. Zero pages yields `None`.
    pub fn per_page_time(&self) -> Option<f64> {
        let p = self.pages();
        if p == 0 {
            None
        } else {
            Some(self.processing_time() as f64 / f64::from(p))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> BatchRecord {
        BatchRecord {
            id: 0,
            start: 1000,
            handling_done: 21_000,
            first_migration_start: 21_000,
            end: 62_000,
            faults: 8,
            prefetches: 2,
            evictions: 3,
            forced_pinned_evictions: 0,
            migrated_bytes: 10 * 65_536,
        }
    }

    #[test]
    fn derived_times() {
        let r = record();
        assert_eq!(r.pages(), 10);
        assert_eq!(r.fault_handling_time(), 20_000);
        assert_eq!(r.processing_time(), 61_000);
        assert_eq!(r.per_page_time(), Some(6_100.0));
    }

    #[test]
    fn phases_split_the_processing_time() {
        let r = BatchRecord {
            start: 100,
            handling_done: 150,
            first_migration_start: 200,
            end: 400,
            ..record()
        };
        assert_eq!(r.processing_time(), 300);
        assert_eq!(r.handling_cycles(), 50);
        assert_eq!(r.eviction_wait_cycles(), 50);
        assert_eq!(r.migration_cycles(), 200);
        assert_eq!(r.fault_handling_time(), r.handling_cycles() + r.eviction_wait_cycles());
    }

    #[test]
    fn per_page_time_of_empty_batch() {
        let mut r = record();
        r.faults = 0;
        r.prefetches = 0;
        assert_eq!(r.per_page_time(), None);
    }

    #[test]
    fn handling_time_uses_actual_first_transfer() {
        let mut r = record();
        r.first_migration_start = 25_000; // pipe was busy
        assert_eq!(r.fault_handling_time(), 24_000);
    }
}
