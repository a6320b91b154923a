//! The replayable page-fault buffer.
//!
//! The GPU MMU appends fault entries to a fixed-capacity buffer (Table 1:
//! 1024 entries); the runtime drains it at the start of each batch. Faults
//! raised while a batch is in flight accumulate for the next batch (§2.2).
//! On overflow the hardware drops the entry and relies on replay — the warp
//! stays stalled and the access re-faults after the current batch completes.
//! We model replay precisely by keeping overflowed pages pending beside the
//! buffered ones, so they merge into the next drain.
//!
//! The pending pages are one [`PageSet`] (the deduplication check) and one
//! vector in arrival order: the buffered pages first, then the overflowed
//! ones. Deduplication keeps the vector distinct, so a drain is one sort.

use batmem_types::dense::PageSet;
use batmem_types::PageId;

/// The bounded, deduplicating fault buffer plus the replay side set.
#[derive(Debug, Clone)]
pub struct FaultBuffer {
    capacity: usize,
    /// Every pending page, buffered or overflowed.
    pending: PageSet,
    /// The pending pages in arrival order; the first `buffered` of them
    /// hold buffer entries, the rest overflowed into replay.
    arrivals: Vec<PageId>,
    buffered: usize,
    raised: u64,
    duplicates: u64,
    overflows: u64,
}

impl FaultBuffer {
    /// Creates a buffer holding up to `capacity` distinct pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "fault buffer needs capacity");
        Self {
            capacity: capacity as usize,
            pending: PageSet::new(),
            arrivals: Vec::new(),
            buffered: 0,
            raised: 0,
            duplicates: 0,
            overflows: 0,
        }
    }

    /// Records a fault for `page`.
    ///
    /// Faults for pages already pending are deduplicated (the runtime's
    /// preprocessing would coalesce them anyway); faults beyond capacity go
    /// to the replay set.
    pub fn record(&mut self, page: PageId) {
        self.raised += 1;
        if !self.pending.insert(page) {
            self.duplicates += 1;
            return;
        }
        self.arrivals.push(page);
        if self.buffered < self.capacity {
            self.buffered += 1;
        } else {
            self.overflows += 1;
        }
    }

    /// Drains every buffered and replayed page for batch processing,
    /// returning them **sorted by ascending page address** — the first step
    /// of the runtime's `preprocess_fault_batch` (§2.2).
    pub fn drain_sorted(&mut self) -> Vec<PageId> {
        let mut pages = std::mem::take(&mut self.arrivals);
        pages.sort_unstable();
        self.pending.clear();
        self.buffered = 0;
        pages
    }

    /// Distinct pages currently pending (buffered + replay).
    pub fn pending(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether any fault is pending.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Total faults raised (including duplicates and overflows).
    pub fn raised(&self) -> u64 {
        self.raised
    }

    /// Faults coalesced into an existing entry.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Faults that overflowed into the replay set.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> PageId {
        PageId::new(i)
    }

    #[test]
    fn records_and_drains_sorted() {
        let mut b = FaultBuffer::new(8);
        b.record(p(5));
        b.record(p(1));
        b.record(p(3));
        assert_eq!(b.pending(), 3);
        assert_eq!(b.drain_sorted(), vec![p(1), p(3), p(5)]);
        assert!(b.is_empty());
    }

    #[test]
    fn duplicates_coalesce() {
        let mut b = FaultBuffer::new(8);
        b.record(p(7));
        b.record(p(7));
        assert_eq!(b.pending(), 1);
        assert_eq!(b.duplicates(), 1);
        assert_eq!(b.raised(), 2);
    }

    #[test]
    fn overflow_goes_to_replay_set_and_merges_on_drain() {
        let mut b = FaultBuffer::new(2);
        b.record(p(1));
        b.record(p(2));
        b.record(p(3)); // overflows
        assert_eq!(b.overflows(), 1);
        assert_eq!(b.pending(), 3);
        assert_eq!(b.drain_sorted(), vec![p(1), p(2), p(3)]);
    }

    #[test]
    fn overflowed_page_still_dedupes() {
        let mut b = FaultBuffer::new(1);
        b.record(p(1));
        b.record(p(9)); // overflow
        b.record(p(9)); // duplicate of overflowed page
        assert_eq!(b.duplicates(), 1);
        assert_eq!(b.overflows(), 1);
    }

    #[test]
    fn drain_resets_capacity() {
        let mut b = FaultBuffer::new(2);
        b.record(p(1));
        b.record(p(2));
        let _ = b.drain_sorted();
        b.record(p(3));
        assert_eq!(b.overflows(), 0);
        assert_eq!(b.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = FaultBuffer::new(0);
    }
}
