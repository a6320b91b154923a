//! The shared, highly threaded page-table walker.
//!
//! GPUs access an order of magnitude more pages than CPUs; the paper's
//! simulator therefore uses the design of Power et al. (HPCA'14): a single
//! walker shared by all SMs that sustains up to 64 concurrent walks, plus a
//! page-walk cache (Barr et al., ISCA'10) exploiting the temporal locality
//! of upper-level page-table entries.
//!
//! The walker is modeled as a bank of walk slots: a walk occupies the
//! earliest-available slot, so requests beyond the concurrency limit queue
//! and their latency includes the queueing delay.

use crate::tlb::Tlb;
use batmem_types::{Cycle, PageId};

/// The shared page-table walker.
#[derive(Debug, Clone)]
pub struct PageTableWalker {
    /// Completion time of the walk occupying each slot.
    slots: Vec<Cycle>,
    walk_latency: Cycle,
    pwc_miss_penalty: Cycle,
    /// Page-walk cache over upper-level PTE groups, reusing the TLB
    /// structure (fully associative, LRU).
    pwc: Tlb,
    /// Pages covered by one upper-level PTE group: a 4 KB page-table page
    /// holds 512 PTEs.
    pwc_group_pages: u64,
    walks: u64,
    queued_walks: u64,
    pwc_hits: u64,
    large_walks: u64,
}

impl PageTableWalker {
    /// Creates a walker with `threads` concurrent walk slots.
    ///
    /// `walk_latency` is the latency of a walk whose upper levels hit the
    /// page-walk cache; a PWC miss adds `pwc_miss_penalty`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `pwc_entries` is zero.
    pub fn new(
        threads: u32,
        walk_latency: Cycle,
        pwc_miss_penalty: Cycle,
        pwc_entries: u32,
    ) -> Self {
        assert!(threads > 0, "walker needs at least one thread");
        Self {
            slots: vec![0; threads as usize],
            walk_latency,
            pwc_miss_penalty,
            pwc: Tlb::fully_associative(pwc_entries),
            pwc_group_pages: 512,
            walks: 0,
            queued_walks: 0,
            pwc_hits: 0,
            large_walks: 0,
        }
    }

    /// Claims the earliest-available walk slot at `now` for a walk of
    /// `latency` cycles; returns its completion time.
    fn claim_slot(&mut self, now: Cycle, latency: Cycle) -> Cycle {
        let slot = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, &free_at)| free_at)
            .map(|(i, _)| i)
            .expect("walker has slots");
        let start = self.slots[slot].max(now);
        if start > now {
            self.queued_walks += 1;
        }
        let done = start + latency;
        self.slots[slot] = done;
        done
    }

    /// Begins a walk for `page` at time `now`; returns the walk's
    /// completion time (≥ `now + walk_latency`, later under contention or
    /// on a page-walk-cache miss).
    pub fn begin_walk(&mut self, now: Cycle, page: PageId) -> Cycle {
        self.walks += 1;
        let group = PageId::new(page.index() / self.pwc_group_pages);
        let latency = if self.pwc.lookup(group) {
            self.pwc_hits += 1;
            self.walk_latency
        } else {
            self.pwc.insert(group);
            self.walk_latency + self.pwc_miss_penalty
        };
        self.claim_slot(now, latency)
    }

    /// Begins a walk that resolves at a **large-page** PTE: one level
    /// shorter than a base walk and never reliant on the leaf-level page
    /// walk cache, so it costs half the base walk latency. Competes for
    /// the same walk slots. Returns the walk's completion time.
    pub fn begin_large_walk(&mut self, now: Cycle) -> Cycle {
        self.large_walks += 1;
        self.claim_slot(now, (self.walk_latency / 2).max(1))
    }

    /// Total walks issued.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Walks that had to queue behind a busy walker.
    pub fn queued_walks(&self) -> u64 {
        self.queued_walks
    }

    /// Walks whose upper levels hit the page-walk cache.
    pub fn pwc_hits(&self) -> u64 {
        self.pwc_hits
    }

    /// Walks that resolved at a large-page PTE.
    pub fn large_walks(&self) -> u64 {
        self.large_walks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walker(threads: u32) -> PageTableWalker {
        PageTableWalker::new(threads, 200, 100, 16)
    }

    #[test]
    fn first_walk_takes_latency_plus_pwc_miss() {
        let mut w = walker(4);
        let done = w.begin_walk(1000, PageId::new(7));
        assert_eq!(done, 1000 + 200 + 100);
    }

    #[test]
    fn second_walk_same_group_hits_pwc() {
        let mut w = walker(4);
        w.begin_walk(0, PageId::new(7));
        let done = w.begin_walk(1000, PageId::new(8)); // same 512-page group
        assert_eq!(done, 1000 + 200);
        assert_eq!(w.pwc_hits(), 1);
    }

    #[test]
    fn distant_pages_miss_pwc() {
        let mut w = walker(4);
        w.begin_walk(0, PageId::new(0));
        let done = w.begin_walk(1000, PageId::new(512));
        assert_eq!(done, 1000 + 300);
    }

    #[test]
    fn walks_queue_when_all_slots_busy() {
        let mut w = walker(2);
        let a = w.begin_walk(0, PageId::new(0));
        let b = w.begin_walk(0, PageId::new(512));
        // Third walk (same group as first => PWC hit) queues behind the
        // earliest finishing slot.
        let c = w.begin_walk(0, PageId::new(1));
        assert_eq!(a, 300);
        assert_eq!(b, 300);
        assert_eq!(c, 300 + 200);
        assert_eq!(w.queued_walks(), 1);
    }

    #[test]
    fn sixty_four_walkers_absorb_burst() {
        let mut w = walker(64);
        let dones: Vec<_> = (0..64).map(|i| w.begin_walk(0, PageId::new(i))).collect();
        // No queueing within the first 64 concurrent walks.
        assert_eq!(w.queued_walks(), 0);
        assert!(dones.iter().all(|&d| d <= 300));
        w.begin_walk(0, PageId::new(64));
        assert_eq!(w.queued_walks(), 1);
    }

    #[test]
    fn counters() {
        let mut w = walker(2);
        w.begin_walk(0, PageId::new(0));
        w.begin_walk(0, PageId::new(1));
        assert_eq!(w.walks(), 2);
    }

    #[test]
    fn large_walks_are_shorter_and_share_slots() {
        let mut w = walker(1);
        // Large walk: half the base latency, no PWC penalty.
        assert_eq!(w.begin_large_walk(0), 100);
        assert_eq!(w.large_walks(), 1);
        assert_eq!(w.walks(), 0, "large walks are counted separately");
        // A base walk queues behind the large walk's slot.
        let done = w.begin_walk(0, PageId::new(0));
        assert_eq!(done, 100 + 300);
        assert_eq!(w.queued_walks(), 1);
    }
}
