//! The GPU physical memory manager.
//!
//! Tracks device-frame allocation and the aged-LRU order the NVIDIA driver
//! keeps over allocated chunks (`root_chunks.va_block_used`, §3 footnote 4).
//! The manager holds the runtime's *planned* residency: the batch planner
//! allocates frames and selects eviction victims here, while the MMU's page
//! table tracks the warps' view (which lags by the transfer latencies).
//!
//! Per-page state lives in a dense table indexed by page number (page IDs
//! are dense `0..footprint_pages`, fixed at launch — see DESIGN.md "dense
//! page state"), and the LRU is an intrusive doubly-linked list threaded
//! through that table: `mark_resident`/`touch`/`remove` are O(1), and a
//! victim scan walks the list from the LRU head instead of rescanning a
//! `BTreeMap` of age stamps. List order equals the old ascending-stamp
//! order (every refresh moves a page to the MRU tail), so victim selection
//! is bit-identical to the stamp-based implementation it replaced.

use batmem_types::{Cycle, FrameId, PageId, SimError};

/// Null link in the intrusive LRU list.
const NIL: u32 = u32::MAX;

/// Dense per-page state: the frame (valid while resident) and the page's
/// links in the intrusive LRU list.
#[derive(Debug, Clone, Copy)]
struct PageEntry {
    frame: FrameId,
    prev: u32,
    next: u32,
    resident: bool,
}

impl Default for PageEntry {
    fn default() -> Self {
        Self { frame: FrameId::new(0), prev: NIL, next: NIL, resident: false }
    }
}

/// Physical frame allocation and LRU victim selection.
#[derive(Debug, Clone)]
pub struct MemoryManager {
    /// Device capacity in frames; `None` = unlimited.
    capacity: Option<u64>,
    /// Frames never yet handed out (minted on demand).
    next_frame: u32,
    /// Frames returned by evictions and available for reuse.
    free: Vec<FrameId>,
    /// Dense per-page table; index = page number.
    pages: Vec<PageEntry>,
    /// LRU list head (least recently used) and tail (most recently used).
    head: u32,
    tail: u32,
    resident_count: usize,
    evictions: u64,
    touches: u64,
    peak_resident: usize,
    contiguous_takes: u64,
}

impl MemoryManager {
    /// Creates a manager for `capacity` frames (`None` = unlimited).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is `Some(0)`.
    pub fn new(capacity: Option<u64>) -> Self {
        assert!(capacity != Some(0), "capacity of zero frames is not runnable");
        Self {
            capacity,
            next_frame: 0,
            free: Vec::new(),
            pages: Vec::new(),
            head: NIL,
            tail: NIL,
            resident_count: 0,
            evictions: 0,
            touches: 0,
            peak_resident: 0,
            contiguous_takes: 0,
        }
    }

    /// Attempts to take a frame: reuses a freed frame, or mints a new one
    /// while under capacity. `None` means an eviction is required.
    pub fn take_frame(&mut self) -> Option<FrameId> {
        if let Some(f) = self.free.pop() {
            return Some(f);
        }
        let under_cap = match self.capacity {
            None => true,
            Some(c) => u64::from(self.next_frame) < c,
        };
        if under_cap {
            let f = FrameId::new(self.next_frame);
            self.next_frame += 1;
            Some(f)
        } else {
            None
        }
    }

    /// Contiguity-aware variant of [`take_frame`](Self::take_frame): if
    /// `preferred` sits in the free pool, take exactly it; if it is the
    /// next unminted frame, mint it. Otherwise falls back to the normal
    /// allocation order. Used by the coalescing path so a large-page
    /// group's frames tend toward physical contiguity (the property real
    /// coalescing designs engineer their allocators for); never called
    /// when coalescing is off, keeping that path's allocation order
    /// untouched.
    pub fn take_frame_near(&mut self, preferred: FrameId) -> Option<FrameId> {
        if let Some(pos) = self.free.iter().rposition(|&f| f == preferred) {
            self.contiguous_takes += 1;
            return Some(self.free.swap_remove(pos));
        }
        let under_cap = match self.capacity {
            None => true,
            Some(c) => u64::from(self.next_frame) < c,
        };
        if preferred.index() == self.next_frame && under_cap {
            self.contiguous_takes += 1;
            self.next_frame += 1;
            return Some(preferred);
        }
        self.take_frame()
    }

    /// Allocations where [`take_frame_near`](Self::take_frame_near) could
    /// honor the preferred frame.
    pub fn contiguous_takes(&self) -> u64 {
        self.contiguous_takes
    }

    /// The frame backing `page`, if it is (planned) resident.
    pub fn frame_of(&self, page: PageId) -> Option<FrameId> {
        self.pages.get(page.index() as usize).and_then(|e| e.resident.then_some(e.frame))
    }

    /// Frames obtainable without evicting (free pool + unminted capacity).
    pub fn available_without_eviction(&self) -> u64 {
        let mintable = match self.capacity {
            None => u64::MAX - self.free.len() as u64,
            Some(c) => c.saturating_sub(u64::from(self.next_frame)),
        };
        self.free.len() as u64 + mintable
    }

    /// Whether no frame can be taken without an eviction.
    pub fn at_capacity(&self) -> bool {
        self.free.is_empty()
            && match self.capacity {
                None => false,
                Some(c) => u64::from(self.next_frame) >= c,
            }
    }

    /// Appends list node `i` at the MRU tail.
    #[inline]
    fn link_tail(&mut self, i: u32) {
        let e = &mut self.pages[i as usize];
        e.prev = self.tail;
        e.next = NIL;
        if self.tail != NIL {
            self.pages[self.tail as usize].next = i;
        } else {
            self.head = i;
        }
        self.tail = i;
    }

    /// Unlinks list node `i`.
    #[inline]
    fn unlink(&mut self, i: u32) {
        let PageEntry { prev, next, .. } = self.pages[i as usize];
        if prev != NIL {
            self.pages[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.pages[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Marks `page` resident in `frame` and stamps it most recently used.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Accounting`] stamped with `now` if the page is
    /// already resident (a double install would leak the page's previous
    /// frame) or its index does not fit the dense table.
    pub fn mark_resident(
        &mut self,
        page: PageId,
        frame: FrameId,
        now: Cycle,
    ) -> Result<(), SimError> {
        let i = page.index();
        if i >= u64::from(NIL) {
            return Err(SimError::Accounting {
                cycle: now,
                detail: format!("page {page} exceeds the dense page-table range"),
            });
        }
        let i = i as usize;
        if i >= self.pages.len() {
            self.pages.resize(i + 1, PageEntry::default());
        }
        if self.pages[i].resident {
            let prev = self.pages[i].frame;
            return Err(SimError::Accounting {
                cycle: now,
                detail: format!("page {page} marked resident twice (held {prev}, offered {frame})"),
            });
        }
        self.pages[i].frame = frame;
        self.pages[i].resident = true;
        self.resident_count += 1;
        self.peak_resident = self.peak_resident.max(self.resident_count);
        self.link_tail(i as u32);
        Ok(())
    }

    /// Refreshes `page`'s LRU position if it is resident (called on access).
    pub fn touch(&mut self, page: PageId) {
        if self.is_resident(page) {
            self.touches += 1;
            let i = page.index() as u32;
            self.unlink(i);
            self.link_tail(i);
        }
    }

    /// Removes `page` from residency (eviction), returning its frame to
    /// the free pool is the **caller's** job — the frame may only become
    /// reusable when the eviction transfer completes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Accounting`] stamped with `now` if the page is
    /// not resident (the books are already corrupt).
    pub fn remove(&mut self, page: PageId, now: Cycle) -> Result<FrameId, SimError> {
        if !self.is_resident(page) {
            return Err(SimError::Accounting {
                cycle: now,
                detail: format!("evicting page {page} that is not resident"),
            });
        }
        let i = page.index() as u32;
        self.unlink(i);
        let e = &mut self.pages[i as usize];
        e.resident = false;
        e.prev = NIL;
        e.next = NIL;
        self.resident_count -= 1;
        self.evictions += 1;
        Ok(e.frame)
    }

    /// Returns an eviction-completed frame to the free pool.
    pub fn release_frame(&mut self, frame: FrameId) {
        self.free.push(frame);
    }

    /// Selects the page to evict to free one frame: the least recently
    /// used page for which `pinned` returns `false`, or, when every
    /// resident page is pinned, the least recently used page with
    /// `forced = true`.
    ///
    /// Returns `None` if nothing is resident.
    pub fn pick_victim(&self, pinned: impl Fn(PageId) -> bool) -> Option<(PageId, bool)> {
        match self.pages_in_lru_order().find(|&p| !pinned(p)) {
            Some(p) => Some((p, false)),
            None => self.pages_in_lru_order().next().map(|head| (head, true)),
        }
    }

    /// Walks the resident pages in LRU order (least recently used first).
    ///
    /// Exists for eviction strategies whose victim selection is not the
    /// plain LRU-head policy of [`pick_victim`](Self::pick_victim) — e.g.
    /// a random-victim strategy samples uniformly from this walk.
    pub fn pages_in_lru_order(&self) -> impl Iterator<Item = PageId> + '_ {
        std::iter::successors((self.head != NIL).then_some(self.head), move |&i| {
            let n = self.pages[i as usize].next;
            (n != NIL).then_some(n)
        })
        .map(|i| PageId::new(u64::from(i)))
    }

    /// Whether `page` is (planned) resident.
    #[inline]
    pub fn is_resident(&self, page: PageId) -> bool {
        self.pages.get(page.index() as usize).is_some_and(|e| e.resident)
    }

    /// Number of resident pages.
    pub fn resident_count(&self) -> usize {
        self.resident_count
    }

    /// Total evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total LRU touches recorded.
    pub fn touches(&self) -> u64 {
        self.touches
    }

    /// Highest simultaneous resident-page count observed.
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// The configured capacity in frames.
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }

    /// Frames ever minted (handed out at least once).
    pub fn minted_frames(&self) -> u64 {
        u64::from(self.next_frame)
    }

    /// Frames currently in the free pool.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Re-derives the manager's internal invariants from scratch.
    ///
    /// Called by the runtime auditor under
    /// [`AuditLevel::Full`](batmem_types::AuditLevel) with the audit's
    /// simulated time, which stamps any violation. Checks that the LRU list
    /// is well-linked and mirrors the residency flags exactly, that no
    /// frame is tracked twice, and that the books never exceed minted
    /// frames or capacity.
    pub fn audit(&self, now: Cycle) -> Result<(), SimError> {
        let violated = |invariant: &'static str, snapshot: String| {
            Err(SimError::InvariantViolated { cycle: now, invariant, snapshot })
        };
        // Walk the LRU list: every node resident, links round-trip, length
        // matches the resident count (which covers "every resident page is
        // listed", since list nodes are distinct table slots).
        let mut listed = 0usize;
        let mut prev = NIL;
        let mut cur = self.head;
        while cur != NIL {
            let Some(e) = self.pages.get(cur as usize) else {
                return violated("LRU links stay in the table", format!("link {cur} out of range"));
            };
            if !e.resident {
                return violated(
                    "listed pages are resident",
                    format!("page:{cur} is in the LRU list but not resident"),
                );
            }
            if e.prev != prev {
                return violated(
                    "LRU list is well-linked",
                    format!("page:{cur} prev {} != walked {prev}", e.prev),
                );
            }
            listed += 1;
            if listed > self.pages.len() {
                return violated("LRU list is acyclic", format!("walked {listed} nodes"));
            }
            prev = cur;
            cur = e.next;
        }
        if prev != self.tail {
            return violated(
                "LRU tail terminates the list",
                format!("walk ended at {prev}, tail is {}", self.tail),
            );
        }
        if listed != self.resident_count {
            return violated(
                "LRU list mirrors residency",
                format!("listed={listed} resident={}", self.resident_count),
            );
        }
        let mut seen = vec![false; self.next_frame as usize];
        let resident_frames = self.pages.iter().filter(|e| e.resident).map(|e| e.frame);
        for f in self.free.iter().copied().chain(resident_frames) {
            if f.index() >= self.next_frame {
                return violated(
                    "tracked frames were minted",
                    format!("{f} >= next_frame {}", self.next_frame),
                );
            }
            if seen[f.index() as usize] {
                return violated("no frame tracked twice", format!("{f} appears twice"));
            }
            seen[f.index() as usize] = true;
        }
        if let Some(cap) = self.capacity {
            if u64::from(self.next_frame) > cap {
                return violated(
                    "minted frames within capacity",
                    format!("minted {} > capacity {cap}", self.next_frame),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn p(i: u64) -> PageId {
        PageId::new(i)
    }

    fn mgr(cap: u64) -> MemoryManager {
        MemoryManager::new(Some(cap))
    }

    fn unpinned(_: PageId) -> bool {
        false
    }

    #[test]
    fn lru_walk_matches_touch_order() {
        let mut m = mgr(3);
        for i in 0..3 {
            let f = m.take_frame().unwrap();
            m.mark_resident(p(i), f, i).unwrap();
        }
        assert_eq!(m.pages_in_lru_order().collect::<Vec<_>>(), vec![p(0), p(1), p(2)]);
        m.touch(p(0)); // now the coldest page is 1
        assert_eq!(m.pages_in_lru_order().collect::<Vec<_>>(), vec![p(1), p(2), p(0)]);
        assert_eq!(m.pick_victim(unpinned), Some((p(1), false)));
        let empty = mgr(3);
        assert_eq!(empty.pages_in_lru_order().count(), 0);
    }

    #[test]
    fn mints_frames_up_to_capacity() {
        let mut m = mgr(2);
        let a = m.take_frame().unwrap();
        let b = m.take_frame().unwrap();
        assert_ne!(a, b);
        assert!(m.take_frame().is_none());
        assert!(m.at_capacity());
    }

    #[test]
    fn unlimited_never_at_capacity() {
        let mut m = MemoryManager::new(None);
        for _ in 0..10_000 {
            assert!(m.take_frame().is_some());
        }
        assert!(!m.at_capacity());
    }

    #[test]
    fn released_frames_are_reused() {
        let mut m = mgr(1);
        let a = m.take_frame().unwrap();
        assert!(m.take_frame().is_none());
        m.release_frame(a);
        assert!(!m.at_capacity());
        assert_eq!(m.take_frame(), Some(a));
    }

    #[test]
    fn lru_victim_is_least_recently_touched() {
        let mut m = mgr(3);
        for i in 0..3 {
            let f = m.take_frame().unwrap();
            m.mark_resident(p(i), f, 0).unwrap();
        }
        m.touch(p(0)); // 0 refreshed; LRU is now 1
        assert_eq!(m.pick_victim(unpinned), Some((p(1), false)));
    }

    #[test]
    fn pinned_pages_are_skipped_until_forced() {
        let mut m = mgr(2);
        for i in 0..2 {
            let f = m.take_frame().unwrap();
            m.mark_resident(p(i), f, 0).unwrap();
        }
        let pinned: HashSet<PageId> = [p(0)].into_iter().collect();
        assert_eq!(m.pick_victim(|q| pinned.contains(&q)), Some((p(1), false)));
        let all: HashSet<PageId> = [p(0), p(1)].into_iter().collect();
        // The LRU page even though pinned, and the pick says so.
        assert_eq!(m.pick_victim(|q| all.contains(&q)), Some((p(0), true)));
    }

    #[test]
    fn empty_manager_has_no_victim() {
        let m = mgr(2);
        assert_eq!(m.pick_victim(unpinned), None);
    }

    #[test]
    fn remove_makes_page_non_resident_and_counts() {
        let mut m = mgr(1);
        let f = m.take_frame().unwrap();
        m.mark_resident(p(7), f, 0).unwrap();
        assert!(m.is_resident(p(7)));
        let got = m.remove(p(7), 0).unwrap();
        assert_eq!(got, f);
        assert!(!m.is_resident(p(7)));
        assert_eq!(m.evictions(), 1);
        assert_eq!(m.resident_count(), 0);
    }

    #[test]
    fn double_mark_is_an_accounting_error() {
        let mut m = mgr(2);
        let f = m.take_frame().unwrap();
        m.mark_resident(p(1), f, 70).unwrap();
        let err = m.mark_resident(p(1), f, 70).unwrap_err();
        assert!(matches!(err, SimError::Accounting { .. }), "{err}");
        assert!(err.to_string().contains("resident twice"));
        // The failed insert must not corrupt the books.
        m.audit(70).unwrap();
    }

    #[test]
    fn remove_of_non_resident_is_an_accounting_error() {
        let mut m = mgr(2);
        let err = m.remove(p(3), 0).unwrap_err();
        assert!(matches!(err, SimError::Accounting { .. }), "{err}");
        m.audit(0).unwrap();
    }

    #[test]
    fn errors_carry_the_callers_clock() {
        let mut m = mgr(2);
        let err = m.remove(p(3), 41_778).unwrap_err();
        assert_eq!(err.cycle(), Some(41_778));
        assert!(err.to_string().contains("41778"));
        let f = m.take_frame().unwrap();
        m.mark_resident(p(1), f, 50).unwrap();
        let err = m.mark_resident(p(1), f, 99).unwrap_err();
        assert_eq!(err.cycle(), Some(99));
    }

    #[test]
    fn audit_passes_through_a_busy_lifecycle() {
        let mut m = mgr(4);
        for round in 0..8u64 {
            for i in 0..4u64 {
                let page = p(round * 4 + i);
                let frame = match m.take_frame() {
                    Some(f) => f,
                    None => {
                        let (v, _) = m.pick_victim(unpinned).unwrap();
                        let f = m.remove(v, 0).unwrap();
                        m.release_frame(f);
                        m.take_frame().unwrap()
                    }
                };
                m.mark_resident(page, frame, 0).unwrap();
                m.audit(0).unwrap();
            }
        }
        assert_eq!(m.minted_frames(), 4);
        assert_eq!(m.free_frames(), 0);
    }

    #[test]
    fn touch_of_non_resident_is_noop() {
        let mut m = mgr(2);
        m.touch(p(9));
        assert_eq!(m.touches(), 0);
    }

    #[test]
    fn take_frame_near_prefers_the_named_frame() {
        let mut m = mgr(4);
        // Mint 0..3 resident, then free 1 and 2 (release order: 1, 2).
        for i in 0..4 {
            let f = m.take_frame().unwrap();
            m.mark_resident(p(i), f, 0).unwrap();
        }
        for i in [1, 2] {
            let f = m.remove(p(i), 0).unwrap();
            m.release_frame(f);
        }
        // Plain take_frame would pop frame 2 (stack order); the near
        // variant digs frame 1 out of the pool.
        assert_eq!(m.take_frame_near(FrameId::new(1)), Some(FrameId::new(1)));
        assert_eq!(m.contiguous_takes(), 1);
        // A preferred frame that is neither free nor next-to-mint falls
        // back to normal order.
        assert_eq!(m.take_frame_near(FrameId::new(0)), Some(FrameId::new(2)));
        assert_eq!(m.contiguous_takes(), 1);
        // At capacity with an empty pool: nothing to take.
        assert_eq!(m.take_frame_near(FrameId::new(3)), None);
    }

    #[test]
    fn take_frame_near_mints_the_next_frame() {
        let mut m = mgr(4);
        assert_eq!(m.take_frame_near(FrameId::new(0)), Some(FrameId::new(0)));
        assert_eq!(m.take_frame_near(FrameId::new(1)), Some(FrameId::new(1)));
        assert_eq!(m.contiguous_takes(), 2);
        assert_eq!(m.minted_frames(), 2);
    }

    #[test]
    fn frame_of_reports_resident_frames_only() {
        let mut m = mgr(2);
        assert_eq!(m.frame_of(p(0)), None);
        let f = m.take_frame().unwrap();
        m.mark_resident(p(0), f, 0).unwrap();
        assert_eq!(m.frame_of(p(0)), Some(f));
        let f = m.remove(p(0), 0).unwrap();
        m.release_frame(f);
        assert_eq!(m.frame_of(p(0)), None);
    }
}
