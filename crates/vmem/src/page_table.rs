//! The GPU page table: resident virtual-page → device-frame mappings,
//! tracked at two granularities.
//!
//! Base-page entries live in a [`TieredPageMap`] whose region tier is the
//! large-page group: one flat slot per page, so a translation is one slot
//! load, plus a resident-page count per group, so "is this group fully
//! resident?" — the coalescing precondition — is an O(1) counter read. A fully-resident group can be
//! *promoted* to a large-page mapping (Mosaic-style coalescing); promotion
//! is an overlay over the base entries, which remain the single source of
//! residency truth, so splintering is metadata-only — exactly the property
//! the real designs engineer for with contiguity-preserving allocators.

use batmem_types::dense::{RegionSet, TieredPageMap};
use batmem_types::{FrameId, PageId, RegionId};

/// The GPU-side page table.
///
/// Only **resident** pages have entries; a missing entry is what turns a
/// completed page-table walk into a page fault. The UVM runtime installs an
/// entry when a page's migration finishes and removes it when the page is
/// evicted (§2.2 of the paper).
///
/// Entries live in a flat table indexed by page (page IDs are dense
/// `0..footprint_pages`), so translate/install/remove are array accesses,
/// and per-group residency counts are maintained incrementally beside it.
#[derive(Debug, Clone)]
pub struct GpuPageTable {
    entries: TieredPageMap<FrameId>,
    /// Large-page groups currently promoted to a single large mapping.
    promoted: RegionSet,
    installs: u64,
    removals: u64,
    coalesces: u64,
    splinters: u64,
}

impl Default for GpuPageTable {
    /// Default-geometry table: 32 base pages per large-page group.
    fn default() -> Self {
        Self::with_pages_per_large(32)
    }
}

impl GpuPageTable {
    /// Creates an empty page table with the default (Table 1) geometry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty page table whose large-page groups span
    /// `pages_per_large` base pages.
    pub fn with_pages_per_large(pages_per_large: u64) -> Self {
        Self {
            entries: TieredPageMap::with_pages_per_region(pages_per_large),
            promoted: RegionSet::new(),
            installs: 0,
            removals: 0,
            coalesces: 0,
            splinters: 0,
        }
    }

    /// Base pages per large-page group.
    pub fn pages_per_large(&self) -> u64 {
        self.entries.pages_per_region()
    }

    /// The large-page group containing `page`.
    pub fn group_of(&self, page: PageId) -> RegionId {
        self.entries.region_of(page)
    }

    /// Looks up the frame backing `page`, if resident.
    pub fn translate(&self, page: PageId) -> Option<FrameId> {
        self.entries.get(page).copied()
    }

    /// Whether `page` is resident.
    pub fn is_resident(&self, page: PageId) -> bool {
        self.entries.contains(page)
    }

    /// Installs a mapping (page migration completed).
    ///
    /// Returns the previous frame if the page was already mapped, which
    /// callers treat as a runtime invariant violation.
    pub fn install(&mut self, page: PageId, frame: FrameId) -> Option<FrameId> {
        self.installs += 1;
        self.entries.insert(page, frame)
    }

    /// Removes a mapping (page evicted), returning the frame it occupied.
    ///
    /// The page's group must not be promoted: evicting below a large
    /// mapping requires splintering it first ([`Self::splinter`]), which
    /// the UVM pipeline does before emitting the eviction.
    pub fn remove(&mut self, page: PageId) -> Option<FrameId> {
        debug_assert!(
            !self.promoted.contains(self.group_of(page)),
            "evicting {page} under a promoted large mapping; splinter first"
        );
        let f = self.entries.remove(page);
        if f.is_some() {
            self.removals += 1;
        }
        f
    }

    /// Resident base pages inside `group` — O(1).
    pub fn group_resident(&self, group: RegionId) -> usize {
        self.entries.region_len(group)
    }

    /// Whether every base page of `group` is resident.
    pub fn group_is_full(&self, group: RegionId) -> bool {
        self.entries.region_is_full(group)
    }

    /// Promotes a fully-resident group to a large-page mapping.
    ///
    /// Returns `false` (and does nothing) if the group is not fully
    /// resident or is already promoted.
    pub fn promote(&mut self, group: RegionId) -> bool {
        if !self.entries.region_is_full(group) || !self.promoted.insert(group) {
            return false;
        }
        self.coalesces += 1;
        true
    }

    /// Demotes a promoted group back to base-page mappings (splintering).
    /// Metadata-only; base entries are untouched. Returns whether the
    /// group was promoted.
    pub fn splinter(&mut self, group: RegionId) -> bool {
        let was = self.promoted.remove(group);
        self.splinters += u64::from(was);
        was
    }

    /// Whether `group` currently has a large-page mapping.
    pub fn is_promoted(&self, group: RegionId) -> bool {
        self.promoted.contains(group)
    }

    /// Whether any group is promoted (the translate fast path's one-branch
    /// guard: when false, the large-page machinery is never consulted).
    #[inline]
    pub fn has_promotions(&self) -> bool {
        !self.promoted.is_empty()
    }

    /// Number of currently promoted groups.
    pub fn promoted_groups(&self) -> usize {
        self.promoted.len()
    }

    /// Total promotions over the run.
    pub fn coalesces(&self) -> u64 {
        self.coalesces
    }

    /// Total splinters over the run.
    pub fn splinters(&self) -> u64 {
        self.splinters
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.entries.len()
    }

    /// Total mappings installed over the run.
    pub fn installs(&self) -> u64 {
        self.installs
    }

    /// Total mappings removed over the run.
    pub fn removals(&self) -> u64 {
        self.removals
    }

    /// Iterates over resident `(page, frame)` pairs in ascending page order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, FrameId)> + '_ {
        self.entries.iter().map(|(p, &f)| (p, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_translate_remove_round_trip() {
        let mut pt = GpuPageTable::new();
        let p = PageId::new(5);
        assert_eq!(pt.translate(p), None);
        assert!(!pt.is_resident(p));
        assert_eq!(pt.install(p, FrameId::new(2)), None);
        assert_eq!(pt.translate(p), Some(FrameId::new(2)));
        assert!(pt.is_resident(p));
        assert_eq!(pt.remove(p), Some(FrameId::new(2)));
        assert_eq!(pt.translate(p), None);
    }

    #[test]
    fn double_install_reports_previous_frame() {
        let mut pt = GpuPageTable::new();
        let p = PageId::new(1);
        pt.install(p, FrameId::new(0));
        assert_eq!(pt.install(p, FrameId::new(9)), Some(FrameId::new(0)));
    }

    #[test]
    fn counters_track_operations() {
        let mut pt = GpuPageTable::new();
        pt.install(PageId::new(1), FrameId::new(0));
        pt.install(PageId::new(2), FrameId::new(1));
        pt.remove(PageId::new(1));
        pt.remove(PageId::new(42)); // no-op
        assert_eq!(pt.installs(), 2);
        assert_eq!(pt.removals(), 1);
        assert_eq!(pt.resident_pages(), 1);
    }

    #[test]
    fn iter_yields_resident_pairs() {
        let mut pt = GpuPageTable::new();
        pt.install(PageId::new(2), FrameId::new(20));
        pt.install(PageId::new(1), FrameId::new(10));
        let pairs: Vec<_> = pt.iter().collect();
        assert_eq!(
            pairs,
            vec![(PageId::new(1), FrameId::new(10)), (PageId::new(2), FrameId::new(20))]
        );
    }

    #[test]
    fn promotion_requires_full_residency() {
        let mut pt = GpuPageTable::with_pages_per_large(4);
        let g = RegionId::new(0);
        for i in 0..3 {
            pt.install(PageId::new(i), FrameId::new(i as u32));
        }
        assert_eq!(pt.group_resident(g), 3);
        assert!(!pt.group_is_full(g));
        assert!(!pt.promote(g), "partial group must not promote");
        pt.install(PageId::new(3), FrameId::new(3));
        assert!(pt.promote(g));
        assert!(pt.is_promoted(g));
        assert!(!pt.promote(g), "re-promotion is a no-op");
        assert!(pt.has_promotions());
        assert_eq!(pt.promoted_groups(), 1);
        assert_eq!(pt.coalesces(), 1);
    }

    #[test]
    fn splinter_then_eviction_then_repromotion() {
        let mut pt = GpuPageTable::with_pages_per_large(2);
        let g = RegionId::new(1); // pages 2, 3
        pt.install(PageId::new(2), FrameId::new(0));
        pt.install(PageId::new(3), FrameId::new(1));
        assert!(pt.promote(g));
        assert!(pt.splinter(g));
        assert!(!pt.splinter(g), "double splinter is a no-op");
        assert!(!pt.is_promoted(g));
        // Base entries survived the splinter untouched.
        assert_eq!(pt.translate(PageId::new(2)), Some(FrameId::new(0)));
        assert_eq!(pt.remove(PageId::new(3)), Some(FrameId::new(1)));
        assert!(!pt.group_is_full(g));
        // Refill and promote again.
        pt.install(PageId::new(3), FrameId::new(7));
        assert!(pt.promote(g));
        assert_eq!(pt.coalesces(), 2);
        assert_eq!(pt.splinters(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "splinter first")]
    fn removing_under_a_promoted_mapping_panics_in_debug() {
        let mut pt = GpuPageTable::with_pages_per_large(1);
        pt.install(PageId::new(0), FrameId::new(0));
        assert!(pt.promote(RegionId::new(0)));
        let _ = pt.remove(PageId::new(0));
    }
}
