//! Dense page-indexed collections for the simulator's hot paths.
//!
//! Page IDs in this simulator are dense: the workload footprint is fixed at
//! kernel launch and pages are numbered `0..footprint_pages`, so any
//! per-page state can live in a flat table indexed by [`PageId::index`]
//! instead of a hash map. The collections here replace the
//! `HashMap`/`HashSet`/`BTreeMap` containers that used to sit on the
//! per-event paths (fault recording, batch planning, LRU maintenance,
//! page-table installs) — same observable behaviour, no hashing, no
//! rebalancing, and O(1) per-batch clears.
//!
//! * [`PageSet`] — a growable bitmap over page indices.
//! * [`PageMap`] — a growable `Vec<Option<V>>` keyed by page index.
//! * [`EpochPageSet`] / [`EpochPageMap`] — epoch-stamped variants whose
//!   `clear` is O(1) (bump the epoch) so per-batch scratch state can be
//!   reused allocation-free across thousands of batches.
//! * [`RegionSet`] / [`RegionMap`] — the same dense idea one tier up,
//!   keyed by [`RegionId`].
//! * [`TieredPageMap`] — a two-level `RegionMap<PageMap<V>>` that keeps a
//!   per-region residency count alongside page-granular state, so the
//!   multi-page-size machinery can answer "is this region fully resident?"
//!   in O(1) while everything else keeps page-level access.
//!
//! All collections grow on insert and answer `false`/`None` for any index
//! beyond what they have seen, so callers that cannot size them up front
//! (e.g. the lifetime tracker, which is built before the workload is known)
//! still work unchanged.

use crate::addr::{PageId, RegionId};

/// A growable set of pages backed by a bitmap.
///
/// # Examples
///
/// ```
/// use batmem_types::dense::PageSet;
/// use batmem_types::PageId;
///
/// let mut s = PageSet::new();
/// assert!(s.insert(PageId::new(5)));
/// assert!(!s.insert(PageId::new(5)));
/// assert!(s.contains(PageId::new(5)));
/// assert!(!s.contains(PageId::new(99)));
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageSet {
    words: Vec<u64>,
    len: usize,
}

impl PageSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set pre-sized for pages `0..pages`.
    pub fn with_capacity(pages: usize) -> Self {
        Self { words: vec![0; pages.div_ceil(64)], len: 0 }
    }

    #[inline]
    fn slot(page: PageId) -> (usize, u64) {
        let i = page.index() as usize;
        (i / 64, 1u64 << (i % 64))
    }

    /// Inserts `page`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, page: PageId) -> bool {
        let (w, bit) = Self::slot(page);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `page`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, page: PageId) -> bool {
        let (w, bit) = Self::slot(page);
        if w >= self.words.len() || self.words[w] & bit == 0 {
            return false;
        }
        self.words[w] &= !bit;
        self.len -= 1;
        true
    }

    /// Whether `page` is in the set.
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        let (w, bit) = Self::slot(page);
        w < self.words.len() && self.words[w] & bit != 0
    }

    /// Number of pages in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every page, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }
}

/// A growable map from pages to values, backed by a flat `Vec<Option<V>>`.
///
/// Iteration order is ascending page index (deterministic, unlike the hash
/// maps this replaces — none of the replaced call sites depended on
/// iteration order, as the determinism suite proves).
///
/// # Examples
///
/// ```
/// use batmem_types::dense::PageMap;
/// use batmem_types::PageId;
///
/// let mut m: PageMap<u32> = PageMap::new();
/// assert_eq!(m.insert(PageId::new(3), 7), None);
/// assert_eq!(m.insert(PageId::new(3), 8), Some(7));
/// assert_eq!(m.get(PageId::new(3)), Some(&8));
/// assert_eq!(m.remove(PageId::new(3)), Some(8));
/// assert!(m.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct PageMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for PageMap<V> {
    fn default() -> Self {
        Self { slots: Vec::new(), len: 0 }
    }
}

impl<V> PageMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty map pre-sized for pages `0..pages`.
    pub fn with_capacity(pages: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(pages, || None);
        Self { slots, len: 0 }
    }

    /// Inserts `value` for `page`, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, page: PageId, value: V) -> Option<V> {
        let i = page.index() as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let prev = self.slots[i].replace(value);
        self.len += usize::from(prev.is_none());
        prev
    }

    /// Returns a reference to `page`'s value, if present.
    #[inline]
    pub fn get(&self, page: PageId) -> Option<&V> {
        self.slots.get(page.index() as usize)?.as_ref()
    }

    /// Returns a mutable reference to `page`'s value, if present.
    #[inline]
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut V> {
        self.slots.get_mut(page.index() as usize)?.as_mut()
    }

    /// Removes and returns `page`'s value, if present.
    #[inline]
    pub fn remove(&mut self, page: PageId) -> Option<V> {
        let taken = self.slots.get_mut(page.index() as usize)?.take();
        self.len -= usize::from(taken.is_some());
        taken
    }

    /// Whether `page` has a value.
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        self.get(page).is_some()
    }

    /// Number of pages with a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.len = 0;
    }

    /// Iterates `(page, &value)` in ascending page order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (PageId::new(i as u64), v)))
    }
}

/// A page set with O(1) `clear`, for per-batch scratch state.
///
/// Membership is an epoch stamp per page: `clear` bumps the current epoch,
/// invalidating every mark at once without touching the table. The table is
/// allocated once and reused across every batch of a run.
///
/// # Examples
///
/// ```
/// use batmem_types::dense::EpochPageSet;
/// use batmem_types::PageId;
///
/// let mut s = EpochPageSet::new();
/// s.insert(PageId::new(2));
/// assert!(s.contains(PageId::new(2)));
/// s.clear();
/// assert!(!s.contains(PageId::new(2)));
/// assert_eq!(s.len(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct EpochPageSet {
    marks: Vec<u32>,
    epoch: u32,
    len: usize,
}

impl Default for EpochPageSet {
    fn default() -> Self {
        Self { marks: Vec::new(), epoch: 1, len: 0 }
    }
}

impl EpochPageSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `page`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, page: PageId) -> bool {
        let i = page.index() as usize;
        if i >= self.marks.len() {
            self.marks.resize(i + 1, 0);
        }
        let fresh = self.marks[i] != self.epoch;
        self.marks[i] = self.epoch;
        self.len += usize::from(fresh);
        fresh
    }

    /// Whether `page` is in the set (this epoch).
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        self.marks.get(page.index() as usize) == Some(&self.epoch)
    }

    /// Number of pages inserted this epoch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the set in O(1) by starting a new epoch.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            // Epoch wrap (once per 2^32 - 1 clears): reset every mark.
            self.marks.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.len = 0;
    }
}

/// A page map with O(1) `clear`, for per-batch scratch state.
///
/// Same epoch scheme as [`EpochPageSet`]; values stamped in an older epoch
/// are dead and simply overwritten on the next insert.
///
/// # Examples
///
/// ```
/// use batmem_types::dense::EpochPageMap;
/// use batmem_types::PageId;
///
/// let mut m: EpochPageMap<u64> = EpochPageMap::new();
/// m.insert(PageId::new(4), 900);
/// assert_eq!(m.get(PageId::new(4)), Some(900));
/// m.clear();
/// assert_eq!(m.get(PageId::new(4)), None);
/// ```
#[derive(Debug, Clone)]
pub struct EpochPageMap<V: Copy> {
    marks: Vec<u32>,
    values: Vec<V>,
    epoch: u32,
    len: usize,
}

impl<V: Copy + Default> Default for EpochPageMap<V> {
    fn default() -> Self {
        Self { marks: Vec::new(), values: Vec::new(), epoch: 1, len: 0 }
    }
}

impl<V: Copy + Default> EpochPageMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `value` for `page`, returning the previous value from this
    /// epoch if any.
    #[inline]
    pub fn insert(&mut self, page: PageId, value: V) -> Option<V> {
        let i = page.index() as usize;
        if i >= self.marks.len() {
            self.marks.resize(i + 1, 0);
            self.values.resize(i + 1, V::default());
        }
        let prev = (self.marks[i] == self.epoch).then_some(self.values[i]);
        self.marks[i] = self.epoch;
        self.values[i] = value;
        self.len += usize::from(prev.is_none());
        prev
    }

    /// Returns `page`'s value from this epoch, if present.
    #[inline]
    pub fn get(&self, page: PageId) -> Option<V> {
        let i = page.index() as usize;
        (self.marks.get(i) == Some(&self.epoch)).then(|| self.values[i])
    }

    /// Whether `page` has a value this epoch.
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        self.marks.get(page.index() as usize) == Some(&self.epoch)
    }

    /// Number of pages with a value this epoch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the map in O(1) by starting a new epoch.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.marks.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.len = 0;
    }
}

/// A growable set of regions backed by a bitmap — [`PageSet`] one tier up.
///
/// # Examples
///
/// ```
/// use batmem_types::dense::RegionSet;
/// use batmem_types::RegionId;
///
/// let mut s = RegionSet::new();
/// assert!(s.insert(RegionId::new(3)));
/// assert!(s.contains(RegionId::new(3)));
/// assert!(s.remove(RegionId::new(3)));
/// assert!(s.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RegionSet {
    words: Vec<u64>,
    len: usize,
}

impl RegionSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn slot(region: RegionId) -> (usize, u64) {
        let i = region.index() as usize;
        (i / 64, 1u64 << (i % 64))
    }

    /// Inserts `region`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, region: RegionId) -> bool {
        let (w, bit) = Self::slot(region);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `region`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, region: RegionId) -> bool {
        let (w, bit) = Self::slot(region);
        if w >= self.words.len() || self.words[w] & bit == 0 {
            return false;
        }
        self.words[w] &= !bit;
        self.len -= 1;
        true
    }

    /// Whether `region` is in the set.
    #[inline]
    pub fn contains(&self, region: RegionId) -> bool {
        let (w, bit) = Self::slot(region);
        w < self.words.len() && self.words[w] & bit != 0
    }

    /// Number of regions in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every region, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterates the regions in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = RegionId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word & (1u64 << b) != 0)
                .map(move |b| RegionId::new((w * 64 + b) as u64))
        })
    }
}

/// A growable map from regions to values — [`PageMap`] one tier up.
///
/// # Examples
///
/// ```
/// use batmem_types::dense::RegionMap;
/// use batmem_types::RegionId;
///
/// let mut m: RegionMap<u32> = RegionMap::new();
/// assert_eq!(m.insert(RegionId::new(2), 9), None);
/// assert_eq!(m.get(RegionId::new(2)), Some(&9));
/// ```
#[derive(Debug, Clone)]
pub struct RegionMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for RegionMap<V> {
    fn default() -> Self {
        Self { slots: Vec::new(), len: 0 }
    }
}

impl<V> RegionMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `value` for `region`, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, region: RegionId, value: V) -> Option<V> {
        let i = region.index() as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let prev = self.slots[i].replace(value);
        self.len += usize::from(prev.is_none());
        prev
    }

    /// Returns a reference to `region`'s value, if present.
    #[inline]
    pub fn get(&self, region: RegionId) -> Option<&V> {
        self.slots.get(region.index() as usize)?.as_ref()
    }

    /// Returns a mutable reference to `region`'s value, if present.
    #[inline]
    pub fn get_mut(&mut self, region: RegionId) -> Option<&mut V> {
        self.slots.get_mut(region.index() as usize)?.as_mut()
    }

    /// Returns a mutable reference to `region`'s value, inserting the
    /// default-constructed value first if absent.
    #[inline]
    pub fn entry_or_default(&mut self, region: RegionId) -> &mut V
    where
        V: Default,
    {
        let i = region.index() as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].is_none() {
            self.slots[i] = Some(V::default());
            self.len += 1;
        }
        self.slots[i].as_mut().expect("slot just filled")
    }

    /// Removes and returns `region`'s value, if present.
    #[inline]
    pub fn remove(&mut self, region: RegionId) -> Option<V> {
        let taken = self.slots.get_mut(region.index() as usize)?.take();
        self.len -= usize::from(taken.is_some());
        taken
    }

    /// Whether `region` has a value.
    #[inline]
    pub fn contains(&self, region: RegionId) -> bool {
        self.get(region).is_some()
    }

    /// Number of regions with a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.len = 0;
    }

    /// Iterates `(region, &value)` in ascending region order.
    pub fn iter(&self) -> impl Iterator<Item = (RegionId, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (RegionId::new(i as u64), v)))
    }
}

/// A two-level page map: per-region [`PageMap`]s under a [`RegionMap`],
/// with page-granular API and O(1) per-region residency counts.
///
/// The region tier here is whatever granularity the caller's
/// [`PageGeometry`](crate::addr::PageGeometry) dictates — page tables use
/// the large-page group size so "region fully resident" answers the
/// coalescing question directly.
///
/// # Examples
///
/// ```
/// use batmem_types::dense::TieredPageMap;
/// use batmem_types::{PageId, RegionId};
///
/// let mut m: TieredPageMap<u32> = TieredPageMap::with_pages_per_region(4);
/// for i in 0..4 {
///     m.insert(PageId::new(i), 100 + i as u32);
/// }
/// assert_eq!(m.region_len(RegionId::new(0)), 4);
/// assert!(m.region_is_full(RegionId::new(0)));
/// assert_eq!(m.get(PageId::new(2)), Some(&102));
/// ```
#[derive(Debug, Clone)]
pub struct TieredPageMap<V> {
    regions: RegionMap<PageMap<V>>,
    /// Log2 of the pages per region: a page splits into its region and
    /// offset with a shift and a mask.
    region_shift: u32,
    len: usize,
}

impl<V> Default for TieredPageMap<V> {
    /// Default-geometry tier: 32 pages per region (64 KB pages, 2 MB
    /// regions).
    fn default() -> Self {
        Self::with_pages_per_region(32)
    }
}

impl<V> TieredPageMap<V> {
    /// Creates an empty map whose region tier spans `pages_per_region`
    /// base pages.
    ///
    /// # Panics
    ///
    /// Panics if `pages_per_region` is not a power of two (every
    /// [`PageGeometry`](crate::addr::PageGeometry) tier is one).
    pub fn with_pages_per_region(pages_per_region: u64) -> Self {
        assert!(
            pages_per_region.is_power_of_two(),
            "pages_per_region must be a power of two, got {pages_per_region}"
        );
        Self { regions: RegionMap::new(), region_shift: pages_per_region.trailing_zeros(), len: 0 }
    }

    /// The region-tier granularity in base pages.
    pub fn pages_per_region(&self) -> u64 {
        1 << self.region_shift
    }

    /// The region containing `page`.
    #[inline]
    pub fn region_of(&self, page: PageId) -> RegionId {
        RegionId::new(page.index() >> self.region_shift)
    }

    #[inline]
    fn split(&self, page: PageId) -> (RegionId, PageId) {
        (self.region_of(page), PageId::new(page.index() & (self.pages_per_region() - 1)))
    }

    /// Inserts `value` for `page`, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, page: PageId, value: V) -> Option<V> {
        let (r, off) = self.split(page);
        let prev = self.regions.entry_or_default(r).insert(off, value);
        self.len += usize::from(prev.is_none());
        prev
    }

    /// Returns a reference to `page`'s value, if present.
    #[inline]
    pub fn get(&self, page: PageId) -> Option<&V> {
        let (r, off) = self.split(page);
        self.regions.get(r)?.get(off)
    }

    /// Returns a mutable reference to `page`'s value, if present.
    #[inline]
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut V> {
        let (r, off) = self.split(page);
        self.regions.get_mut(r)?.get_mut(off)
    }

    /// Removes and returns `page`'s value, if present.
    #[inline]
    pub fn remove(&mut self, page: PageId) -> Option<V> {
        let (r, off) = self.split(page);
        let taken = self.regions.get_mut(r)?.remove(off);
        self.len -= usize::from(taken.is_some());
        taken
    }

    /// Whether `page` has a value.
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        self.get(page).is_some()
    }

    /// Number of pages with a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages with a value inside `region` — O(1).
    pub fn region_len(&self, region: RegionId) -> usize {
        self.regions.get(region).map_or(0, PageMap::len)
    }

    /// Whether every page of `region` has a value.
    pub fn region_is_full(&self, region: RegionId) -> bool {
        self.region_len(region) as u64 == self.pages_per_region()
    }

    /// Removes every entry, keeping the region allocations.
    pub fn clear(&mut self) {
        self.regions.clear();
        self.len = 0;
    }

    /// Iterates `(page, &value)` in ascending global page order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &V)> {
        let shift = self.region_shift;
        self.regions.iter().flat_map(move |(r, pm)| {
            pm.iter().map(move |(off, v)| (PageId::new((r.index() << shift) | off.index()), v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> PageId {
        PageId::new(i)
    }

    #[test]
    fn page_set_insert_remove_contains() {
        let mut s = PageSet::new();
        assert!(s.is_empty());
        assert!(s.insert(p(0)));
        assert!(s.insert(p(63)));
        assert!(s.insert(p(64)));
        assert!(!s.insert(p(64)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(p(63)));
        assert!(!s.contains(p(1)));
        assert!(!s.contains(p(1_000_000))); // beyond allocation: false, no growth
        assert!(s.remove(p(63)));
        assert!(!s.remove(p(63)));
        assert!(!s.remove(p(999))); // never inserted
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(p(0)));
    }

    #[test]
    fn page_set_with_capacity_starts_empty() {
        let s = PageSet::with_capacity(130);
        assert!(s.is_empty());
        assert!(!s.contains(p(129)));
    }

    #[test]
    fn page_map_behaves_like_a_map() {
        let mut m: PageMap<&'static str> = PageMap::new();
        assert_eq!(m.insert(p(10), "a"), None);
        assert_eq!(m.insert(p(10), "b"), Some("a"));
        assert_eq!(m.get(p(10)), Some(&"b"));
        assert_eq!(m.get(p(11)), None);
        assert!(m.contains(p(10)));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(p(10)), Some("b"));
        assert_eq!(m.remove(p(10)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn page_map_iterates_in_page_order() {
        let mut m: PageMap<u32> = PageMap::with_capacity(8);
        m.insert(p(5), 50);
        m.insert(p(1), 10);
        m.insert(p(3), 30);
        let got: Vec<_> = m.iter().map(|(k, v)| (k.index(), *v)).collect();
        assert_eq!(got, vec![(1, 10), (3, 30), (5, 50)]);
        m.clear();
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn epoch_set_clear_is_logical() {
        let mut s = EpochPageSet::new();
        assert!(s.insert(p(7)));
        assert!(!s.insert(p(7)));
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(p(7)));
        assert!(s.insert(p(7))); // fresh again in the new epoch
    }

    #[test]
    fn epoch_set_survives_epoch_wrap() {
        let mut s = EpochPageSet::new();
        s.insert(p(3));
        s.epoch = u32::MAX - 1;
        s.marks[3] = u32::MAX - 1; // keep page 3 current
        s.clear(); // -> MAX
        assert!(!s.contains(p(3)));
        s.insert(p(2));
        s.clear(); // wrap: marks reset
        assert!(!s.contains(p(2)));
        assert!(s.insert(p(2)));
        assert!(s.contains(p(2)));
    }

    #[test]
    fn epoch_map_stores_per_epoch_values() {
        let mut m: EpochPageMap<u64> = EpochPageMap::new();
        assert_eq!(m.insert(p(1), 100), None);
        assert_eq!(m.insert(p(1), 200), Some(100));
        assert_eq!(m.get(p(1)), Some(200));
        assert_eq!(m.len(), 1);
        m.clear();
        assert_eq!(m.get(p(1)), None);
        assert!(!m.contains(p(1)));
        assert_eq!(m.insert(p(1), 300), None); // stale value not reported
        assert_eq!(m.get(p(1)), Some(300));
    }

    #[test]
    fn epoch_map_out_of_range_reads_are_none() {
        let m: EpochPageMap<u64> = EpochPageMap::new();
        assert_eq!(m.get(p(12345)), None);
        assert!(!m.contains(p(12345)));
        assert!(m.is_empty());
    }

    fn r(i: u64) -> RegionId {
        RegionId::new(i)
    }

    #[test]
    fn region_set_mirrors_page_set_semantics() {
        let mut s = RegionSet::new();
        assert!(s.insert(r(0)));
        assert!(s.insert(r(65)));
        assert!(!s.insert(r(65)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(r(65)));
        assert!(!s.contains(r(1_000_000)));
        assert_eq!(s.iter().map(RegionId::index).collect::<Vec<_>>(), vec![0, 65]);
        assert!(s.remove(r(0)));
        assert!(!s.remove(r(0)));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn region_map_mirrors_page_map_semantics() {
        let mut m: RegionMap<u32> = RegionMap::new();
        assert_eq!(m.insert(r(4), 40), None);
        assert_eq!(m.insert(r(4), 44), Some(40));
        *m.entry_or_default(r(2)) += 20;
        assert_eq!(m.get(r(2)), Some(&20));
        assert_eq!(m.len(), 2);
        let got: Vec<_> = m.iter().map(|(k, v)| (k.index(), *v)).collect();
        assert_eq!(got, vec![(2, 20), (4, 44)]);
        assert_eq!(m.remove(r(4)), Some(44));
        assert_eq!(m.get(r(4)), None);
    }

    #[test]
    fn tiered_map_tracks_both_tiers() {
        let mut m: TieredPageMap<u64> = TieredPageMap::with_pages_per_region(4);
        // Fill region 1 (pages 4..8) and half of region 0.
        for i in 4..8 {
            assert_eq!(m.insert(p(i), i * 10), None);
        }
        m.insert(p(0), 0);
        m.insert(p(2), 20);
        assert_eq!(m.len(), 6);
        assert_eq!(m.region_len(r(1)), 4);
        assert!(m.region_is_full(r(1)));
        assert!(!m.region_is_full(r(0)));
        assert_eq!(m.region_len(r(9)), 0);
        assert_eq!(m.get(p(6)), Some(&60));
        assert_eq!(m.remove(p(6)), Some(60));
        assert!(!m.region_is_full(r(1)));
        assert_eq!(m.region_len(r(1)), 3);
        // Global iteration order is ascending page index across regions.
        let order: Vec<_> = m.iter().map(|(k, _)| k.index()).collect();
        assert_eq!(order, vec![0, 2, 4, 5, 7]);
        if let Some(v) = m.get_mut(p(2)) {
            *v = 21;
        }
        assert_eq!(m.get(p(2)), Some(&21));
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.region_len(r(1)), 0);
    }

    #[test]
    fn tiered_map_default_matches_default_geometry() {
        let m: TieredPageMap<u8> = TieredPageMap::default();
        assert_eq!(m.pages_per_region(), 32);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn tiered_map_rejects_a_region_that_is_not_a_power_of_two() {
        let _: TieredPageMap<u8> = TieredPageMap::with_pages_per_region(3);
    }
}
