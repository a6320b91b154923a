//! Dense id-indexed collections for the simulator's per-page and
//! per-region state.
//!
//! Page IDs in this simulator are dense: the workload footprint is fixed at
//! kernel launch and pages are numbered `0..footprint_pages`, and region
//! (large-page group) IDs are the page IDs shifted right. So any per-page
//! or per-region state can live in a flat table indexed by the id instead
//! of a hashed or ordered container: no hashing, no rebalancing, and
//! ascending-id iteration for free.
//!
//! * [`DenseKey`] — an id with a dense index, and back; implemented for
//!   [`PageId`] and [`RegionId`].
//! * [`DenseSet`] — a growable bitmap over a key; [`PageSet`] and
//!   [`RegionSet`] are its two instances.
//! * [`DenseMap`] — a growable `Vec<Option<V>>` over a key; [`PageMap`] is
//!   its page instance.
//! * [`TieredPageMap`] — a [`PageMap`] plus one page count per region, so
//!   the multi-page-size machinery can answer "is this region fully
//!   resident?" in O(1) while everything else keeps page-level access.
//!
//! All collections grow on insert and answer `false`/`None` for any index
//! beyond what they have seen, so callers that cannot size them up front
//! (e.g. the lifetime tracker, which is built before the workload is known)
//! still work unchanged.

use crate::addr::{PageId, RegionId};
use std::fmt;
use std::marker::PhantomData;

/// An id with a dense index: distinct keys have distinct indices, and the
/// index maps back to its key. The dense tables here and the TLBs are
/// generic over it.
pub trait DenseKey: Copy + PartialEq + fmt::Debug {
    /// The key's slot in a dense table.
    fn dense_index(self) -> usize;

    /// The key whose slot is `index`.
    fn from_dense_index(index: usize) -> Self;
}

impl DenseKey for PageId {
    #[inline]
    fn dense_index(self) -> usize {
        usize::try_from(self.index()).expect("page index fits in usize")
    }

    #[inline]
    fn from_dense_index(index: usize) -> Self {
        PageId::new(index as u64)
    }
}

impl DenseKey for RegionId {
    #[inline]
    fn dense_index(self) -> usize {
        usize::try_from(self.index()).expect("region index fits in usize")
    }

    #[inline]
    fn from_dense_index(index: usize) -> Self {
        RegionId::new(index as u64)
    }
}

/// A growable set of keys backed by a bitmap.
#[derive(Debug, Clone)]
pub struct DenseSet<K> {
    words: Vec<u64>,
    len: usize,
    key: PhantomData<K>,
}

/// A set of pages.
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
pub type PageSet = DenseSet<PageId>;

/// A set of regions (or large-page groups).
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
pub type RegionSet = DenseSet<RegionId>;

impl<K> Default for DenseSet<K> {
    fn default() -> Self {
        Self { words: Vec::new(), len: 0, key: PhantomData }
    }
}

impl<K: DenseKey> DenseSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set pre-sized for indices `0..keys`.
    pub fn with_capacity(keys: usize) -> Self {
        Self { words: vec![0; keys.div_ceil(64)], ..Self::default() }
    }

    #[inline]
    fn slot(key: K) -> (usize, u64) {
        let i = key.dense_index();
        (i / 64, 1u64 << (i % 64))
    }

    /// Inserts `key`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, key: K) -> bool {
        let (w, bit) = Self::slot(key);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `key`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, key: K) -> bool {
        let (w, bit) = Self::slot(key);
        match self.words.get_mut(w) {
            Some(word) if *word & bit != 0 => {
                *word &= !bit;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Whether `key` is in the set.
    #[inline]
    pub fn contains(&self, key: K) -> bool {
        let (w, bit) = Self::slot(key);
        self.words.get(w).is_some_and(|word| word & bit != 0)
    }

    /// Number of keys in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every key, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterates the keys in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(K::from_dense_index(w * 64 + b))
            })
        })
    }
}

/// A growable map from keys to values, backed by a flat `Vec<Option<V>>`.
///
/// Iteration order is ascending key index (deterministic, unlike the hash
/// maps this replaces — none of the replaced call sites depended on
/// iteration order, as the determinism suite proves).
#[derive(Debug, Clone)]
pub struct DenseMap<K, V> {
    slots: Vec<Option<V>>,
    len: usize,
    key: PhantomData<K>,
}

/// A map from pages to values.
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
pub type PageMap<V> = DenseMap<PageId, V>;

impl<K, V> Default for DenseMap<K, V> {
    fn default() -> Self {
        Self { slots: Vec::new(), len: 0, key: PhantomData }
    }
}

impl<K: DenseKey, V> DenseMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty map pre-sized for indices `0..keys`.
    pub fn with_capacity(keys: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(keys, || None);
        Self { slots, ..Self::default() }
    }

    /// Inserts `value` for `key`, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let i = key.dense_index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let prev = self.slots[i].replace(value);
        self.len += usize::from(prev.is_none());
        prev
    }

    /// Returns a reference to `key`'s value, if present.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        self.slots.get(key.dense_index())?.as_ref()
    }

    /// Returns a mutable reference to `key`'s value, if present.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.slots.get_mut(key.dense_index())?.as_mut()
    }

    /// Removes and returns `key`'s value, if present.
    #[inline]
    pub fn remove(&mut self, key: K) -> Option<V> {
        let taken = self.slots.get_mut(key.dense_index())?.take();
        self.len -= usize::from(taken.is_some());
        taken
    }

    /// Whether `key` has a value.
    #[inline]
    pub fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Number of keys with a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill_with(|| None);
            self.len = 0;
        }
    }

    /// Iterates `(key, &value)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (K::from_dense_index(i), v)))
    }
}

/// A page map that also counts its pages per region, with O(1)
/// per-region residency counts.
///
/// The region tier is whatever granularity the caller's
/// [`PageGeometry`](crate::addr::PageGeometry) dictates — page tables use
/// the large-page group size so "region fully resident" answers the
/// coalescing question directly. Every page operation is one slot of the
/// flat [`PageMap`]; an insert or remove that changes membership also
/// moves its region's count.
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
    pages: PageMap<V>,
    /// Pages with a value, per region index.
    region_counts: Vec<u32>,
    /// Log2 of the pages per region: a page's region is a shift away.
    region_shift: u32,
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
        Self {
            pages: PageMap::new(),
            region_counts: Vec::new(),
            region_shift: pages_per_region.trailing_zeros(),
        }
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

    /// Inserts `value` for `page`, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, page: PageId, value: V) -> Option<V> {
        let prev = self.pages.insert(page, value);
        if prev.is_none() {
            let r = self.region_of(page).dense_index();
            if r >= self.region_counts.len() {
                self.region_counts.resize(r + 1, 0);
            }
            self.region_counts[r] += 1;
        }
        prev
    }

    /// Returns a reference to `page`'s value, if present.
    #[inline]
    pub fn get(&self, page: PageId) -> Option<&V> {
        self.pages.get(page)
    }

    /// Returns a mutable reference to `page`'s value, if present.
    #[inline]
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut V> {
        self.pages.get_mut(page)
    }

    /// Removes and returns `page`'s value, if present.
    #[inline]
    pub fn remove(&mut self, page: PageId) -> Option<V> {
        let taken = self.pages.remove(page)?;
        let r = self.region_of(page).dense_index();
        self.region_counts[r] -= 1;
        Some(taken)
    }

    /// Whether `page` has a value.
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        self.pages.contains(page)
    }

    /// Number of pages with a value.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Number of pages with a value inside `region` — O(1).
    pub fn region_len(&self, region: RegionId) -> usize {
        self.region_counts.get(region.dense_index()).map_or(0, |&n| n as usize)
    }

    /// Whether every page of `region` has a value.
    pub fn region_is_full(&self, region: RegionId) -> bool {
        self.region_len(region) as u64 == self.pages_per_region()
    }

    /// Removes every entry, keeping the allocations.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.region_counts.fill(0);
    }

    /// Iterates `(page, &value)` in ascending page order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &V)> {
        self.pages.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> PageId {
        PageId::new(i)
    }

    fn r(i: u64) -> RegionId {
        RegionId::new(i)
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
        assert_eq!(m.insert(p(5), 55), None, "a cleared slot reads as absent");
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
        assert_eq!(m.remove(p(6)), None, "a second remove leaves the count alone");
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
