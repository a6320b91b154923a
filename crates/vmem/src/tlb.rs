//! Set-associative, LRU translation lookaside buffers.

use batmem_types::dense::DenseKey;
use batmem_types::PageId;

/// Hit/miss statistics for one TLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries invalidated by shootdowns.
    pub shootdowns: u64,
}

impl TlbStats {
    /// Hit rate in [0, 1]; 0 when no lookups occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Slot-index entry of a key the TLB does not hold.
const ABSENT: u32 = u32::MAX;

/// A set-associative TLB with true-LRU replacement within each set.
///
/// A fully associative TLB (the paper's per-SM L1 TLB) is one set whose way
/// count equals the entry count. The tag type defaults to [`PageId`]; the
/// large-page TLBs instantiate it with [`RegionId`](batmem_types::RegionId) tags.
///
/// Entries live in flat, set-major slot arrays with a last-use stamp each
/// (set `s` owns slots `s * ways .. (s + 1) * ways`), and a dense index
/// maps each key's [`DenseKey::dense_index`] to its slot. A lookup is one
/// index load and, on a hit, one stamp write, however old the entry is. An
/// insert fills the set's lowest-stamp slot: empty slots carry stamp 0 and
/// ticks are unique, so that is the entry an LRU stack would evict
/// (DESIGN.md §3). The index grows to the highest key inserted, 4 bytes
/// per key.
///
/// # Examples
///
/// ```
/// use batmem_vmem::Tlb;
/// use batmem_types::PageId;
///
/// let mut tlb = Tlb::fully_associative(2);
/// tlb.insert(PageId::new(1));
/// tlb.insert(PageId::new(2));
/// tlb.insert(PageId::new(3)); // evicts page 1 (LRU)
/// assert!(!tlb.lookup(PageId::new(1)));
/// assert!(tlb.lookup(PageId::new(2)));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb<K: DenseKey = PageId> {
    /// Each slot's key; `None` for an empty slot.
    keys: Vec<Option<K>>,
    /// Each slot's last-use stamp; 0 for an empty slot.
    stamps: Vec<u64>,
    /// `index[key.dense_index()]` is the slot holding `key`, or `ABSENT`.
    index: Vec<u32>,
    /// The last stamp handed out.
    tick: u64,
    num_sets: usize,
    ways: usize,
    stats: TlbStats,
}

impl<K: DenseKey> Tlb<K> {
    /// Creates a TLB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`.
    pub fn new(entries: u32, ways: u32) -> Self {
        assert!(ways > 0 && entries > 0, "TLB must have entries");
        assert_eq!(entries % ways, 0, "entries must divide into ways");
        assert!(entries < ABSENT, "TLB slots must fit the u32 index");
        Self {
            keys: vec![None; entries as usize],
            stamps: vec![0; entries as usize],
            index: Vec::new(),
            tick: 0,
            num_sets: (entries / ways) as usize,
            ways: ways as usize,
            stats: TlbStats::default(),
        }
    }

    /// Creates a fully associative TLB of `entries` entries.
    pub fn fully_associative(entries: u32) -> Self {
        Self::new(entries, entries)
    }

    /// The slot holding `key`, if any.
    #[inline]
    fn slot_of(&self, key: K) -> Option<usize> {
        match self.index.get(key.dense_index()) {
            Some(&slot) if slot != ABSENT => Some(slot as usize),
            _ => None,
        }
    }

    /// Looks up `page`, updating LRU state. Returns `true` on a hit.
    pub fn lookup(&mut self, page: K) -> bool {
        match self.slot_of(page) {
            Some(slot) => {
                self.tick += 1;
                self.stamps[slot] = self.tick;
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Checks for `page` without perturbing LRU state or statistics.
    pub fn contains(&self, page: K) -> bool {
        self.slot_of(page).is_some()
    }

    /// Inserts `page` as most recently used, evicting the set's LRU entry
    /// if the set is full. Returns the evicted page, if any.
    pub fn insert(&mut self, page: K) -> Option<K> {
        self.tick += 1;
        if let Some(slot) = self.slot_of(page) {
            self.stamps[slot] = self.tick;
            return None;
        }
        let first = page.dense_index() % self.num_sets * self.ways;
        let set = &self.stamps[first..first + self.ways];
        let mut victim = 0;
        for w in 1..set.len() {
            if set[w] < set[victim] {
                victim = w;
            }
        }
        let slot = first + victim;
        let evicted = self.keys[slot].replace(page);
        if let Some(old) = evicted {
            self.index[old.dense_index()] = ABSENT;
        }
        self.stamps[slot] = self.tick;
        let i = page.dense_index();
        if i >= self.index.len() {
            self.index.resize(i + 1, ABSENT);
        }
        self.index[i] = slot as u32;
        evicted
    }

    /// Invalidates `page` (TLB shootdown on eviction). Returns whether the
    /// page was present.
    pub fn invalidate(&mut self, page: K) -> bool {
        let Some(slot) = self.slot_of(page) else {
            return false;
        };
        self.index[page.dense_index()] = ABSENT;
        self.keys[slot] = None;
        self.stamps[slot] = 0;
        self.stats.shootdowns += 1;
        true
    }

    /// Current number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.keys.iter().filter(|k| k.is_some()).count()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batmem_types::RegionId;

    fn p(i: u64) -> PageId {
        PageId::new(i)
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut t = Tlb::fully_associative(3);
        t.insert(p(1));
        t.insert(p(2));
        t.insert(p(3));
        assert!(t.lookup(p(1))); // 1 becomes MRU; LRU is now 2
        let evicted = t.insert(p(4));
        assert_eq!(evicted, Some(p(2)));
        assert!(t.contains(p(1)) && t.contains(p(3)) && t.contains(p(4)));
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut t = Tlb::fully_associative(2);
        t.insert(p(1));
        t.insert(p(2));
        assert_eq!(t.insert(p(1)), None); // refresh
        assert_eq!(t.insert(p(3)), Some(p(2)));
    }

    #[test]
    fn set_mapping_isolates_conflicts() {
        // 4 entries, 2 ways -> 2 sets. Pages 0,2,4 map to set 0; 1,3 to set 1.
        let mut t = Tlb::new(4, 2);
        t.insert(p(0));
        t.insert(p(2));
        t.insert(p(1));
        let evicted = t.insert(p(4)); // set 0 overflows
        assert_eq!(evicted, Some(p(0)));
        assert!(t.contains(p(1))); // other set untouched
    }

    #[test]
    fn stats_count_hits_misses_shootdowns() {
        let mut t = Tlb::fully_associative(2);
        assert!(!t.lookup(p(9)));
        t.insert(p(9));
        assert!(t.lookup(p(9)));
        t.invalidate(p(9));
        assert!(!t.lookup(p(9)));
        let s = t.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.shootdowns, 1);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn invalidate_absent_is_noop() {
        let mut t = Tlb::fully_associative(2);
        assert!(!t.invalidate(p(5)));
        assert_eq!(t.stats().shootdowns, 0);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut t = Tlb::new(8, 4);
        for i in 0..100 {
            t.insert(p(i));
            assert!(t.occupancy() <= 8);
        }
    }

    #[test]
    #[should_panic(expected = "entries must divide")]
    fn bad_geometry_panics() {
        let _: Tlb = Tlb::new(10, 4);
    }

    #[test]
    fn region_keyed_tlb_works_identically() {
        let mut t: Tlb<RegionId> = Tlb::fully_associative(2);
        t.insert(RegionId::new(1));
        t.insert(RegionId::new(2));
        assert_eq!(t.insert(RegionId::new(3)), Some(RegionId::new(1)));
        assert!(t.lookup(RegionId::new(2)));
        assert!(t.invalidate(RegionId::new(2)));
        assert_eq!(t.stats().shootdowns, 1);
    }
}
