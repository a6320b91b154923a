//! Data caches and the L1 → L2 → DRAM data path.

use batmem_types::config::{CacheGeometry, MemConfig};
use batmem_types::{Cycle, VirtAddr};

/// Statistics for one data cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses that evicted a resident line from a full set.
    pub conflict_evictions: u64,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    fn add(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.conflict_evictions += other.conflict_evictions;
    }
}

/// The tag of an empty way. It is also the line id of the last byte of the
/// address space at a 1-byte line; [`DataCache::access`] tells the two
/// apart by the way's stamp.
const EMPTY: u64 = u64::MAX;

/// A set-associative, true-LRU data cache over cache-line ids.
///
/// Purely a tag model: hit/miss drives latency, no data is stored.
///
/// Tags and last-use stamps live in two flat, set-major arrays: set `s`
/// owns ways `s * ways .. (s + 1) * ways`. A hit writes the way's stamp
/// from a per-cache tick and moves nothing; a miss fills the way with the
/// lowest stamp. Empty ways carry stamp 0, so a set fills before it
/// evicts, and ticks are unique, so the lowest stamp is exactly the line
/// an LRU stack would evict (DESIGN.md §3). A direct-mapped cache keeps no
/// recency: its stamp only marks the way filled.
#[derive(Debug, Clone)]
pub struct DataCache {
    tags: Vec<u64>,
    stamps: Vec<u64>,
    /// The last stamp handed out.
    tick: u64,
    /// `Some(sets - 1)` when the set count is a power of two (every
    /// realistic geometry): the set index is then a mask instead of a
    /// `u64` division on the hottest path of the data model.
    set_mask: Option<u64>,
    num_sets: u64,
    ways: usize,
    line_shift: u32,
    hit_latency: Cycle,
    stats: CacheStats,
}

/// What one access did to its set.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Probe {
    Hit,
    /// A miss that filled an empty way.
    Fill,
    /// A miss that evicted the set's least recently used line.
    Evict,
}

/// Looks `line` up in one set and fills it on a miss. It is always
/// inlined, so for a literal width the slices have a constant length.
#[inline(always)]
fn probe_set(tags: &mut [u64], stamps: &mut [u64], line: u64, tick: u64) -> Probe {
    let ways = tags.len();
    let stamps = &mut stamps[..ways];
    // Compare every way, without an early exit; the lowest matching way
    // wins. Fills take the first empty way and lines are never
    // invalidated, so the filled ways are a prefix of the set: a match on
    // an empty way (only the line id `EMPTY` can make one) wins only when
    // no filled way matches, and its zero stamp makes it a miss.
    let mut hit = ways;
    for w in (0..ways).rev() {
        if tags[w] == line {
            hit = w;
        }
    }
    if hit < ways && stamps[hit] != 0 {
        stamps[hit] = tick;
        return Probe::Hit;
    }
    // The running minimum stays in a register: reloading `stamps[victim]`
    // at every step would chain each compare behind the previous select.
    // Strict `<` keeps the lowest way among equal stamps.
    let (mut victim, mut oldest) = (0, stamps[0]);
    for (w, &stamp) in (1..).zip(&stamps[1..]) {
        if stamp < oldest {
            (victim, oldest) = (w, stamp);
        }
    }
    let probe = if oldest == 0 { Probe::Fill } else { Probe::Evict };
    tags[victim] = line;
    stamps[victim] = tick;
    probe
}

impl DataCache {
    /// Builds a cache from its geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.num_sets() as usize;
        let ways = geom.ways as usize;
        Self {
            tags: vec![EMPTY; sets * ways],
            stamps: vec![0; sets * ways],
            tick: 0,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            num_sets: sets as u64,
            ways,
            line_shift: geom.line_shift,
            hit_latency: geom.hit_latency,
            stats: CacheStats::default(),
        }
    }

    /// The cache-line id of `addr`.
    pub fn line_of(&self, addr: VirtAddr) -> u64 {
        addr.line(self.line_shift)
    }

    /// Accesses the line containing `addr`: returns `true` on hit, and
    /// fills the line (evicting LRU) on miss.
    pub fn access(&mut self, addr: VirtAddr) -> bool {
        let line = self.line_of(addr);
        let set = match self.set_mask {
            Some(m) => line & m,
            None => line % self.num_sets,
        } as usize;
        let probe = match self.ways {
            1 => self.direct_mapped(set, line),
            // Literal Table 1 widths: the compiler unrolls both of
            // `probe_set`'s loops for them.
            4 => self.probe(set, line, 4),
            16 => self.probe(set, line, 16),
            ways => self.probe(set, line, ways),
        };
        match probe {
            Probe::Hit => self.stats.hits += 1,
            Probe::Fill => self.stats.misses += 1,
            Probe::Evict => {
                self.stats.misses += 1;
                self.stats.conflict_evictions += 1;
            }
        }
        probe == Probe::Hit
    }

    /// Probes one set of a `ways`-way cache.
    #[inline(always)]
    fn probe(&mut self, set: usize, line: u64, ways: usize) -> Probe {
        self.tick += 1;
        let range = set * ways..(set + 1) * ways;
        probe_set(&mut self.tags[range.clone()], &mut self.stamps[range], line, self.tick)
    }

    /// A direct-mapped set: a hit writes nothing, and a fill marks the way
    /// filled with stamp 1.
    #[inline(always)]
    fn direct_mapped(&mut self, set: usize, line: u64) -> Probe {
        if self.tags[set] == line && (line != EMPTY || self.stamps[set] != 0) {
            return Probe::Hit;
        }
        let probe = if self.stamps[set] == 0 { Probe::Fill } else { Probe::Evict };
        self.tags[set] = line;
        self.stamps[set] = 1;
        probe
    }

    /// The hit latency of this cache.
    pub fn hit_latency(&self) -> Cycle {
        self.hit_latency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// The data path: per-SM L1 caches, a shared L2, and DRAM.
///
/// [`MemPath::access`] returns the latency of one coalesced transaction.
/// L1 misses are looked up in the L2 and then DRAM, as in the paper's
/// configuration ("L1 misses are coalesced before accessing L2" — we model
/// that coalescing at stream generation time).
#[derive(Debug, Clone)]
pub struct MemPath {
    l1: Vec<DataCache>,
    l2: DataCache,
    dram_latency: Cycle,
}

impl MemPath {
    /// Builds the data path for `num_sms` SMs.
    pub fn new(config: &MemConfig, num_sms: u16) -> Self {
        Self {
            l1: (0..num_sms).map(|_| DataCache::new(config.l1d)).collect(),
            l2: DataCache::new(config.l2d),
            dram_latency: config.dram_latency,
        }
    }

    /// The latency of one transaction from SM `sm` to `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range.
    pub fn access(&mut self, sm: usize, addr: VirtAddr) -> Cycle {
        let l1 = &mut self.l1[sm];
        if l1.access(addr) {
            return l1.hit_latency();
        }
        let l1_lat = l1.hit_latency();
        if self.l2.access(addr) {
            return l1_lat + self.l2.hit_latency();
        }
        l1_lat + self.l2.hit_latency() + self.dram_latency
    }

    /// Combined L1 statistics over all SMs.
    pub fn l1_stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for c in &self.l1 {
            s.add(&c.stats());
        }
        s
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_geom() -> CacheGeometry {
        CacheGeometry { capacity_bytes: 1024, ways: 2, line_shift: 7, hit_latency: 4 }
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = DataCache::new(small_geom());
        let a = VirtAddr::new(0x80);
        assert!(!c.access(a));
        assert!(c.access(a));
        assert!(c.access(VirtAddr::new(0x85))); // same 128B line
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1, conflict_evictions: 0 });
    }

    #[test]
    fn lru_within_set() {
        // 1024 B / (2 ways * 128 B) = 4 sets; lines 0, 4, 8 share set 0.
        let mut c = DataCache::new(small_geom());
        let line = |i: u64| VirtAddr::new(i * 128);
        c.access(line(0));
        c.access(line(4));
        c.access(line(0)); // refresh 0; LRU is 4
        c.access(line(8)); // evicts 4
        assert!(c.access(line(0)));
        assert!(!c.access(line(4)));
        assert_eq!(c.stats().conflict_evictions, 2); // line 8 evicted 4, then 4 evicted 8
    }

    #[test]
    fn non_power_of_two_sets_use_the_modulo_path() {
        // 768 B / (2 ways * 128 B) = 3 sets: no mask possible.
        let geom = CacheGeometry { capacity_bytes: 768, ways: 2, line_shift: 7, hit_latency: 4 };
        let mut c = DataCache::new(geom);
        assert!(c.set_mask.is_none());
        let line = |i: u64| VirtAddr::new(i * 128);
        // Lines 0 and 3 share set 0; line 1 does not.
        c.access(line(0));
        c.access(line(3));
        c.access(line(6)); // evicts 0 from set 0
        assert!(!c.access(line(0))); // line 0 was evicted, and re-filling evicts 3
        assert_eq!(c.stats().conflict_evictions, 2);
    }

    #[test]
    fn the_empty_tag_is_a_line_like_any_other() {
        // With 1-byte lines the last address's line id equals the tag of an
        // empty way; the stamp tells the two apart at every width.
        for ways in [1u32, 2, 4, 16] {
            let geom = CacheGeometry { capacity_bytes: ways, ways, line_shift: 0, hit_latency: 4 };
            let mut c = DataCache::new(geom);
            let last = VirtAddr::new(u64::MAX);
            assert!(!c.access(last), "{ways} ways: cold access hit an empty way");
            assert!(c.access(last), "{ways} ways");
            for i in 1..u64::from(ways) {
                assert!(!c.access(VirtAddr::new(i)), "{ways} ways");
            }
            assert!(c.access(last), "{ways} ways: filling the set lost the line");
            assert_eq!(c.stats().conflict_evictions, 0, "{ways} ways");
            assert!(!c.access(VirtAddr::new(0)));
            assert_eq!(c.stats().conflict_evictions, 1, "{ways} ways");
        }
    }

    #[test]
    fn mempath_latency_composition() {
        let mut m = MemPath::new(&MemConfig::default(), 2);
        let a = VirtAddr::new(0x1000);
        // Cold: L1 miss + L2 miss + DRAM.
        assert_eq!(m.access(0, a), 4 + 60 + 200);
        // L1 hit.
        assert_eq!(m.access(0, a), 4);
        // Other SM: own L1 misses, L2 hits.
        assert_eq!(m.access(1, a), 4 + 60);
    }

    #[test]
    fn per_sm_l1_isolation() {
        let mut m = MemPath::new(&MemConfig::default(), 2);
        let a = VirtAddr::new(0x2000);
        m.access(0, a);
        assert_eq!(m.l1_stats().misses, 1);
        m.access(1, a);
        assert_eq!(m.l1_stats().misses, 2);
        assert_eq!(m.l2_stats().hits, 1);
    }
}
