//! Property-based tests for the virtual-memory substrate.

use batmem_types::dense::DenseKey;
use batmem_types::{FrameId, PageId, RegionId};
use batmem_vmem::{GpuPageTable, Tlb, TlbStats};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The TLB as it was before its flat stamp-LRU layout, kept as the
/// reference model: one LRU stack per set, most recently used at the back.
struct StackTlb<K> {
    sets: Vec<Vec<K>>,
    ways: usize,
    stats: TlbStats,
}

impl<K: DenseKey> StackTlb<K> {
    fn new(entries: u32, ways: u32) -> Self {
        Self {
            sets: (0..entries / ways).map(|_| Vec::new()).collect(),
            ways: ways as usize,
            stats: TlbStats::default(),
        }
    }

    fn set(&mut self, key: K) -> &mut Vec<K> {
        let n = self.sets.len();
        &mut self.sets[key.dense_index() % n]
    }

    fn lookup(&mut self, key: K) -> bool {
        let set = self.set(key);
        let hit = match set.iter().position(|&k| k == key) {
            Some(pos) => {
                let k = set.remove(pos);
                set.push(k);
                true
            }
            None => false,
        };
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    fn contains(&self, key: K) -> bool {
        self.sets.iter().any(|s| s.contains(&key))
    }

    fn insert(&mut self, key: K) -> Option<K> {
        let ways = self.ways;
        let set = self.set(key);
        if let Some(pos) = set.iter().position(|&k| k == key) {
            let k = set.remove(pos);
            set.push(k);
            return None;
        }
        let victim = if set.len() == ways { Some(set.remove(0)) } else { None };
        set.push(key);
        victim
    }

    fn invalidate(&mut self, key: K) -> bool {
        let set = self.set(key);
        let Some(pos) = set.iter().position(|&k| k == key) else {
            return false;
        };
        set.remove(pos);
        self.stats.shootdowns += 1;
        true
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// One step of a TLB reference-model run. `Access` is the MMU's pattern:
/// a lookup, then an insert on a miss.
#[derive(Debug, Clone, Copy)]
enum TlbOp {
    Access,
    Lookup,
    Insert,
    Invalidate,
    Contains,
}

fn tlb_ops() -> impl Strategy<Value = Vec<(TlbOp, u64)>> {
    let op = prop_oneof![
        Just(TlbOp::Access),
        Just(TlbOp::Access),
        Just(TlbOp::Access),
        Just(TlbOp::Lookup),
        Just(TlbOp::Insert),
        Just(TlbOp::Invalidate),
        Just(TlbOp::Contains),
    ];
    prop::collection::vec((op, 0u64..1_000_000), 1..400)
}

/// Associativities for the reference-model tests: any width in 1..=64,
/// with Table 1's fully associative L1 TLB (64) and 32-way L2 TLB drawn
/// more often.
fn tlb_ways() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..=64, 1u32..=64, Just(32u32), Just(64u32)]
}

/// The `i`-th key of a stream of shape `kind` over a TLB of `entries`
/// entries, drawn from `r`: uniform over about twice the capacity, cycling
/// through exactly `entries` keys (all hits once warm), cycling through
/// `entries + 1` (LRU's worst case), or mostly reusing a few hot keys.
fn stream_key(kind: u8, i: u64, r: u64, entries: u64) -> u64 {
    match kind {
        0 => r % (2 * entries + 1),
        1 => i % entries,
        2 => i % (entries + 1),
        _ if !r.is_multiple_of(4) => r % 3,
        _ => r % (4 * entries),
    }
}

/// Runs `ops` against a flat [`Tlb`] and the stack model side by side and
/// checks every answer: hits, evicted victims, invalidations, membership,
/// occupancy and statistics.
fn check_tlb_against_stack_model<K: DenseKey>(
    key_of: fn(u64) -> K,
    ways: u32,
    sets: u32,
    kind: u8,
    ops: &[(TlbOp, u64)],
) {
    let entries = ways * sets;
    let mut tlb: Tlb<K> = Tlb::new(entries, ways);
    let mut model = StackTlb::new(entries, ways);
    for (i, &(op, r)) in ops.iter().enumerate() {
        let key = key_of(stream_key(kind, i as u64, r, u64::from(entries)));
        match op {
            TlbOp::Access => {
                let hit = tlb.lookup(key);
                assert_eq!(hit, model.lookup(key), "step {i}: lookup {key:?}");
                if !hit {
                    assert_eq!(tlb.insert(key), model.insert(key), "step {i}: fill {key:?}");
                }
            }
            TlbOp::Lookup => assert_eq!(tlb.lookup(key), model.lookup(key), "step {i}"),
            TlbOp::Insert => assert_eq!(tlb.insert(key), model.insert(key), "step {i}"),
            TlbOp::Invalidate => {
                assert_eq!(tlb.invalidate(key), model.invalidate(key), "step {i}");
            }
            TlbOp::Contains => assert_eq!(tlb.contains(key), model.contains(key), "step {i}"),
        }
        assert_eq!(tlb.occupancy(), model.occupancy(), "step {i}");
        assert_eq!(tlb.stats(), model.stats, "step {i}");
    }
}

#[derive(Debug, Clone)]
enum PtOp {
    Install(u64, u32),
    Remove(u64),
    Translate(u64),
}

/// Two-level op mix: base installs/removes plus group promote/splinter.
/// Removes mirror the UVM pipeline's splinter-before-evict discipline.
#[derive(Debug, Clone)]
enum TierOp {
    Install(u64, u32),
    Remove(u64),
    Promote(u64),
    Splinter(u64),
    Translate(u64),
}

/// 8 groups of 4 pages: small enough that promote/splinter cycles are
/// frequent, large enough that partially-resident groups occur.
const PAGES_PER_LARGE: u64 = 4;
const TIER_PAGES: u64 = 32;

fn tier_ops() -> impl Strategy<Value = Vec<TierOp>> {
    let groups = TIER_PAGES / PAGES_PER_LARGE;
    prop::collection::vec(
        // The in-tree proptest subset has no weighted prop_oneof; the
        // double Install arm skews the mix toward filling groups so
        // promotions actually fire.
        prop_oneof![
            (0u64..TIER_PAGES, 0u32..64).prop_map(|(p, f)| TierOp::Install(p, f)),
            (0u64..TIER_PAGES, 0u32..64).prop_map(|(p, f)| TierOp::Install(p, f)),
            (0u64..TIER_PAGES).prop_map(TierOp::Remove),
            (0u64..groups).prop_map(TierOp::Promote),
            (0u64..groups).prop_map(TierOp::Splinter),
            (0u64..TIER_PAGES).prop_map(TierOp::Translate),
        ],
        0..300,
    )
}

fn pt_ops() -> impl Strategy<Value = Vec<PtOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..32, 0u32..64).prop_map(|(p, f)| PtOp::Install(p, f)),
            (0u64..32).prop_map(PtOp::Remove),
            (0u64..32).prop_map(PtOp::Translate),
        ],
        0..200,
    )
}

proptest! {
    #[test]
    fn page_table_matches_btreemap_model(ops in pt_ops()) {
        let mut pt = GpuPageTable::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for op in ops {
            match op {
                PtOp::Install(p, f) => {
                    let got = pt.install(PageId::new(p), FrameId::new(f));
                    let want = model.insert(p, f);
                    prop_assert_eq!(got.map(|x| x.index()), want);
                }
                PtOp::Remove(p) => {
                    let got = pt.remove(PageId::new(p));
                    let want = model.remove(&p);
                    prop_assert_eq!(got.map(|x| x.index()), want);
                }
                PtOp::Translate(p) => {
                    let got = pt.translate(PageId::new(p));
                    let want = model.get(&p).copied();
                    prop_assert_eq!(got.map(|x| x.index()), want);
                }
            }
            prop_assert_eq!(pt.resident_pages(), model.len());
        }
    }

    /// Promotion is an overlay: through arbitrary coalesce -> splinter ->
    /// coalesce cycles, translation and residency must stay byte-identical
    /// to a flat single-granularity page table (the `BTreeMap` oracle),
    /// and a promoted group must always be fully resident.
    #[test]
    fn two_level_table_matches_flat_oracle_through_promote_cycles(ops in tier_ops()) {
        let mut pt = GpuPageTable::with_pages_per_large(PAGES_PER_LARGE);
        let mut flat: BTreeMap<u64, u32> = BTreeMap::new();
        let mut promoted: BTreeSet<u64> = BTreeSet::new();
        let group_full =
            |flat: &BTreeMap<u64, u32>, g: u64| (0..PAGES_PER_LARGE).all(|i| {
                flat.contains_key(&(g * PAGES_PER_LARGE + i))
            });
        for op in ops {
            match op {
                TierOp::Install(p, f) => {
                    let got = pt.install(PageId::new(p), FrameId::new(f));
                    let want = flat.insert(p, f);
                    prop_assert_eq!(got.map(|x| x.index()), want);
                }
                TierOp::Remove(p) => {
                    // Splinter-before-evict, exactly as the UVM pipeline
                    // orders its outputs.
                    let g = p / PAGES_PER_LARGE;
                    if promoted.remove(&g) {
                        prop_assert!(pt.splinter(RegionId::new(g)));
                    }
                    let got = pt.remove(PageId::new(p));
                    let want = flat.remove(&p);
                    prop_assert_eq!(got.map(|x| x.index()), want);
                }
                TierOp::Promote(g) => {
                    let want = group_full(&flat, g) && promoted.insert(g);
                    prop_assert_eq!(pt.promote(RegionId::new(g)), want);
                }
                TierOp::Splinter(g) => {
                    let want = promoted.remove(&g);
                    prop_assert_eq!(pt.splinter(RegionId::new(g)), want);
                }
                TierOp::Translate(p) => {
                    let got = pt.translate(PageId::new(p));
                    let want = flat.get(&p).copied();
                    prop_assert_eq!(got.map(|x| x.index()), want);
                }
            }
            // The overlay never perturbs the flat truth...
            prop_assert_eq!(pt.resident_pages(), flat.len());
            prop_assert_eq!(pt.has_promotions(), !promoted.is_empty());
            prop_assert_eq!(pt.promoted_groups(), promoted.len());
            // ...and every promoted group is fully resident (the
            // invariant `Mmu::translate` leans on for its stale check).
            for &g in &promoted {
                prop_assert!(pt.group_is_full(RegionId::new(g)));
            }
        }
    }

    #[test]
    fn fully_associative_tlb_is_an_lru_stack(
        accesses in prop::collection::vec(0u64..16, 1..100),
        capacity in 1u32..8,
    ) {
        let mut tlb = Tlb::fully_associative(capacity);
        let mut stack: Vec<u64> = Vec::new(); // MRU at back
        for &p in &accesses {
            tlb.insert(PageId::new(p));
            stack.retain(|&x| x != p);
            stack.push(p);
            if stack.len() > capacity as usize {
                stack.remove(0);
            }
            // Contents must equal the model's.
            for &x in &stack {
                prop_assert!(tlb.contains(PageId::new(x)), "missing {}", x);
            }
            prop_assert_eq!(tlb.occupancy(), stack.len());
        }
    }

    #[test]
    fn tlb_occupancy_never_exceeds_capacity(
        accesses in prop::collection::vec(0u64..1000, 1..300),
        ways in 1u32..5,
        sets_log in 0u32..4,
    ) {
        let entries = ways << sets_log;
        let mut tlb = Tlb::new(entries, ways);
        for &p in &accesses {
            tlb.insert(PageId::new(p));
            prop_assert!(tlb.occupancy() <= entries as usize);
        }
    }

    #[test]
    fn tlb_lookup_after_insert_hits_until_evicted(
        pages in prop::collection::vec(0u64..50, 1..100),
    ) {
        let mut tlb = Tlb::new(16, 4);
        for &p in &pages {
            tlb.insert(PageId::new(p));
            prop_assert!(tlb.lookup(PageId::new(p)), "just-inserted page missed");
        }
    }

    #[test]
    fn invalidate_removes_exactly_that_page(
        pages in prop::collection::vec(0u64..20, 1..50),
        victim in 0u64..20,
    ) {
        let mut tlb = Tlb::fully_associative(64);
        for &p in &pages {
            tlb.insert(PageId::new(p));
        }
        let present_before = tlb.contains(PageId::new(victim));
        let removed = tlb.invalidate(PageId::new(victim));
        prop_assert_eq!(removed, present_before);
        prop_assert!(!tlb.contains(PageId::new(victim)));
        for &p in &pages {
            if p != victim {
                prop_assert!(tlb.contains(PageId::new(p)));
            }
        }
    }

    /// The flat stamp-LRU TLB against the stack model over base pages.
    /// Set counts run 1..=12, powers of two and not.
    #[test]
    fn page_tlb_matches_the_lru_stack_model(
        ways in tlb_ways(),
        sets in 1u32..=12,
        kind in 0u8..4,
        ops in tlb_ops(),
    ) {
        check_tlb_against_stack_model(PageId::new, ways, sets, kind, &ops);
    }

    /// The same model check for the large-page TLBs' `RegionId` tags.
    #[test]
    fn region_tlb_matches_the_lru_stack_model(
        ways in tlb_ways(),
        sets in 1u32..=12,
        kind in 0u8..4,
        ops in tlb_ops(),
    ) {
        check_tlb_against_stack_model(RegionId::new, ways, sets, kind, &ops);
    }
}
