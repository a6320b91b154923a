//! Property-based tests for address arithmetic, time conversion and the
//! dense page and region tables.

use batmem_types::addr::{PageGeometry, PageId, RegionId, VirtAddr};
use batmem_types::dense::{DenseKey, DenseSet, PageMap, TieredPageMap};
use batmem_types::time::transfer_cycles;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

proptest! {
    #[test]
    fn page_region_consistency(raw in 0u64..(1 << 40), page_shift in 12u32..20) {
        let g = PageGeometry::base_region(page_shift, page_shift + 5).unwrap();
        let a = VirtAddr::new(raw);
        // addr -> region == addr -> page -> region.
        prop_assert_eq!(g.region_of(a), g.region_of_page(g.page_of(a)));
        // Page base address is within the page.
        let p = g.page_of(a);
        let base = g.page_base(p);
        prop_assert!(base.raw() <= raw);
        prop_assert!(raw - base.raw() < g.page_bytes());
    }

    #[test]
    fn region_first_page_round_trips(idx in 0u64..(1 << 30)) {
        let g = PageGeometry::default();
        let r = RegionId::new(idx);
        let first = g.first_page(r);
        prop_assert_eq!(g.region_of_page(first), r);
        // The page just before belongs to the previous region.
        if idx > 0 {
            let before = PageId::new(first.index() - 1);
            prop_assert_eq!(g.region_of_page(before).index(), idx - 1);
        }
    }

    #[test]
    fn large_tier_nests_between_pages_and_regions(
        raw in 0u64..(1 << 40),
        base in 12u32..16,
        large_gap in 0u32..4,
        region_gap in 0u32..4,
    ) {
        let g = PageGeometry::new(base, base + large_gap, base + large_gap + region_gap).unwrap();
        let a = VirtAddr::new(raw);
        let p = g.page_of(a);
        // A page's large group starts at or before the page and spans it.
        let group = g.large_of_page(p);
        let first = g.first_page_of_large(group);
        prop_assert!(first <= p);
        prop_assert!(p.index() - first.index() < g.pages_per_large());
        // Tier sizes multiply out: pages/large x larges/region = pages/region.
        prop_assert_eq!(g.pages_per_large() * g.larges_per_region(), g.pages_per_region());
        // The large tier refines the region tier.
        prop_assert_eq!(g.region_of_page(first), g.region_of_page(p));
    }

    #[test]
    fn transfer_cycles_is_monotone_in_bytes(
        a in 0u64..(1 << 30),
        b in 0u64..(1 << 30),
        bw in 1_000_000u64..100_000_000_000,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(transfer_cycles(lo, bw) <= transfer_cycles(hi, bw));
    }

    #[test]
    fn transfer_cycles_is_antitone_in_bandwidth(
        bytes in 1u64..(1 << 30),
        bw1 in 1_000_000u64..100_000_000_000,
        bw2 in 1_000_000u64..100_000_000_000,
    ) {
        let (slow, fast) = if bw1 <= bw2 { (bw1, bw2) } else { (bw2, bw1) };
        prop_assert!(transfer_cycles(bytes, fast) <= transfer_cycles(bytes, slow));
    }

    #[test]
    fn transfer_cycles_never_undercounts(
        bytes in 1u64..(1 << 30),
        bw in 1_000_000u64..100_000_000_000,
    ) {
        // cycles * bw >= bytes * 1e9 (round-up semantics).
        let c = transfer_cycles(bytes, bw) as u128;
        let need = bytes as u128 * 1_000_000_000;
        let capacity = c * bw as u128;
        let capacity_minus_one = (c - 1) * bw as u128;
        prop_assert!(capacity >= need);
        // And it is tight to within one cycle.
        prop_assert!(capacity_minus_one < need);
    }
}

/// Runs `ops` against a [`DenseSet`] and a `BTreeSet` side by side. Each
/// op is `(kind, raw)`: kind 19 clears, the rest insert, remove or ask
/// `contains` for key `raw % span`. Every answer, `len` and the ascending
/// `iter` must match after every step.
fn check_set_against_model<K: DenseKey + Ord>(key_of: fn(u64) -> K, span: u64, ops: &[(u8, u64)]) {
    let mut set: DenseSet<K> = DenseSet::new();
    let mut model: BTreeSet<K> = BTreeSet::new();
    for &(kind, raw) in ops {
        let key = key_of(raw % span);
        match kind {
            19 => {
                set.clear();
                model.clear();
            }
            0..=8 => assert_eq!(set.insert(key), model.insert(key), "insert {key:?}"),
            9..=13 => assert_eq!(set.remove(key), model.remove(&key), "remove {key:?}"),
            _ => assert_eq!(set.contains(key), model.contains(&key), "contains {key:?}"),
        }
        assert_eq!(set.len(), model.len());
        assert_eq!(set.is_empty(), model.is_empty());
        assert!(set.iter().eq(model.iter().copied()), "iteration order diverged");
    }
}

/// The pages of `region` the model holds, and whether that is all of them.
fn model_region(model: &BTreeMap<u64, u32>, region: u64, pages_per_region: u64) -> (usize, bool) {
    let first = region * pages_per_region;
    let n = model.range(first..first + pages_per_region).count();
    (n, n as u64 == pages_per_region)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn page_and_region_sets_match_a_btree_set(
        ops in prop::collection::vec((0u8..20, 0u64..(1 << 20)), 0..300),
        span in 1u64..2048,
    ) {
        check_set_against_model(PageId::new, span, &ops);
        check_set_against_model(RegionId::new, span, &ops);
    }

    /// A `PageMap<u32>` and a `TieredPageMap<u32>` under the same random
    /// op sequence as one `BTreeMap`: kind 19 clears; the rest insert,
    /// remove, `get`, `get_mut` (adding one) or ask `contains` for page
    /// `raw % span`. After every step each return value, `len`, the
    /// ascending `iter` and the touched regions' counts must match.
    #[test]
    fn page_maps_match_a_btree_map(
        ops in prop::collection::vec((0u8..20, 0u64..(1 << 20), 0u32..1000), 0..300),
        span in 1u64..2048,
        shift in 0u32..7,
    ) {
        let ppr = 1u64 << shift;
        let mut flat: PageMap<u32> = PageMap::new();
        let mut tiered: TieredPageMap<u32> = TieredPageMap::with_pages_per_region(ppr);
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        let mut touched: BTreeSet<u64> = BTreeSet::new();
        for &(kind, raw, value) in &ops {
            let i = raw % span;
            let page = PageId::new(i);
            match kind {
                19 => {
                    flat.clear();
                    tiered.clear();
                    model.clear();
                }
                0..=6 => {
                    let want = model.insert(i, value);
                    prop_assert_eq!(flat.insert(page, value), want);
                    prop_assert_eq!(tiered.insert(page, value), want);
                }
                7..=10 => {
                    let want = model.remove(&i);
                    prop_assert_eq!(flat.remove(page), want);
                    prop_assert_eq!(tiered.remove(page), want);
                }
                11..=13 => {
                    let want = model.get(&i);
                    prop_assert_eq!(flat.get(page), want);
                    prop_assert_eq!(tiered.get(page), want);
                }
                14..=16 => {
                    let want = model.get_mut(&i).map(|v| {
                        *v += 1;
                        *v
                    });
                    let got_flat = flat.get_mut(page).map(|v| {
                        *v += 1;
                        *v
                    });
                    let got_tiered = tiered.get_mut(page).map(|v| {
                        *v += 1;
                        *v
                    });
                    prop_assert_eq!(got_flat, want);
                    prop_assert_eq!(got_tiered, want);
                }
                _ => {
                    let want = model.contains_key(&i);
                    prop_assert_eq!(flat.contains(page), want);
                    prop_assert_eq!(tiered.contains(page), want);
                }
            }
            prop_assert_eq!(flat.len(), model.len());
            prop_assert_eq!(tiered.len(), model.len());
            prop_assert_eq!(tiered.is_empty(), model.is_empty());
            let want: Vec<(u64, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            let got: Vec<(u64, u32)> = flat.iter().map(|(k, &v)| (k.index(), v)).collect();
            prop_assert_eq!(&got, &want);
            let got: Vec<(u64, u32)> = tiered.iter().map(|(k, &v)| (k.index(), v)).collect();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(tiered.region_of(page), RegionId::new(i >> shift));
            touched.insert(i >> shift);
            for &r in &touched {
                let (n, full) = model_region(&model, r, ppr);
                prop_assert_eq!(tiered.region_len(RegionId::new(r)), n, "region {} count", r);
                prop_assert_eq!(tiered.region_is_full(RegionId::new(r)), full, "region {} full", r);
            }
        }
    }
}
