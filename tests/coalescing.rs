//! Differential tests for transparent large-page coalescing.
//!
//! The off-path contract: `coalesce:off` at the default 64 KB geometry is
//! the seed simulator, bit for bit. The on-path contract: `coalesce:greedy`
//! actually promotes groups and converts page-table walks into large-TLB
//! hits, deterministically.
//!
//! The on-path tests use the synthetic strided workload: at test scales
//! the graph footprints (5-20 pages) never fill a 32-page large group, so
//! promotion physically cannot fire on them — which is itself pinned by
//! [`tiny_footprints_never_promote`].

use batmem::probes::MetricsRow;
use batmem::{policies, RunMetrics, Simulation};
use batmem_graph::gen;
use batmem_types::addr::PageGeometry;
use batmem_types::SimConfig;
use batmem_workloads::registry;
use batmem_workloads::synthetic::Strided;
use std::sync::Arc;

fn run_graph(name: &str, coalesce: Option<&str>) -> RunMetrics {
    let graph = Arc::new(gen::rmat(11, 8, 3));
    let w = registry::build(name, graph).unwrap();
    let mut b = Simulation::builder().policy(policies::to_ue()).memory_ratio(0.5);
    if let Some(spec) = coalesce {
        b = b.coalesce(spec);
    }
    b.try_run(w).unwrap()
}

/// 8 blocks x 2 warps x 32 pages/warp = 512 pages (sixteen 32-page
/// groups), touched in two passes so the second pass re-translates what
/// the first installed.
fn strided() -> Strided {
    Strided::new(8, 64, 32, 32, 10, 2)
}

fn run_strided(coalesce: &str, ratio: f64) -> RunMetrics {
    let w = strided();
    // Shrink the TLBs so the 512-page working set thrashes the base side
    // on every pass, while the sixteen 32-page groups still fit the large
    // side (which mirrors these shapes at group granularity) — the TLB
    // reach experiment at test scale.
    let mut sim = SimConfig::default();
    sim.tlb.l1_entries = 8;
    sim.tlb.l2_entries = 32;
    sim.tlb.l2_ways = 8;
    Simulation::builder()
        .config(sim)
        .policy(policies::baseline())
        .memory_ratio(ratio)
        .coalesce(coalesce)
        .try_run(Box::new(w))
        .unwrap()
}

/// `coalesce:off` must be byte-identical to never mentioning the axis at
/// all: same cycles, same batch timeline, same translation counters. This
/// is the in-tree proxy for the figures-output pin — any off-path
/// bookkeeping shows up here first.
#[test]
fn coalesce_off_is_byte_identical_to_the_seed_path() {
    for name in ["BFS-TTC", "SSSP-TWC"] {
        let seed = run_graph(name, None);
        let off = run_graph(name, Some("off"));
        assert_eq!(seed.cycles, off.cycles, "{name}: cycles diverged");
        assert_eq!(seed.uvm.num_batches(), off.uvm.num_batches());
        assert_eq!(seed.uvm.evictions, off.uvm.evictions);
        assert_eq!(seed.mmu, off.mmu, "{name}: translation stats diverged");
        assert_eq!(off.mmu.coalesces, 0, "{name}: off must never promote");
        assert_eq!(off.mmu.splinters, 0);
        assert_eq!(off.mmu.large_hits(), 0);
        for (x, y) in seed.uvm.batches.iter().zip(&off.uvm.batches) {
            assert_eq!(x, y, "{name}: batch records diverged");
        }
    }
}

/// The default geometry the off-pin runs under really is the seed's
/// 64 KB / 2 MB point.
#[test]
fn default_geometry_is_the_seed_64kb_point() {
    let g = PageGeometry::default();
    assert_eq!(g.base_shift(), 16, "64 KB base pages");
    assert_eq!(g.region_shift(), 21, "2 MB regions");
    assert_eq!(SimConfig::default().uvm.geometry, g);
}

/// A footprint smaller than one large group can never promote — greedy on
/// the test-scale graphs is a semantic no-op (though not a byte-identical
/// one: batch completion-expansion may still widen batches).
#[test]
fn tiny_footprints_never_promote() {
    let w = registry::build("BFS-TTC", Arc::new(gen::rmat(11, 8, 3))).unwrap();
    assert!(
        w.footprint_bytes() / PageGeometry::default().page_bytes()
            < PageGeometry::default().pages_per_large(),
        "scale-11 BFS grew past one large group; pick a smaller pin"
    );
    let m = run_graph("BFS-TTC", Some("greedy"));
    assert_eq!(m.mmu.coalesces, 0);
    assert_eq!(m.mmu.large_hits(), 0);
}

/// Greedy coalescing must do real work — promote groups, serve
/// translations out of the large TLBs, and cut page-table walks relative
/// to the off run — and the improvement must be visible through the
/// sweep's `MetricsRow`s, not just the in-memory stats.
#[test]
fn greedy_coalescing_improves_tlb_reach() {
    let off = run_strided("off", 1.0);
    let on = run_strided("greedy", 1.0);

    assert!(on.mmu.coalesces > 0, "greedy never promoted a group");
    assert!(on.mmu.large_hits() > 0, "promotions never served a translation");
    assert!(
        on.mmu.walks + on.mmu.large_walks < off.mmu.walks,
        "coalescing must reduce total walk traffic: {} + {} vs {}",
        on.mmu.walks,
        on.mmu.large_walks,
        off.mmu.walks,
    );

    // The same improvement through the metrics rows.
    let off_row = MetricsRow::from_run("strided/off", &off);
    let on_row = MetricsRow::from_run("strided/greedy", &on);
    assert_eq!(on_row.coalesces, on.mmu.coalesces);
    assert!(on_row.large_tlb_hits > 0);
    assert!(on_row.walks < off_row.walks);
}

/// Coalescing runs stay bit-for-bit deterministic, including under
/// eviction pressure (promote -> splinter -> re-promote cycles).
#[test]
fn greedy_coalescing_is_deterministic() {
    let a = run_strided("greedy", 0.5);
    let b = run_strided("greedy", 0.5);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.mmu, b.mmu);
    assert_eq!(a.uvm.evictions, b.uvm.evictions);
}

/// Under eviction pressure promoted groups must splinter before their
/// pages leave, and `splinter:on-evict` is sticky: a splintered group
/// never re-promotes, so it promotes at most as often as greedy.
#[test]
fn eviction_pressure_splinters_and_sticky_never_repromotes() {
    let greedy = run_strided("greedy", 0.5);
    let sticky = run_strided("splinter:on-evict", 0.5);
    assert!(greedy.uvm.evictions > 0, "no eviction pressure at 50% memory");
    assert!(greedy.mmu.splinters > 0, "evictions under promotion must splinter");
    assert!(sticky.mmu.coalesces <= greedy.mmu.coalesces);
    // Sticky promotes each group at most once.
    assert!(
        sticky.mmu.coalesces <= 16,
        "sticky re-promoted: {} promotions over 16 groups",
        sticky.mmu.coalesces
    );
    assert!(greedy.mmu.splinters <= greedy.mmu.coalesces);
    assert!(sticky.mmu.splinters <= sticky.mmu.coalesces);
}

/// The strided runs are the suite's only runs that promote: `figures --
/// all` never coalesces, and the graph footprints never fill a group
/// ([`tiny_footprints_never_promote`]). So their exact counts are what
/// guards the per-group residency counts that gate promotion. Captured
/// from the nested per-group page tables the flat map plus counts
/// replaced. `splinter:on-evict` at 0.5 matches greedy because greedy
/// never re-promotes there either (16 promotions over 16 groups).
#[test]
fn strided_runs_pin_their_promotion_counts() {
    // [cycles, batches, evictions, walks, large walks, coalesces,
    //  splinters, large hits]
    let pins: [(&str, f64, [u64; 8]); 4] = [
        ("off", 1.0, [2_769_040, 31, 0, 1411, 0, 0, 0, 0]),
        ("greedy", 1.0, [2_765_620, 31, 0, 1008, 16, 16, 0, 407]),
        ("greedy", 0.5, [7_251_503, 48, 655, 1772, 16, 16, 15, 124]),
        ("splinter:on-evict", 0.5, [7_251_503, 48, 655, 1772, 16, 16, 15, 124]),
    ];
    for (spec, ratio, want) in pins {
        let m = run_strided(spec, ratio);
        let got = [
            m.cycles,
            m.uvm.num_batches(),
            m.uvm.evictions,
            m.mmu.walks,
            m.mmu.large_walks,
            m.mmu.coalesces,
            m.mmu.splinters,
            m.mmu.large_hits(),
        ];
        assert_eq!(got, want, "{spec} at ratio {ratio}");
    }
}
