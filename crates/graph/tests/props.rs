//! Property-based tests for the CSR substrate and reference algorithms,
//! and reference models for the generator and the derived graphs.

use batmem_graph::gen::{self, RmatSampler};
use batmem_graph::{alg, Csr, CsrBuilder};
use batmem_types::rng::DetRng;
use proptest::prelude::*;

fn edge_list() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2u32..64).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..256);
        (Just(n), edges)
    })
}

/// Edge lists that may be empty or have one vertex, with self-loops and
/// duplicate edges mixed in, and some vertices left isolated.
fn messy_edge_list() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    prop_oneof![Just(0u32), Just(1u32), 2u32..40].prop_flat_map(|n| {
        if n == 0 {
            return Just((0, Vec::new())).boxed();
        }
        let edges = prop::collection::vec((0..n, 0..n), 0..160);
        (Just(n), edges, 0..n)
            .prop_map(|(n, mut edges, v)| {
                let dups: Vec<(u32, u32)> = edges.iter().copied().step_by(3).collect();
                edges.extend(dups);
                edges.push((v, v));
                (n, edges)
            })
            .boxed()
    })
}

/// Reference model of the R-MAT kernel: a four-way branch on a uniform
/// `f64` at each level of the recursive bisection, the formulation the
/// integer thresholds must reproduce draw for draw.
fn reference_rmat_edge(rng: &mut DetRng, n: u32, a: f64, b: f64, c: f64) -> (u32, u32) {
    let (mut lo_s, mut hi_s) = (0u32, n);
    let (mut lo_d, mut hi_d) = (0u32, n);
    while hi_s - lo_s > 1 {
        let mid_s = lo_s + (hi_s - lo_s) / 2;
        let mid_d = lo_d + (hi_d - lo_d) / 2;
        let r: f64 = rng.next_f64();
        if r < a {
            hi_s = mid_s;
            hi_d = mid_d;
        } else if r < a + b {
            hi_s = mid_s;
            lo_d = mid_d;
        } else if r < a + b + c {
            lo_s = mid_s;
            hi_d = mid_d;
        } else {
            lo_s = mid_s;
            lo_d = mid_d;
        }
    }
    (lo_s, lo_d)
}

/// Reference model of `symmetrized`: sort and deduplicate all `2E`
/// directed pairs, then rebuild.
fn reference_symmetrized(g: &Csr) -> Csr {
    let mut pairs = Vec::new();
    for v in 0..g.num_vertices() {
        for &t in g.neighbors(v) {
            if t != v {
                pairs.push((v, t));
                pairs.push((t, v));
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    CsrBuilder::new(g.num_vertices()).edges(pairs).build()
}

/// Odds from integer weights (`d` gets `w[3]`); rounding can push
/// `a + b + c` an ulp past 1, so the last nonzero odd is pulled back.
fn odds_from_weights(w: [u32; 4]) -> (f64, f64, f64) {
    let total = f64::from(w.iter().sum::<u32>().max(1));
    let mut p = w.map(|x| f64::from(x) / total);
    while p[0] + p[1] + p[2] > 1.0 {
        let i = p[..3].iter().rposition(|&x| x > 0.0).expect("sum above 1 needs a nonzero odd");
        p[i] = f64::from_bits(p[i].to_bits() - 1);
    }
    (p[0], p[1], p[2])
}

/// R-MAT odds `(a, b, c)`: fixed edge cases, exact dyadic fractions
/// (sixteenths, from three sorted cut points), and random weights of which
/// about a quarter are zero.
fn rmat_odds() -> impl Strategy<Value = (f64, f64, f64)> {
    const FIXED: [(f64, f64, f64); 9] = [
        (0.57, 0.19, 0.19),
        (0.5, 0.25, 0.125),
        (0.25, 0.25, 0.25),
        (0.5, 0.25, 0.25),
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
        (0.0, 0.0, 0.0),
        (0.0, 0.5, 0.0),
    ];
    prop_oneof![
        (0..FIXED.len()).prop_map(|i| FIXED[i]),
        (0u32..=16, 0u32..=16, 0u32..=16).prop_map(|(x, y, z)| {
            let mut cuts = [x, y, z];
            cuts.sort_unstable();
            let sixteenths = |w: u32| f64::from(w) / 16.0;
            (sixteenths(cuts[0]), sixteenths(cuts[1] - cuts[0]), sixteenths(cuts[2] - cuts[1]))
        }),
        (0u32..1000, 0u32..1000, 0u32..1000, 0u32..1000).prop_map(
            |(a, b, c, d)| odds_from_weights([a, b, c, d].map(|w| if w < 250 { 0 } else { w }))
        ),
        (0u32..1000, 0u32..1000, 0u32..1000).prop_map(|(a, b, c)| odds_from_weights([a, b, c, 0])),
    ]
}

/// A generator whose next draw is exactly `x`. splitmix64's output mix is
/// a bijection: undo each xorshift and multiply, then step the state back
/// one increment.
fn rng_drawing(x: u64) -> DetRng {
    let unxorshift = |y: u64, s: usize| (0..64).step_by(s).fold(0, |z, i| z ^ (y >> i));
    let inverse =
        |m: u64| (0..5).fold(m, |i: u64, _| i.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(i))));
    let mut z = unxorshift(x, 31);
    z = unxorshift(z.wrapping_mul(inverse(0x94d0_49bb_1331_11eb)), 27);
    z = unxorshift(z.wrapping_mul(inverse(0xbf58_476d_1ce4_e5b9)), 30);
    DetRng::new(z.wrapping_sub(0x9e37_79b9_7f4a_7c15))
}

/// FNV-1a over a graph's offsets (little-endian `u64`s), then its edges
/// (little-endian `u32`s).
fn fnv1a(g: &Csr) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let offsets = g.offsets().iter().flat_map(|o| o.to_le_bytes());
    for byte in offsets.chain(g.edges().iter().flat_map(|e| e.to_le_bytes())) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn rmat_digests_are_pinned() {
    // The graphs the `f64`-branch kernel and the sort-and-dedup
    // symmetrization produce; the faster paths must match them bit for bit.
    let g = gen::rmat(12, 16, 42);
    assert_eq!(fnv1a(&g), 0x6f3a_5f20_a598_e5d6);
    assert_eq!(fnv1a(&g.symmetrized()), 0x6f3d_e161_0ea3_5d8c);
    assert_eq!(fnv1a(&gen::rmat(15, 16, 42)), 0x67e3_d7de_25c7_88e7);
}

#[test]
fn rng_drawing_draws_the_requested_value() {
    for x in [0, 1, 1 << 63, u64::MAX, 0x0123_4567_89ab_cdef] {
        assert_eq!(rng_drawing(x).next_u64(), x);
    }
}

proptest! {
    #[test]
    fn builder_preserves_edge_multiset((n, edges) in edge_list()) {
        let g = CsrBuilder::new(n).edges(edges.iter().copied()).build();
        prop_assert_eq!(g.num_edges(), edges.len() as u64);
        let mut expect = edges.clone();
        expect.sort_unstable();
        let mut got: Vec<(u32, u32)> = Vec::new();
        for v in 0..n {
            for &t in g.neighbors(v) {
                got.push((v, t));
            }
        }
        got.sort_unstable();
        prop_assert_eq!(got, expect);
        g.check_invariants().unwrap();
    }

    #[test]
    fn degree_sum_equals_edge_count((n, edges) in edge_list()) {
        let g = CsrBuilder::new(n).edges(edges.iter().copied()).build();
        let sum: u64 = (0..n).map(|v| u64::from(g.degree(v))).sum();
        prop_assert_eq!(sum, g.num_edges());
    }

    #[test]
    fn symmetrized_is_symmetric_and_loop_free((n, edges) in edge_list()) {
        let g = CsrBuilder::new(n).edges(edges.iter().copied()).build();
        let s = g.symmetrized();
        s.check_invariants().unwrap();
        for v in 0..n {
            for &t in s.neighbors(v) {
                prop_assert_ne!(t, v, "self loop survived");
                prop_assert!(s.neighbors(t).contains(&v), "missing reverse edge {}->{}", t, v);
            }
            // Deduplicated adjacency.
            let mut ns = s.neighbors(v).to_vec();
            let before = ns.len();
            ns.sort_unstable();
            ns.dedup();
            prop_assert_eq!(ns.len(), before);
        }
    }

    #[test]
    fn bfs_levels_are_shortest_path_consistent((n, edges) in edge_list()) {
        let g = CsrBuilder::new(n).edges(edges.iter().copied()).build();
        let r = alg::bfs(&g, 0);
        // Triangle inequality on edges: level[t] <= level[v] + 1 for
        // reached v.
        for v in 0..n {
            if r.levels[v as usize] == u32::MAX {
                continue;
            }
            for &t in g.neighbors(v) {
                prop_assert!(r.levels[t as usize] <= r.levels[v as usize] + 1);
            }
        }
        prop_assert_eq!(r.levels[0], 0);
    }

    #[test]
    fn sssp_dominated_by_bfs_hops((n, edges) in edge_list()) {
        // With unit weights, sssp == bfs distance.
        let g = CsrBuilder::new(n).edges(edges.iter().copied()).build();
        let b = alg::bfs(&g, 0);
        let s = alg::sssp(&g, 0);
        for v in 0..n as usize {
            if b.levels[v] == u32::MAX {
                prop_assert_eq!(s.dist[v], u64::MAX);
            } else {
                prop_assert_eq!(s.dist[v], u64::from(b.levels[v]));
            }
        }
    }

    #[test]
    fn coloring_proper_on_symmetrized((n, edges) in edge_list()) {
        let g = CsrBuilder::new(n).edges(edges.iter().copied()).build().symmetrized();
        let c = alg::coloring(&g);
        for v in 0..n {
            for &t in g.neighbors(v) {
                prop_assert_ne!(c.colors[v as usize], c.colors[t as usize]);
            }
        }
        let colored: usize = c.rounds.iter().map(Vec::len).sum();
        prop_assert_eq!(colored, n as usize);
    }

    #[test]
    fn kcore_rounds_partition_vertices((n, edges) in edge_list()) {
        let g = CsrBuilder::new(n).edges(edges.iter().copied()).build().symmetrized();
        let r = alg::kcore(&g);
        let total: usize = r.peel_rounds.iter().map(Vec::len).sum();
        prop_assert_eq!(total, n as usize);
        // Coreness bounded by degree.
        for v in 0..n {
            prop_assert!(r.coreness[v as usize] <= g.degree(v));
        }
    }

    #[test]
    fn rmat_kernel_matches_the_branchy_reference(
        (a, b, c) in rmat_odds(),
        scale in 0u32..=20,
        seed in 0u64..u64::MAX,
        edges in 1usize..24,
    ) {
        let sampler = RmatSampler::new(scale, a, b, c);
        let (mut fast, mut reference) = (DetRng::new(seed), DetRng::new(seed));
        for _ in 0..edges {
            prop_assert_eq!(
                sampler.edge(&mut fast),
                reference_rmat_edge(&mut reference, 1 << scale, a, b, c)
            );
        }
        // Both consumed exactly `scale` draws per edge.
        prop_assert_eq!(fast, reference);
    }

    #[test]
    fn rmat_kernel_matches_the_reference_at_threshold_draws(
        (a, b, c) in rmat_odds(),
        low_bits in 0u64..2048,
    ) {
        // Random draws almost never land on a threshold; these do. Probe
        // the 53-bit draws on either side of each exact `p · 2^53`.
        let sampler = RmatSampler::new(1, a, b, c);
        for p in [a, a + b, a + b + c] {
            let at = (p * (1u64 << 53) as f64) as u64;
            for k in [at.saturating_sub(1), at, at + 1].into_iter().filter(|&k| k < 1 << 53) {
                let draw = (k << 11) | low_bits;
                prop_assert_eq!(
                    sampler.edge(&mut rng_drawing(draw)),
                    reference_rmat_edge(&mut rng_drawing(draw), 2, a, b, c),
                    "draw {:#x}",
                    draw
                );
            }
        }
    }

    #[test]
    fn rmat_graph_matches_the_reference_edge_list(
        (a, b, c) in rmat_odds(),
        scale in 0u32..=9,
        edge_factor in 0u32..=4,
        seed in 0u64..u64::MAX,
    ) {
        let n = 1u32 << scale;
        let mut rng = DetRng::new(seed);
        let m = u64::from(edge_factor) * u64::from(n);
        let edges: Vec<(u32, u32)> = (0..m).map(|_| reference_rmat_edge(&mut rng, n, a, b, c)).collect();
        let expect = CsrBuilder::new(n).edges(edges).build();
        prop_assert_eq!(gen::rmat_with(scale, edge_factor, a, b, c, seed), expect);
    }

    #[test]
    fn symmetrized_matches_the_sort_and_dedup_reference((n, edges) in messy_edge_list()) {
        let g = CsrBuilder::new(n).edges(edges.iter().copied()).build();
        let expect = reference_symmetrized(&g);
        prop_assert_eq!(g.symmetrized(), expect.clone());
        // Weights are dropped, so a weighted input symmetrizes the same.
        let weights = (0..g.edges().len() as u32).collect();
        prop_assert_eq!(g.with_weights(weights).symmetrized(), expect);
    }

    #[test]
    fn pagerank_is_a_distribution((n, edges) in edge_list()) {
        let g = CsrBuilder::new(n).edges(edges.iter().copied()).build();
        let r = alg::pagerank(&g, 10);
        let sum: f64 = r.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {}", sum);
        prop_assert!(r.iter().all(|&x| x >= 0.0));
    }
}
