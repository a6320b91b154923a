//! Deterministic graph generators.
//!
//! All generators are seeded and reproducible across platforms (they use
//! [`batmem_types::rng::DetRng`], whose output is stable for a given seed).

use crate::csr::{Csr, CsrBuilder};
use batmem_types::rng::DetRng;

/// Generates an R-MAT (recursive-matrix / Kronecker) graph with `2^scale`
/// vertices and `edge_factor * 2^scale` directed edges, using the standard
/// Graph500 partition probabilities (a, b, c, d) = (0.57, 0.19, 0.19, 0.05).
///
/// R-MAT graphs have heavy-tailed degree distributions like the social and
/// web graphs the paper's irregular workloads target.
///
/// # Examples
///
/// ```
/// let g = batmem_graph::gen::rmat(8, 8, 42);
/// assert_eq!(g.num_vertices(), 256);
/// assert_eq!(g.num_edges(), 2048);
/// ```
pub fn rmat(scale: u32, edge_factor: u32, seed: u64) -> Csr {
    rmat_with(scale, edge_factor, 0.57, 0.19, 0.19, seed)
}

/// [`rmat`] with explicit quadrant probabilities `a`, `b`, `c`
/// (`d = 1 - a - b - c`).
///
/// # Panics
///
/// Panics if the probabilities are not a valid sub-distribution.
pub fn rmat_with(scale: u32, edge_factor: u32, a: f64, b: f64, c: f64, seed: u64) -> Csr {
    rmat_with_par(scale, edge_factor, a, b, c, seed, 1)
}

/// One R-MAT edge. The recursive bisection halves both coordinate ranges
/// once per level, so it consumes **exactly `scale` draws** — the invariant
/// [`rmat_par`] relies on to jump workers to their chunk offsets.
fn rmat_edge(rng: &mut DetRng, n: u32, a: f64, b: f64, c: f64) -> (u32, u32) {
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

/// [`rmat`] computed on `threads` worker threads, **bit-identical** to the
/// serial generator for every thread count.
///
/// Edge `e` of the serial stream consumes draws `[e * scale, (e + 1) *
/// scale)` of the seeded generator; [`DetRng::skip`] jumps a worker's
/// generator to its chunk boundary in O(1), so each worker reproduces
/// exactly the edges the serial loop would have produced at those indices.
/// Chunks are then concatenated in index order, giving the identical edge
/// sequence (and, since [`CsrBuilder::build`] is a stable sort, the
/// identical CSR).
///
/// # Examples
///
/// ```
/// let serial = batmem_graph::gen::rmat(8, 8, 42);
/// let parallel = batmem_graph::gen::rmat_par(8, 8, 42, 4);
/// assert_eq!(serial, parallel);
/// ```
pub fn rmat_par(scale: u32, edge_factor: u32, seed: u64, threads: usize) -> Csr {
    rmat_with_par(scale, edge_factor, 0.57, 0.19, 0.19, seed, threads)
}

/// [`rmat_with`] on `threads` worker threads; see [`rmat_par`].
pub fn rmat_with_par(
    scale: u32,
    edge_factor: u32,
    a: f64,
    b: f64,
    c: f64,
    seed: u64,
    threads: usize,
) -> Csr {
    assert!(a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0, "invalid R-MAT probabilities");
    let n: u32 = 1 << scale;
    let m = u64::from(edge_factor) * u64::from(n);
    let mut builder = CsrBuilder::new(n);
    if threads <= 1 || m < 2 {
        let mut rng = DetRng::new(seed);
        for _ in 0..m {
            let (s, d) = rmat_edge(&mut rng, n, a, b, c);
            builder = builder.edge(s, d);
        }
        return builder.build();
    }
    let workers = threads.min(m as usize);
    // Chunk bounds [e0, e1) per worker; worker i's generator starts at the
    // serial stream's draw offset e0 * scale.
    let bounds: Vec<(u64, u64)> = (0..workers as u64)
        .map(|i| {
            let per = m / workers as u64;
            let extra = m % workers as u64;
            let start = i * per + i.min(extra);
            (start, start + per + u64::from(i < extra))
        })
        .collect();
    let chunks: Vec<Vec<(u32, u32)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(e0, e1)| {
                scope.spawn(move || {
                    let mut rng = DetRng::new(seed);
                    rng.skip(e0 * u64::from(scale));
                    (e0..e1).map(|_| rmat_edge(&mut rng, n, a, b, c)).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rmat worker panicked")).collect()
    });
    for chunk in chunks {
        for (s, d) in chunk {
            builder = builder.edge(s, d);
        }
    }
    builder.build()
}

/// Generates a uniform random directed graph with `n` vertices and `m` edges.
///
/// # Examples
///
/// ```
/// let g = batmem_graph::gen::uniform(100, 500, 1);
/// assert_eq!(g.num_edges(), 500);
/// ```
pub fn uniform(n: u32, m: u64, seed: u64) -> Csr {
    assert!(n > 0, "uniform graph needs at least one vertex");
    let mut rng = DetRng::new(seed);
    let mut builder = CsrBuilder::new(n);
    for _ in 0..m {
        let s = rng.below(u64::from(n)) as u32;
        let d = rng.below(u64::from(n)) as u32;
        builder = builder.edge(s, d);
    }
    builder.build()
}

/// Generates a weighted variant of [`rmat`]; weights are uniform in
/// `1..=max_weight` (for SSSP).
pub fn rmat_weighted(scale: u32, edge_factor: u32, max_weight: u32, seed: u64) -> Csr {
    let unweighted = rmat(scale, edge_factor, seed);
    let n = unweighted.num_vertices();
    let mut rng = DetRng::new(seed ^ 0x5eed);
    let mut builder = CsrBuilder::new(n);
    for v in 0..n {
        for &t in unweighted.neighbors(v) {
            let w = rng.range_inclusive(1, u64::from(max_weight)) as u32;
            builder = builder.weighted_edge(v, t, w);
        }
    }
    builder.build()
}

/// Generates a 4-connected 2-D grid of `width × height` vertices
/// (bidirectional edges). Grids are the regular-access foil used in tests.
pub fn grid2d(width: u32, height: u32) -> Csr {
    let n = width
        .checked_mul(height)
        .expect("grid dimensions overflow");
    let mut builder = CsrBuilder::new(n);
    let at = |x: u32, y: u32| y * width + x;
    for y in 0..height {
        for x in 0..width {
            let v = at(x, y);
            if x + 1 < width {
                builder = builder.edge(v, at(x + 1, y)).edge(at(x + 1, y), v);
            }
            if y + 1 < height {
                builder = builder.edge(v, at(x, y + 1)).edge(at(x, y + 1), v);
            }
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_deterministic_per_seed() {
        let a = rmat(8, 4, 7);
        let b = rmat(8, 4, 7);
        let c = rmat(8, 4, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rmat_has_heavy_tail() {
        let g = rmat(10, 8, 3);
        let max_deg = (0..g.num_vertices()).map(|v| g.degree(v)).max().unwrap();
        let mean = g.num_edges() / u64::from(g.num_vertices());
        // A power-law graph's max degree far exceeds its mean degree.
        assert!(u64::from(max_deg) > mean * 5, "max {max_deg} mean {mean}");
    }

    #[test]
    fn uniform_counts_and_determinism() {
        let g = uniform(64, 256, 9);
        assert_eq!(g.num_vertices(), 64);
        assert_eq!(g.num_edges(), 256);
        assert_eq!(g, uniform(64, 256, 9));
        g.check_invariants().unwrap();
    }

    #[test]
    fn weighted_rmat_weights_in_range() {
        let g = rmat_weighted(7, 4, 16, 5);
        assert!(g.is_weighted());
        for v in 0..g.num_vertices() {
            for &w in g.weights_of(v) {
                assert!((1..=16).contains(&w));
            }
        }
    }

    #[test]
    fn weighted_rmat_preserves_structure() {
        let g = rmat(7, 4, 5);
        let w = rmat_weighted(7, 4, 16, 5);
        assert_eq!(g.num_edges(), w.num_edges());
        for v in 0..g.num_vertices() {
            assert_eq!(g.neighbors(v), w.neighbors(v));
        }
    }

    #[test]
    fn grid_degrees() {
        let g = grid2d(4, 3);
        assert_eq!(g.num_vertices(), 12);
        // Corner has degree 2, edge 3, interior 4.
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(5), 4);
        g.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid R-MAT probabilities")]
    fn bad_probabilities_panic() {
        let _ = rmat_with(4, 2, 0.9, 0.2, 0.2, 0);
    }

    #[test]
    fn parallel_rmat_is_bit_identical_to_serial() {
        let serial = rmat(9, 6, 13);
        for threads in [1, 2, 3, 5, 8, 16] {
            assert_eq!(serial, rmat_par(9, 6, 13, threads), "threads = {threads}");
        }
        // Thread counts exceeding the edge count degrade gracefully.
        assert_eq!(rmat(2, 1, 3), rmat_par(2, 1, 3, 64));
    }
}
