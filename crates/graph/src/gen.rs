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

/// The largest R-MAT scale: vertex ids are `u32`, so a graph holds at
/// most `2^31` vertices.
pub const MAX_SCALE: u32 = 31;

/// [`rmat`] with explicit quadrant probabilities `a`, `b`, `c`
/// (`d = 1 - a - b - c`).
///
/// # Panics
///
/// Panics if the probabilities are not a valid sub-distribution, or if
/// `scale` exceeds [`MAX_SCALE`].
pub fn rmat_with(scale: u32, edge_factor: u32, a: f64, b: f64, c: f64, seed: u64) -> Csr {
    rmat_with_par(scale, edge_factor, a, b, c, seed, 1)
}

/// R-MAT edges over `2^scale` vertices, with the quadrant odds held as
/// integer thresholds on the top 53 bits of a draw.
///
/// The reference formulation draws `r = k · 2^-53` from `k = next_u64() >>
/// 11` and walks `r < a`, `r < a + b`, `r < a + b + c`. Both `k · 2^-53`
/// and `p · 2^53` are exact in `f64` (scaling by a power of two), and `k`
/// is an integer, so `r < p` holds exactly when `k < ceil(p · 2^53)`. The
/// quadrant is therefore the number of thresholds `k` reaches: the same
/// decisions from the same draws, without a data-dependent branch.
///
/// # Examples
///
/// ```
/// use batmem_graph::gen::RmatSampler;
/// use batmem_types::rng::DetRng;
///
/// let sampler = RmatSampler::new(10, 0.57, 0.19, 0.19);
/// let (s, d) = sampler.edge(&mut DetRng::new(7));
/// assert!(s < 1024 && d < 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RmatSampler {
    scale: u32,
    thresholds: [u64; 3],
}

impl RmatSampler {
    /// Edges over `2^scale` vertices with odds `a`, `b`, `c`
    /// (`d = 1 - a - b - c`), as thresholds on the same `f64` sums the
    /// reference formulation compares against.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities are not a valid sub-distribution, or if
    /// `scale` exceeds [`MAX_SCALE`].
    pub fn new(scale: u32, a: f64, b: f64, c: f64) -> Self {
        assert!(
            a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0,
            "invalid R-MAT probabilities"
        );
        assert!(scale <= MAX_SCALE, "R-MAT scale {scale} exceeds {MAX_SCALE}: vertex ids are u32");
        let at = |p: f64| (p * (1u64 << 53) as f64).ceil() as u64;
        Self { scale, thresholds: [at(a), at(a + b), at(a + b + c)] }
    }

    /// One edge. Each level consumes **exactly one draw** and picks
    /// quadrant `q` (0 = `a` … 3 = `d`), shifting `q >> 1` into the source
    /// and `q & 1` into the target, most significant bit first. So an edge
    /// consumes exactly `scale` draws, the invariant [`rmat_par`] relies on
    /// to jump workers to their chunk offsets.
    pub fn edge(&self, rng: &mut DetRng) -> (u32, u32) {
        let [t0, t1, t2] = self.thresholds;
        let (mut s, mut d) = (0u32, 0u32);
        for _ in 0..self.scale {
            let k = rng.next_u64() >> 11;
            let q = u32::from(k >= t0) + u32::from(k >= t1) + u32::from(k >= t2);
            s = (s << 1) | (q >> 1);
            d = (d << 1) | (q & 1);
        }
        (s, d)
    }
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
    let sampler = RmatSampler::new(scale, a, b, c);
    let n: u32 = 1 << scale;
    let m = u64::from(edge_factor) * u64::from(n);
    let mut builder =
        CsrBuilder::with_capacity(n, usize::try_from(m).expect("edge count exceeds usize"));
    if threads <= 1 || m < 2 {
        let mut rng = DetRng::new(seed);
        for _ in 0..m {
            let (s, d) = sampler.edge(&mut rng);
            builder.push_edge(s, d);
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
                    (e0..e1).map(|_| sampler.edge(&mut rng)).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rmat worker panicked")).collect()
    });
    for chunk in chunks {
        for (s, d) in chunk {
            builder.push_edge(s, d);
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
    #[should_panic(expected = "R-MAT scale 32 exceeds 31")]
    fn scales_past_u32_vertex_ids_panic() {
        // Release builds would mask `1 << 32` to a one-vertex graph.
        let _ = rmat(32, 2, 1);
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
