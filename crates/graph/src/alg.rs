//! Reference graph algorithms.
//!
//! The workloads crate models GraphBIG kernels as memory access streams; to
//! generate the *correct* stream for iteration `i` of an iterative algorithm
//! (e.g. which vertices are on the BFS frontier at level `i`), it needs the
//! algorithm's actual intermediate state. These functions compute that state
//! — they are full, tested implementations of the algorithms themselves.

use crate::csr::Csr;

/// Result of a breadth-first search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    /// Level of each vertex (`u32::MAX` if unreached).
    pub levels: Vec<u32>,
    /// Vertices of each level, in ascending vertex order (level 0 = source).
    pub frontiers: Vec<Vec<u32>>,
}

/// Breadth-first search from `src`.
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn bfs(g: &Csr, src: u32) -> BfsResult {
    assert!(src < g.num_vertices(), "bfs source out of range");
    let mut levels = vec![u32::MAX; g.num_vertices() as usize];
    levels[src as usize] = 0;
    let mut frontiers = vec![vec![src]];
    loop {
        let cur = frontiers.last().unwrap();
        let depth = frontiers.len() as u32;
        let mut next = Vec::new();
        for &v in cur {
            for &t in g.neighbors(v) {
                let slot = &mut levels[t as usize];
                if *slot == u32::MAX {
                    *slot = depth;
                    next.push(t);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        next.sort_unstable();
        next.dedup();
        frontiers.push(next);
    }
    BfsResult { levels, frontiers }
}

/// Result of single-source shortest paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsspResult {
    /// Distance of each vertex (`u64::MAX` if unreached).
    pub dist: Vec<u64>,
    /// Active vertex set of each relaxation round (round 0 = `{src}`).
    pub rounds: Vec<Vec<u32>>,
}

/// Frontier-based Bellman-Ford from `src` (the structure GraphBIG's
/// topological SSSP kernels execute: each round relaxes the out-edges of
/// the vertices whose distance improved in the previous round).
///
/// Unweighted graphs use unit edge weights.
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn sssp(g: &Csr, src: u32) -> SsspResult {
    assert!(src < g.num_vertices(), "sssp source out of range");
    let mut dist = vec![u64::MAX; g.num_vertices() as usize];
    dist[src as usize] = 0;
    let mut rounds = vec![vec![src]];
    loop {
        let cur = rounds.last().unwrap();
        let mut improved = Vec::new();
        for &v in cur {
            let dv = dist[v as usize];
            let weights = g.weights_of(v);
            for (i, &t) in g.neighbors(v).iter().enumerate() {
                let w = if weights.is_empty() { 1 } else { u64::from(weights[i]) };
                let cand = dv.saturating_add(w);
                if cand < dist[t as usize] {
                    dist[t as usize] = cand;
                    improved.push(t);
                }
            }
        }
        if improved.is_empty() {
            break;
        }
        improved.sort_unstable();
        improved.dedup();
        rounds.push(improved);
    }
    SsspResult { dist, rounds }
}

/// PageRank with damping 0.85 for a fixed number of iterations.
///
/// Dangling-vertex mass is redistributed uniformly, so each iteration's
/// ranks sum to 1 (within floating-point error).
pub fn pagerank(g: &Csr, iterations: u32) -> Vec<f64> {
    let n = g.num_vertices() as usize;
    if n == 0 {
        return Vec::new();
    }
    const D: f64 = 0.85;
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        next.iter_mut().for_each(|x| *x = 0.0);
        let mut dangling = 0.0;
        for (v, &r) in rank.iter().enumerate() {
            let deg = g.degree(v as u32);
            if deg == 0 {
                dangling += r;
                continue;
            }
            let share = r / f64::from(deg);
            for &t in g.neighbors(v as u32) {
                next[t as usize] += share;
            }
        }
        let base = (1.0 - D) / n as f64 + D * dangling / n as f64;
        for x in next.iter_mut() {
            *x = base + D * *x;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Result of k-core decomposition by iterative peeling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KcoreResult {
    /// Core number of each vertex (treating edges as undirected out-degree).
    pub coreness: Vec<u32>,
    /// Vertices removed in each peel round.
    pub peel_rounds: Vec<Vec<u32>>,
}

/// K-core decomposition: repeatedly remove all vertices whose remaining
/// degree is below the current `k`, raising `k` when the graph stabilizes.
///
/// The rounds recorded are exactly the passes a GPU topological KCORE kernel
/// makes over the vertex set.
pub fn kcore(g: &Csr) -> KcoreResult {
    let n = g.num_vertices() as usize;
    let mut deg: Vec<u32> = (0..g.num_vertices()).map(|v| g.degree(v)).collect();
    let mut removed = vec![false; n];
    let mut coreness = vec![0u32; n];
    let mut peel_rounds = Vec::new();
    let mut k = 1u32;
    let mut remaining = n;
    while remaining > 0 {
        let round: Vec<u32> =
            (0..n as u32).filter(|&v| !removed[v as usize] && deg[v as usize] < k).collect();
        if round.is_empty() {
            k += 1;
            continue;
        }
        for &v in &round {
            removed[v as usize] = true;
            coreness[v as usize] = k - 1;
            remaining -= 1;
            for &t in g.neighbors(v) {
                if !removed[t as usize] && deg[t as usize] > 0 {
                    deg[t as usize] -= 1;
                }
            }
        }
        peel_rounds.push(round);
    }
    KcoreResult { coreness, peel_rounds }
}

/// Result of greedy parallel graph coloring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColoringResult {
    /// Color assigned to each vertex.
    pub colors: Vec<u32>,
    /// Vertices colored in each Jones-Plassmann round.
    pub rounds: Vec<Vec<u32>>,
}

/// Jones-Plassmann greedy coloring with (hashed) random priorities: each
/// round, every uncolored vertex whose priority is a local maximum among
/// uncolored neighbors takes the smallest color unused by its neighbors.
///
/// Random priorities give the expected `O(log n)` round count (id
/// priorities degenerate into near-sequential chains on power-law graphs).
/// The coloring is proper only if the graph's adjacency is symmetric; use
/// [`Csr::symmetrized`] on directed inputs first.
pub fn coloring(g: &Csr) -> ColoringResult {
    let n = g.num_vertices() as usize;
    const UNCOLORED: u32 = u32::MAX;
    // Deterministic pseudo-random priority; ties broken by id form a total
    // order, so every round has a global (hence local) maximum.
    let prio = |v: u32| (v.wrapping_mul(0x9E37_79B9).rotate_left(16) ^ 0x85EB_CA6B, v);
    let mut colors = vec![UNCOLORED; n];
    let mut rounds = Vec::new();
    let mut uncolored = n;
    while uncolored > 0 {
        let mut round = Vec::new();
        for v in 0..n as u32 {
            if colors[v as usize] != UNCOLORED {
                continue;
            }
            let is_max = g
                .neighbors(v)
                .iter()
                .all(|&t| t == v || colors[t as usize] != UNCOLORED || prio(t) < prio(v));
            if is_max {
                round.push(v);
            }
        }
        // Isolated progress guarantee: the global max uncolored id is
        // always a local max, so each round is nonempty.
        assert!(!round.is_empty(), "coloring failed to make progress");
        for &v in &round {
            let mut used: Vec<u32> = g
                .neighbors(v)
                .iter()
                .map(|&t| colors[t as usize])
                .filter(|&c| c != UNCOLORED)
                .collect();
            used.sort_unstable();
            used.dedup();
            let mut c = 0u32;
            for u in used {
                if u == c {
                    c += 1;
                } else if u > c {
                    break;
                }
            }
            colors[v as usize] = c;
            uncolored -= 1;
        }
        rounds.push(round);
    }
    ColoringResult { colors, rounds }
}

/// Result of Brandes betweenness centrality from one source.
#[derive(Debug, Clone, PartialEq)]
pub struct BcResult {
    /// Partial betweenness (dependency) scores accumulated from the source.
    pub scores: Vec<f64>,
    /// Forward BFS frontiers (reused by the workload's forward phase).
    pub forward: BfsResult,
}

/// One source iteration of Brandes' betweenness centrality: forward BFS
/// computing shortest-path counts, then backward dependency accumulation
/// level by level.
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn betweenness(g: &Csr, src: u32) -> BcResult {
    let n = g.num_vertices() as usize;
    let forward = bfs(g, src);
    let mut sigma = vec![0.0f64; n];
    sigma[src as usize] = 1.0;
    for frontier in &forward.frontiers {
        for &v in frontier {
            let lv = forward.levels[v as usize];
            for &t in g.neighbors(v) {
                if forward.levels[t as usize] == lv + 1 {
                    sigma[t as usize] += sigma[v as usize];
                }
            }
        }
    }
    let mut delta = vec![0.0f64; n];
    for frontier in forward.frontiers.iter().rev() {
        for &v in frontier {
            let lv = forward.levels[v as usize];
            for &t in g.neighbors(v) {
                if forward.levels[t as usize] == lv + 1 && sigma[t as usize] > 0.0 {
                    delta[v as usize] +=
                        sigma[v as usize] / sigma[t as usize] * (1.0 + delta[t as usize]);
                }
            }
        }
    }
    delta[src as usize] = 0.0;
    BcResult { scores: delta, forward }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;
    use crate::gen;

    fn path4() -> Csr {
        // 0 -> 1 -> 2 -> 3 plus reverse edges.
        CsrBuilder::new(4).edges([(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]).build()
    }

    #[test]
    fn bfs_levels_on_path() {
        let r = bfs(&path4(), 0);
        assert_eq!(r.levels, vec![0, 1, 2, 3]);
        assert_eq!(r.frontiers, vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn bfs_unreachable_is_max() {
        let g = CsrBuilder::new(3).edge(0, 1).build();
        let r = bfs(&g, 0);
        assert_eq!(r.levels[2], u32::MAX);
        assert_eq!(r.frontiers.len(), 2);
    }

    #[test]
    fn bfs_frontier_partition_is_consistent() {
        let g = gen::rmat(9, 8, 11);
        let r = bfs(&g, g.max_degree_vertex());
        for (depth, f) in r.frontiers.iter().enumerate() {
            for &v in f {
                assert_eq!(r.levels[v as usize] as usize, depth);
            }
        }
        let total: usize = r.frontiers.iter().map(Vec::len).sum();
        let reached = r.levels.iter().filter(|&&l| l != u32::MAX).count();
        assert_eq!(total, reached);
    }

    #[test]
    fn sssp_unweighted_matches_bfs() {
        let g = gen::rmat(8, 6, 2);
        let src = g.max_degree_vertex();
        let b = bfs(&g, src);
        let s = sssp(&g, src);
        for v in 0..g.num_vertices() as usize {
            if b.levels[v] == u32::MAX {
                assert_eq!(s.dist[v], u64::MAX);
            } else {
                assert_eq!(s.dist[v], u64::from(b.levels[v]));
            }
        }
    }

    #[test]
    fn sssp_weighted_triangle_takes_cheap_path() {
        // 0->1 cost 10; 0->2 cost 1; 2->1 cost 1: best 0->2->1 = 2.
        let g = CsrBuilder::new(3)
            .weighted_edge(0, 1, 10)
            .weighted_edge(0, 2, 1)
            .weighted_edge(2, 1, 1)
            .build();
        let s = sssp(&g, 0);
        assert_eq!(s.dist, vec![0, 2, 1]);
    }

    #[test]
    fn pagerank_sums_to_one_and_favors_sinks_of_mass() {
        let g = CsrBuilder::new(3).edges([(0, 2), (1, 2), (2, 2)]).build();
        let r = pagerank(&g, 30);
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        assert!(r[2] > r[0] && r[2] > r[1]);
    }

    #[test]
    fn pagerank_handles_dangling_vertices() {
        let g = CsrBuilder::new(2).edge(0, 1).build(); // 1 is dangling
        let r = pagerank(&g, 50);
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(r[1] > r[0]);
    }

    #[test]
    fn kcore_of_clique_plus_tail() {
        // Triangle 0-1-2 (undirected) with a pendant 3-0.
        let g = CsrBuilder::new(4)
            .edges([(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2), (3, 0), (0, 3)])
            .build();
        let r = kcore(&g);
        assert_eq!(r.coreness[3], 1);
        assert_eq!(r.coreness[0], 2);
        assert_eq!(r.coreness[1], 2);
        assert_eq!(r.coreness[2], 2);
        let removed: usize = r.peel_rounds.iter().map(Vec::len).sum();
        assert_eq!(removed, 4);
    }

    #[test]
    fn coloring_is_proper() {
        let g = gen::rmat(8, 6, 13).symmetrized();
        let r = coloring(&g);
        for v in 0..g.num_vertices() {
            for &t in g.neighbors(v) {
                if t != v {
                    assert_ne!(r.colors[v as usize], r.colors[t as usize], "edge {v}->{t}");
                }
            }
        }
        let colored: usize = r.rounds.iter().map(Vec::len).sum();
        assert_eq!(colored, g.num_vertices() as usize);
    }

    #[test]
    fn betweenness_path_center_dominates() {
        let r = betweenness(&path4(), 0);
        // On the path 0-1-2-3 from source 0, vertex 1 lies on paths to 2 and
        // 3, vertex 2 on the path to 3.
        assert!(r.scores[1] > r.scores[2]);
        assert_eq!(r.scores[0], 0.0);
        assert_eq!(r.scores[3], 0.0);
    }

    #[test]
    fn betweenness_star_center() {
        // Star: 0 connected to 1,2,3 bidirectionally; from source 1 the
        // center 0 carries all dependency.
        let g = CsrBuilder::new(4).edges([(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)]).build();
        let r = betweenness(&g, 1);
        assert!(r.scores[0] > 1.9);
        assert_eq!(r.scores[2], 0.0);
    }
}
