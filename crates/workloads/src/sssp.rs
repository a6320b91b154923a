//! SSSP-TWC: single-source shortest paths, topological warp-centric.
//!
//! Bellman-Ford-style relaxation rounds over a weighted graph; each warp
//! owns one vertex per round and relaxes its out-edges cooperatively if the
//! vertex's distance improved in the previous round.

use crate::common::{warp_centric_spec, warp_item, ArrayOptions, GraphArrays};
use crate::stream::StreamBuilder;
use batmem_graph::{alg, Csr};
use batmem_sim::ops::{BoxedStream, Kernel, KernelSpec, Workload};
use batmem_types::{BlockId, KernelId};
use std::sync::Arc;

/// The vertices whose distance improved in one round, as a bitset: it is
/// queried once per warp and once per relaxed neighbour.
#[derive(Debug)]
struct RoundSet {
    words: Vec<u64>,
}

impl RoundSet {
    fn new(num_vertices: u32, vertices: &[u32]) -> Self {
        let mut words = vec![0u64; (num_vertices as usize).div_ceil(64)];
        for &v in vertices {
            words[v as usize / 64] |= 1 << (v % 64);
        }
        Self { words }
    }

    fn contains(&self, v: u32) -> bool {
        self.words.get(v as usize / 64).is_some_and(|w| w >> (v % 64) & 1 == 1)
    }
}

#[derive(Debug)]
struct Shared {
    graph: Arc<Csr>, // weighted
    /// The vertices each relaxation round activates.
    active_in_round: Vec<RoundSet>,
    arrays: GraphArrays,
}

/// The SSSP-TWC workload.
#[derive(Debug, Clone)]
pub struct SsspTwc {
    shared: Arc<Shared>,
}

impl SsspTwc {
    /// Builds SSSP over `graph`. Unweighted inputs get deterministic
    /// pseudo-random weights in `1..=15` (GraphBIG's SSSP is weighted; the
    /// weights change which rounds relax which vertices, distinguishing it
    /// from BFS).
    pub fn new(graph: Arc<Csr>) -> Self {
        let weighted = if graph.is_weighted() {
            graph
        } else {
            // Each weight hashes (vertex, position in its run), so the
            // weights fill in CSR order over the unchanged structure.
            let mut weights = Vec::with_capacity(graph.edges().len());
            for v in 0..graph.num_vertices() {
                weights.extend((0..u64::from(graph.degree(v))).map(|i| {
                    let h = (u64::from(v).wrapping_mul(0x9E37_79B9)) ^ i.wrapping_mul(0x85EB_CA6B);
                    (h % 15 + 1) as u32
                }));
            }
            Arc::new(Arc::unwrap_or_clone(graph).with_weights(weights))
        };
        let src = weighted.max_degree_vertex();
        let res = alg::sssp(&weighted, src);
        let active_in_round =
            res.rounds.iter().map(|r| RoundSet::new(weighted.num_vertices(), r)).collect();
        // vprops: [0] distances.
        let arrays =
            GraphArrays::new(&weighted, ArrayOptions { weights: true, coo: false, vprops: 1 });
        Self { shared: Arc::new(Shared { graph: weighted, active_in_round, arrays }) }
    }
}

impl Workload for SsspTwc {
    fn name(&self) -> String {
        "SSSP-TWC".to_string()
    }

    fn footprint_bytes(&self) -> u64 {
        self.shared.arrays.footprint_bytes()
    }

    fn num_kernels(&self) -> u32 {
        self.shared.active_in_round.len() as u32
    }

    fn kernel(&self, k: KernelId) -> Box<dyn Kernel> {
        assert!(k.index() < self.shared.active_in_round.len(), "kernel {k} out of range");
        Box::new(SsspKernel { shared: Arc::clone(&self.shared), round: k.index() })
    }
}

struct SsspKernel {
    shared: Arc<Shared>,
    round: usize,
}

impl Kernel for SsspKernel {
    fn spec(&self) -> KernelSpec {
        warp_centric_spec(u64::from(self.shared.graph.num_vertices()), 32)
    }

    fn warp_stream(&self, block: BlockId, warp_in_block: u16) -> BoxedStream {
        let sh = &self.shared;
        let mut b = StreamBuilder::new();
        let total = u64::from(sh.graph.num_vertices());
        if let Some(v) = warp_item(block, warp_in_block, 32, total) {
            // Topological: test whether this vertex relaxed last round.
            b.load_seq(&sh.arrays.vprops[0], v, 1);
            b.compute(4);
            if sh.active_in_round[self.round].contains(v as u32) {
                let v = v as u32;
                let deg = sh.graph.degree(v);
                b.load_seq(&sh.arrays.offsets, u64::from(v), 2);
                if deg > 0 {
                    let start = sh.graph.edge_start(v);
                    b.load_seq(&sh.arrays.edges, start, u64::from(deg));
                    let weights = sh.arrays.weights.as_ref().expect("SSSP is weighted");
                    b.load_seq(weights, start, u64::from(deg));
                    let nbrs = sh.graph.neighbors(v);
                    b.load_gather(&sh.arrays.vprops[0], nbrs.iter().map(|&n| u64::from(n)));
                    // Relaxations that succeed this round write back (an
                    // empty gather appends nothing).
                    if let Some(next) = sh.active_in_round.get(self.round + 1) {
                        let improved = nbrs.iter().filter(|&&n| next.contains(n));
                        b.store_gather(&sh.arrays.vprops[0], improved.map(|&n| u64::from(n)));
                    }
                    b.compute(2 + deg / 8);
                }
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batmem_graph::gen;

    #[test]
    fn synthesizes_weights_deterministically() {
        let g = Arc::new(gen::rmat(7, 6, 2));
        let a = SsspTwc::new(Arc::clone(&g));
        let b = SsspTwc::new(Arc::clone(&g));
        assert!(a.shared.graph.is_weighted());
        assert_eq!(a.shared.graph, b.shared.graph);
        assert_eq!(a.num_kernels(), b.num_kernels());
    }

    #[test]
    fn weighted_graph_equals_a_builder_rebuild() {
        // The reference: rebuild the graph edge by edge through a second
        // `CsrBuilder`, attaching each weight as it goes.
        let g = Arc::new(gen::rmat(9, 8, 4));
        let mut b = batmem_graph::CsrBuilder::new(g.num_vertices());
        for v in 0..g.num_vertices() {
            for (i, &t) in g.neighbors(v).iter().enumerate() {
                let h =
                    (u64::from(v).wrapping_mul(0x9E37_79B9)) ^ (i as u64).wrapping_mul(0x85EB_CA6B);
                b = b.weighted_edge(v, t, (h % 15 + 1) as u32);
            }
        }
        let w = SsspTwc::new(Arc::clone(&g));
        assert_eq!(*w.shared.graph, b.build());
    }

    #[test]
    fn weighted_rounds_differ_from_bfs_levels() {
        let g = Arc::new(gen::rmat(9, 8, 2));
        let w = SsspTwc::new(Arc::clone(&g));
        let bfs = alg::bfs(&g, g.max_degree_vertex());
        // Weighted relaxation usually needs more rounds than BFS depth.
        assert!(w.num_kernels() as usize >= bfs.frontiers.len());
    }

    #[test]
    fn round_zero_relaxes_only_the_source() {
        let g = Arc::new(gen::rmat(7, 6, 2));
        let w = SsspTwc::new(Arc::clone(&g));
        let round0 = &w.shared.active_in_round[0];
        assert_eq!(round0.words.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert!(round0.contains(g.max_degree_vertex()));
        let kernel = w.kernel(KernelId::new(0));
        // Every warp still issues the topological check load.
        let mut s = kernel.warp_stream(BlockId::new(0), 0);
        assert!(s.next_op().is_some());
    }

    #[test]
    fn weight_array_is_read() {
        let g = Arc::new(gen::rmat(7, 6, 2));
        let w = SsspTwc::new(Arc::clone(&g));
        let weights = w.shared.arrays.weights.unwrap();
        let mut touched = false;
        for k in 0..w.num_kernels() {
            let kernel = w.kernel(KernelId::new(k));
            let spec = kernel.spec();
            for blk in 0..spec.num_blocks {
                for warp in 0..8 {
                    let mut s = kernel.warp_stream(BlockId::new(blk), warp);
                    while let Some(op) = s.next_op() {
                        if op.addrs().iter().any(|a| {
                            a.raw() >= weights.base().raw()
                                && a.raw() < weights.base().raw() + weights.size_bytes()
                        }) {
                            touched = true;
                        }
                    }
                }
            }
        }
        assert!(touched, "weights never read");
    }
}
