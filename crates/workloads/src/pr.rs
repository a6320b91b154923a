//! PageRank (push-style, fixed iteration count).
//!
//! Every iteration streams the whole graph: each thread reads its vertex's
//! rank and degree, then scatters contributions to its out-neighbors' next
//! ranks — the classic bandwidth-bound, all-pages-touched irregular kernel.

use crate::common::{thread_centric_spec, warp_item_range, ArrayOptions, GraphArrays};
use crate::stream::{active_span, StreamBuilder};
use batmem_graph::Csr;
use batmem_sim::ops::{BoxedStream, Kernel, KernelSpec, Workload};
use batmem_types::{BlockId, KernelId};
use std::sync::Arc;

/// Default PageRank iteration count for the simulated runs.
pub const DEFAULT_ITERATIONS: u32 = 3;

#[derive(Debug)]
struct Shared {
    graph: Arc<Csr>,
    arrays: GraphArrays,
}

/// The PR workload.
#[derive(Debug, Clone)]
pub struct Pr {
    shared: Arc<Shared>,
    iterations: u32,
}

impl Pr {
    /// Builds PageRank over `graph` with [`DEFAULT_ITERATIONS`] iterations.
    pub fn new(graph: Arc<Csr>) -> Self {
        Self::with_iterations(graph, DEFAULT_ITERATIONS)
    }

    /// Builds PageRank with an explicit iteration count.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero.
    pub fn with_iterations(graph: Arc<Csr>, iterations: u32) -> Self {
        assert!(iterations > 0, "PageRank needs at least one iteration");
        // vprops: [0] rank, [1] next rank, [2] out-degree.
        let arrays =
            GraphArrays::new(&graph, ArrayOptions { weights: false, coo: false, vprops: 3 });
        Self { shared: Arc::new(Shared { graph, arrays }), iterations }
    }
}

impl Workload for Pr {
    fn name(&self) -> String {
        "PR".to_string()
    }

    fn footprint_bytes(&self) -> u64 {
        self.shared.arrays.footprint_bytes()
    }

    fn num_kernels(&self) -> u32 {
        self.iterations
    }

    fn kernel(&self, k: KernelId) -> Box<dyn Kernel> {
        assert!(k.index() < self.iterations as usize, "kernel {k} out of range");
        Box::new(PrKernel { shared: Arc::clone(&self.shared), iter: k.index() as u32 })
    }
}

struct PrKernel {
    shared: Arc<Shared>,
    iter: u32,
}

impl Kernel for PrKernel {
    fn spec(&self) -> KernelSpec {
        thread_centric_spec(u64::from(self.shared.graph.num_vertices()))
    }

    fn warp_stream(&self, block: BlockId, warp_in_block: u16) -> BoxedStream {
        let sh = &self.shared;
        let mut b = StreamBuilder::new();
        let total = u64::from(sh.graph.num_vertices());
        let (s, e) = warp_item_range(block, warp_in_block, total);
        // Ping-pong rank buffers across iterations.
        let (cur, next) = if self.iter.is_multiple_of(2) { (0, 1) } else { (1, 0) };
        if s < e {
            b.load_seq(&sh.arrays.vprops[cur], s, e - s);
            b.load_seq(&sh.arrays.vprops[2], s, e - s); // degrees
            b.load_seq(&sh.arrays.offsets, s, e - s + 1);
            b.compute(8);
        }
        let items = active_span(s..e, |v| sh.graph.degree(v as u32) > 0);
        b.each_item(sh, items, move |sh, b, v, _| {
            let v = v as u32;
            let deg = sh.graph.degree(v);
            if deg == 0 {
                return;
            }
            b.load_seq(&sh.arrays.edges, sh.graph.edge_start(v), u64::from(deg));
            // Push contributions: divergent scatter to next ranks.
            let nbrs = sh.graph.neighbors(v);
            b.store_gather(&sh.arrays.vprops[next], nbrs.iter().map(|&n| u64::from(n)));
            b.compute(1 + deg / 8);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batmem_graph::gen;

    #[test]
    fn iteration_count_is_kernel_count() {
        let g = Arc::new(gen::rmat(7, 6, 4));
        let w = Pr::with_iterations(Arc::clone(&g), 5);
        assert_eq!(w.num_kernels(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panics() {
        let _ = Pr::with_iterations(Arc::new(gen::rmat(4, 2, 0)), 0);
    }

    #[test]
    fn every_iteration_streams_all_edges() {
        let g = Arc::new(gen::rmat(7, 6, 4));
        let w = Pr::new(Arc::clone(&g));
        let k = w.kernel(KernelId::new(0));
        let spec = k.spec();
        let mut edge_lines = 0u64;
        let edges = w.shared.arrays.edges;
        for blk in 0..spec.num_blocks {
            for warp in 0..8 {
                let mut s = k.warp_stream(BlockId::new(blk), warp);
                while let Some(op) = s.next_op() {
                    edge_lines += op
                        .addrs()
                        .iter()
                        .filter(|a| {
                            a.raw() >= edges.base().raw()
                                && a.raw() < edges.base().raw() + edges.size_bytes()
                        })
                        .count() as u64;
                }
            }
        }
        // Every edge array line should be touched at least once: E * 4 B /
        // 128 B lines (adjacency runs may split across ops but not skip).
        let expected_min = g.num_edges() * 4 / 128;
        assert!(edge_lines >= expected_min, "{edge_lines} < {expected_min}");
    }

    #[test]
    fn iterations_alternate_rank_buffers() {
        let g = Arc::new(gen::rmat(6, 4, 4));
        let w = Pr::with_iterations(Arc::clone(&g), 2);
        let rank_a = w.shared.arrays.vprops[0];
        let first_op_of = |iter: u32| {
            let k = w.kernel(KernelId::new(iter));
            let mut s = k.warp_stream(BlockId::new(0), 0);
            s.next_op().unwrap()
        };
        let a0 = first_op_of(0).addrs()[0];
        let a1 = first_op_of(1).addrs()[0];
        assert_eq!(a0, rank_a.base());
        assert_ne!(a1, rank_a.base());
    }
}
