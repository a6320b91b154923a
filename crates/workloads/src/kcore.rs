//! K-core decomposition by iterative peeling (topological).
//!
//! Each peel round scans all vertices, removes those whose remaining degree
//! fell below the current `k`, and decrements their neighbors' degrees —
//! divergent scatter stores, like the GraphBIG KCORE kernel.

use crate::common::{thread_centric_spec, warp_item_range, ArrayOptions, GraphArrays};
use crate::stream::{active_span, StreamBuilder};
use batmem_graph::{alg, Csr};
use batmem_sim::ops::{BoxedStream, Kernel, KernelSpec, Workload};
use batmem_types::{BlockId, KernelId};
use std::sync::Arc;

#[derive(Debug)]
struct Shared {
    graph: Arc<Csr>,
    /// Peel round in which each vertex is removed.
    removed_round: Vec<u32>,
    rounds: usize,
    arrays: GraphArrays,
}

/// The KCORE workload.
#[derive(Debug, Clone)]
pub struct Kcore {
    shared: Arc<Shared>,
}

impl Kcore {
    /// Builds KCORE over (the symmetrized closure of) `graph` — core
    /// numbers are an undirected notion.
    pub fn new(graph: Arc<Csr>) -> Self {
        let sym = Arc::new(graph.symmetrized());
        let res = alg::kcore(&sym);
        let mut removed_round = vec![u32::MAX; sym.num_vertices() as usize];
        for (r, round) in res.peel_rounds.iter().enumerate() {
            for &v in round {
                removed_round[v as usize] = r as u32;
            }
        }
        // vprops: [0] remaining degree, [1] removed flag.
        let arrays = GraphArrays::new(&sym, ArrayOptions { weights: false, coo: false, vprops: 2 });
        Self {
            shared: Arc::new(Shared {
                graph: sym,
                removed_round,
                rounds: res.peel_rounds.len(),
                arrays,
            }),
        }
    }
}

impl Workload for Kcore {
    fn name(&self) -> String {
        "KCORE".to_string()
    }

    fn footprint_bytes(&self) -> u64 {
        self.shared.arrays.footprint_bytes()
    }

    fn num_kernels(&self) -> u32 {
        self.shared.rounds as u32
    }

    fn kernel(&self, k: KernelId) -> Box<dyn Kernel> {
        assert!(k.index() < self.shared.rounds, "kernel {k} out of range");
        Box::new(KcoreKernel { shared: Arc::clone(&self.shared), round: k.index() as u32 })
    }
}

struct KcoreKernel {
    shared: Arc<Shared>,
    round: u32,
}

impl Kernel for KcoreKernel {
    fn spec(&self) -> KernelSpec {
        thread_centric_spec(u64::from(self.shared.graph.num_vertices()))
    }

    fn warp_stream(&self, block: BlockId, warp_in_block: u16) -> BoxedStream {
        let sh = &self.shared;
        let mut b = StreamBuilder::new();
        let total = u64::from(sh.graph.num_vertices());
        let (s, e) = warp_item_range(block, warp_in_block, total);
        if s < e {
            // Scan: removed flags and remaining degrees, coalesced.
            b.load_seq(&sh.arrays.vprops[1], s, e - s);
            b.load_seq(&sh.arrays.vprops[0], s, e - s);
            b.compute(4);
        }
        let round = self.round;
        let items = active_span(s..e, |v| sh.removed_round[v as usize] == round);
        b.each_item(sh, items, move |sh, b, v, _| {
            if sh.removed_round[v as usize] != round {
                return;
            }
            let v = v as u32;
            let deg = sh.graph.degree(v);
            b.store_seq(&sh.arrays.vprops[1], u64::from(v), 1);
            if deg > 0 {
                b.load_seq(&sh.arrays.offsets, u64::from(v), 2);
                b.load_seq(&sh.arrays.edges, sh.graph.edge_start(v), u64::from(deg));
                // Decrement neighbor degrees: divergent scatter.
                let nbrs = sh.graph.neighbors(v);
                b.load_gather(&sh.arrays.vprops[0], nbrs.iter().map(|&n| u64::from(n)));
                b.store_gather(&sh.arrays.vprops[0], nbrs.iter().map(|&n| u64::from(n)));
            }
            b.compute(2 + deg / 8);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batmem_graph::gen;

    #[test]
    fn covers_every_vertex_exactly_once_across_rounds() {
        let w = Kcore::new(Arc::new(gen::rmat(7, 6, 9)));
        let counted = w.shared.removed_round.iter().filter(|&&r| r != u32::MAX).count();
        assert_eq!(counted, w.shared.graph.num_vertices() as usize);
        assert!(w.num_kernels() >= 1);
    }

    #[test]
    fn rounds_generate_scatter_stores() {
        let w = Kcore::new(Arc::new(gen::rmat(7, 6, 9)));
        let k = w.kernel(KernelId::new(0));
        let spec = k.spec();
        let mut stores = 0;
        for blk in 0..spec.num_blocks {
            for warp in 0..8 {
                let mut s = k.warp_stream(BlockId::new(blk), warp);
                while let Some(op) = s.next_op() {
                    if matches!(op, batmem_sim::ops::WarpOp::Store(_)) {
                        stores += 1;
                    }
                }
            }
        }
        assert!(stores > 0, "peel round 0 wrote nothing");
    }
}
