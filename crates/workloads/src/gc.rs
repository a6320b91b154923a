//! Graph-coloring workloads (Jones-Plassmann rounds).
//!
//! Two GraphBIG implementations are modeled:
//!
//! * **GC-DTC** (data-thread-centric): each round launches over a compacted
//!   worklist of still-uncolored vertices, so offset reads diverge;
//! * **GC-TTC** (topological-thread-centric): each round scans all vertices.
//!
//! Coloring requires symmetric adjacency, so the workload colors the
//! symmetrized closure of the input graph (this also grows the edge
//! footprint, as GraphBIG's undirected CSR does).

use crate::common::{thread_centric_spec, warp_item_range, ArrayOptions, GraphArrays};
use crate::stream::{active_span, ItemBuilder, StreamBuilder};
use batmem_graph::{alg, Csr};
use batmem_sim::ops::{BoxedStream, Kernel, KernelSpec, Workload};
use batmem_types::{BlockId, KernelId};
use std::sync::Arc;

/// Which coloring implementation to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcVariant {
    /// Data-thread-centric (worklist-driven).
    Dtc,
    /// Topological-thread-centric (full scans).
    Ttc,
}

impl GcVariant {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            GcVariant::Dtc => "GC-DTC",
            GcVariant::Ttc => "GC-TTC",
        }
    }
}

#[derive(Debug)]
struct Shared {
    graph: Arc<Csr>, // symmetrized
    /// Round in which each vertex is colored.
    colored_round: Vec<u32>,
    /// Worklist per round (vertices still uncolored at round start).
    worklists: Vec<Vec<u32>>,
    arrays: GraphArrays,
}

/// A graph-coloring workload instance.
#[derive(Debug, Clone)]
pub struct Gc {
    variant: GcVariant,
    shared: Arc<Shared>,
}

impl Gc {
    /// Builds the coloring workload over (the symmetrized closure of)
    /// `graph`.
    pub fn new(variant: GcVariant, graph: Arc<Csr>) -> Self {
        let sym = Arc::new(graph.symmetrized());
        let res = alg::coloring(&sym);
        let n = sym.num_vertices() as usize;
        let mut colored_round = vec![u32::MAX; n];
        for (r, round) in res.rounds.iter().enumerate() {
            for &v in round {
                colored_round[v as usize] = r as u32;
            }
        }
        // Worklist for round r: vertices whose coloring round is >= r.
        let mut worklists = Vec::with_capacity(res.rounds.len());
        let mut current: Vec<u32> = (0..sym.num_vertices()).collect();
        for r in 0..res.rounds.len() as u32 {
            worklists.push(current.clone());
            current.retain(|&v| colored_round[v as usize] > r);
        }
        // vprops: [0] colors, [1] random priorities.
        let arrays = GraphArrays::new(&sym, ArrayOptions { weights: false, coo: false, vprops: 2 });
        Self { variant, shared: Arc::new(Shared { graph: sym, colored_round, worklists, arrays }) }
    }
}

impl Workload for Gc {
    fn name(&self) -> String {
        self.variant.name().to_string()
    }

    fn footprint_bytes(&self) -> u64 {
        self.shared.arrays.footprint_bytes()
    }

    fn num_kernels(&self) -> u32 {
        self.shared.worklists.len() as u32
    }

    fn kernel(&self, k: KernelId) -> Box<dyn Kernel> {
        assert!(k.index() < self.shared.worklists.len(), "kernel {k} out of range");
        Box::new(GcKernel {
            variant: self.variant,
            shared: Arc::clone(&self.shared),
            round: k.index() as u32,
        })
    }
}

struct GcKernel {
    variant: GcVariant,
    shared: Arc<Shared>,
    round: u32,
}

impl Shared {
    /// One vertex's body in `round`: read neighbor colors and priorities;
    /// if the vertex wins (it is colored this round), store its color.
    fn process(&self, b: &mut ItemBuilder<'_>, v: u32, round: u32) {
        let deg = self.graph.degree(v);
        if deg > 0 {
            b.load_seq(&self.arrays.edges, self.graph.edge_start(v), u64::from(deg));
            let nbrs = self.graph.neighbors(v);
            b.load_gather(&self.arrays.vprops[0], nbrs.iter().map(|&n| u64::from(n)));
            b.load_gather(&self.arrays.vprops[1], nbrs.iter().map(|&n| u64::from(n)));
        }
        if self.colored_round[v as usize] == round {
            b.store_seq(&self.arrays.vprops[0], u64::from(v), 1);
        }
        b.compute(4 + deg / 8);
    }
}

impl Kernel for GcKernel {
    fn spec(&self) -> KernelSpec {
        match self.variant {
            GcVariant::Dtc => {
                thread_centric_spec(self.shared.worklists[self.round as usize].len() as u64)
            }
            GcVariant::Ttc => thread_centric_spec(u64::from(self.shared.graph.num_vertices())),
        }
    }

    fn warp_stream(&self, block: BlockId, warp_in_block: u16) -> BoxedStream {
        let sh = &self.shared;
        let round = self.round;
        let mut b = StreamBuilder::new();
        match self.variant {
            GcVariant::Dtc => {
                let wl = &sh.worklists[round as usize];
                let (s, e) = warp_item_range(block, warp_in_block, wl.len() as u64);
                if s < e {
                    b.load_seq(&sh.arrays.worklist, s, e - s);
                    let verts = &wl[s as usize..e as usize];
                    // Scattered worklist entries: divergent offset reads.
                    b.load_gather(&sh.arrays.offsets, verts.iter().map(|&v| u64::from(v)));
                }
                b.each_item(sh, s..e, move |sh, b, i, _| {
                    let v = sh.worklists[round as usize][i as usize];
                    sh.process(b, v, round);
                })
            }
            GcVariant::Ttc => {
                let total = u64::from(sh.graph.num_vertices());
                let (s, e) = warp_item_range(block, warp_in_block, total);
                if s < e {
                    // Scan: read own color to test "still uncolored".
                    b.load_seq(&sh.arrays.vprops[0], s, e - s);
                }
                let items = active_span(s..e, |v| sh.colored_round[v as usize] >= round);
                let first = items.start;
                b.each_item(sh, items, move |sh, b, v, _| {
                    if sh.colored_round[v as usize] < round {
                        return;
                    }
                    if v == first {
                        b.load_seq(&sh.arrays.offsets, s, e - s + 1);
                    }
                    sh.process(b, v as u32, round);
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batmem_graph::gen;

    fn graph() -> Arc<Csr> {
        Arc::new(gen::rmat(7, 6, 5))
    }

    #[test]
    fn worklists_shrink_monotonically() {
        let w = Gc::new(GcVariant::Dtc, graph());
        let sh = &w.shared;
        for pair in sh.worklists.windows(2) {
            assert!(pair[1].len() < pair[0].len());
        }
        assert_eq!(sh.worklists[0].len(), sh.graph.num_vertices() as usize);
    }

    #[test]
    fn kernels_cover_all_rounds_and_produce_ops() {
        for v in [GcVariant::Dtc, GcVariant::Ttc] {
            let w = Gc::new(v, graph());
            assert!(w.num_kernels() >= 1);
            let k = w.kernel(KernelId::new(0));
            let mut stream = k.warp_stream(BlockId::new(0), 0);
            assert!(stream.next_op().is_some(), "{} round 0 idle", w.name());
        }
    }

    #[test]
    fn dtc_grid_shrinks_with_worklist() {
        let w = Gc::new(GcVariant::Dtc, graph());
        let first = w.kernel(KernelId::new(0)).spec().num_blocks;
        let last = w.kernel(KernelId::new(w.num_kernels() - 1)).spec().num_blocks;
        assert!(last <= first);
    }

    #[test]
    fn ttc_grid_is_constant() {
        let w = Gc::new(GcVariant::Ttc, graph());
        let n = w.shared.graph.num_vertices().div_ceil(256);
        for k in 0..w.num_kernels() {
            assert_eq!(w.kernel(KernelId::new(k)).spec().num_blocks, n);
        }
    }
}
