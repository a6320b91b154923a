//! The five GraphBIG breadth-first-search variants.
//!
//! All variants compute the same BFS (host-verified via
//! [`batmem_graph::alg::bfs`]) but with different thread-to-data mappings,
//! which gives them very different divergence and paging behaviour:
//!
//! * **TTC** (topological thread-centric): every kernel scans all vertices;
//!   each *thread* owns one vertex and expands it if it is on the frontier.
//! * **TA** (topological atomic): TTC plus atomic updates to a global
//!   frontier counter (a hot page).
//! * **TF** (topological frontier): kernels launch over a compacted
//!   frontier worklist; offset reads become divergent gathers.
//! * **TWC** (topological warp-centric): each *warp* owns one vertex and
//!   expands its neighbor list cooperatively (coalesced edge reads).
//! * **DWC** (data-warp-centric): warps stride the raw **edge list** (COO),
//!   reading both endpoints' levels — the paper's most divergent variant,
//!   which thrashes pages constantly (§5.2).

use crate::common::{
    thread_centric_spec, warp_centric_spec, warp_item, warp_item_range, ArrayOptions, GraphArrays,
};
use crate::stream::{active_span, StreamBuilder};
use batmem_graph::{alg, Csr};
use batmem_sim::ops::{BoxedStream, Kernel, KernelSpec, PackedWriter, Workload};
use batmem_types::{BlockId, KernelId};
use std::borrow::BorrowMut;
use std::sync::Arc;

/// Which BFS implementation to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BfsVariant {
    /// Data-warp-centric (edge-list strided).
    Dwc,
    /// Topological-atomic.
    Ta,
    /// Topological-frontier.
    Tf,
    /// Topological-thread-centric.
    Ttc,
    /// Topological-warp-centric.
    Twc,
}

impl BfsVariant {
    /// The workload's display name (matches the paper's figures).
    pub fn name(self) -> &'static str {
        match self {
            BfsVariant::Dwc => "BFS-DWC",
            BfsVariant::Ta => "BFS-TA",
            BfsVariant::Tf => "BFS-TF",
            BfsVariant::Ttc => "BFS-TTC",
            BfsVariant::Twc => "BFS-TWC",
        }
    }
}

#[derive(Debug)]
struct Shared {
    graph: Arc<Csr>,
    levels: Vec<u32>,
    frontiers: Vec<Vec<u32>>,
    arrays: GraphArrays,
    /// Per-edge source vertices (DWC only).
    coo_src: Vec<u32>,
}

/// A BFS workload instance.
#[derive(Debug, Clone)]
pub struct Bfs {
    variant: BfsVariant,
    shared: Arc<Shared>,
}

impl Bfs {
    /// Builds the BFS variant over `graph`, rooted at the maximum-degree
    /// vertex (the usual GraphBIG convention for power-law inputs).
    pub fn new(variant: BfsVariant, graph: Arc<Csr>) -> Self {
        let src = graph.max_degree_vertex();
        let res = alg::bfs(&graph, src);
        let opts = match variant {
            BfsVariant::Dwc => ArrayOptions { weights: false, coo: true, vprops: 1 },
            BfsVariant::Tf => ArrayOptions { weights: false, coo: false, vprops: 2 },
            _ => ArrayOptions { weights: false, coo: false, vprops: 1 },
        };
        let arrays = GraphArrays::new(&graph, opts);
        let coo_src = if variant == BfsVariant::Dwc {
            let mut v = Vec::with_capacity(graph.num_edges() as usize);
            for s in 0..graph.num_vertices() {
                v.extend(std::iter::repeat_n(s, graph.degree(s) as usize));
            }
            v
        } else {
            Vec::new()
        };
        Self {
            variant,
            shared: Arc::new(Shared {
                graph,
                levels: res.levels,
                frontiers: res.frontiers,
                arrays,
                coo_src,
            }),
        }
    }

    /// The variant being modeled.
    pub fn variant(&self) -> BfsVariant {
        self.variant
    }
}

impl Workload for Bfs {
    fn name(&self) -> String {
        self.variant.name().to_string()
    }

    fn footprint_bytes(&self) -> u64 {
        self.shared.arrays.footprint_bytes()
    }

    fn num_kernels(&self) -> u32 {
        self.shared.frontiers.len() as u32
    }

    fn kernel(&self, k: KernelId) -> Box<dyn Kernel> {
        assert!(k.index() < self.shared.frontiers.len(), "kernel {k} out of range");
        let level = k.index() as u32;
        let next_pos = match (self.variant, self.shared.frontiers.get(k.index() + 1)) {
            (BfsVariant::Tf, Some(next)) => {
                let mut pos = vec![NOT_NEXT; self.shared.graph.num_vertices() as usize];
                for (i, &v) in next.iter().enumerate() {
                    pos[v as usize] = i as u32;
                }
                pos
            }
            _ => Vec::new(),
        };
        Box::new(BfsKernel {
            variant: self.variant,
            shared: Arc::clone(&self.shared),
            level,
            next_pos: next_pos.into(),
        })
    }
}

/// [`BfsKernel::next_pos`] of a vertex that is not in the next frontier.
const NOT_NEXT: u32 = u32::MAX;

/// The next-frontier positions that the neighbours of `verts` are appended
/// at, in order (none at the last level, where `next_pos` is empty).
fn appended<'a>(
    graph: &'a Csr,
    verts: &'a [u32],
    next_pos: &'a [u32],
) -> impl Iterator<Item = u64> + 'a {
    let nbrs = verts.iter().flat_map(|&v| graph.neighbors(v));
    nbrs.filter_map(|&n| next_pos.get(n as usize).copied())
        .filter(|&pos| pos != NOT_NEXT)
        .map(u64::from)
}

struct BfsKernel {
    variant: BfsVariant,
    shared: Arc<Shared>,
    level: u32,
    /// Position of each vertex in the next frontier's output worklist, or
    /// [`NOT_NEXT`] (TF only; empty otherwise).
    next_pos: Arc<[u32]>,
}

impl Shared {
    /// Emits the expansion of vertex `v` at `level`: edge reads,
    /// neighbor-level gathers, and stores for newly discovered vertices.
    fn expand<W: BorrowMut<PackedWriter>>(&self, b: &mut StreamBuilder<W>, v: u32, level: u32) {
        let deg = self.graph.degree(v);
        b.load_seq(&self.arrays.offsets, u64::from(v), 2);
        if deg == 0 {
            return;
        }
        let start = self.graph.edge_start(v);
        b.load_seq(&self.arrays.edges, start, u64::from(deg));
        let nbrs = self.graph.neighbors(v);
        b.load_gather(&self.arrays.vprops[0], nbrs.iter().map(|&n| u64::from(n)));
        // Newly discovered vertices; an empty gather coalesces to no ops,
        // so no emptiness check (or materialized list) is needed.
        let disc =
            nbrs.iter().filter(|&&n| self.levels[n as usize] == level + 1).map(|&n| u64::from(n));
        b.store_gather(&self.arrays.vprops[0], disc);
        b.compute(2 + deg / 8);
    }
}

impl Kernel for BfsKernel {
    fn spec(&self) -> KernelSpec {
        let sh = &self.shared;
        let v = u64::from(sh.graph.num_vertices());
        match self.variant {
            BfsVariant::Ttc | BfsVariant::Ta => thread_centric_spec(v),
            BfsVariant::Twc => warp_centric_spec(v, 32),
            BfsVariant::Tf => thread_centric_spec(sh.frontiers[self.level as usize].len() as u64),
            // Each DWC thread strides 4 edges.
            BfsVariant::Dwc => thread_centric_spec(sh.graph.num_edges().div_ceil(4)),
        }
    }

    fn warp_stream(&self, block: BlockId, warp_in_block: u16) -> BoxedStream {
        let sh = &self.shared;
        let level = self.level;
        let mut b = StreamBuilder::new();
        match self.variant {
            BfsVariant::Ttc | BfsVariant::Ta => {
                let total = u64::from(sh.graph.num_vertices());
                let (s, e) = warp_item_range(block, warp_in_block, total);
                if s < e {
                    b.load_seq(&sh.arrays.vprops[0], s, e - s);
                    b.compute(4);
                }
                let atomic = self.variant == BfsVariant::Ta;
                // The span's last vertex is on the frontier, so a warp with
                // items has discovered one by then.
                let items = active_span(s..e, |v| sh.levels[v as usize] == level);
                b.each_item(sh, items, move |sh, b, v, last| {
                    if sh.levels[v as usize] == level {
                        sh.expand(b, v as u32, level);
                    }
                    if atomic && last {
                        // Atomic bump of the global frontier counter: a hot
                        // line shared by every warp in the grid.
                        b.store_seq(&sh.arrays.counters, 0, 1);
                    }
                })
            }
            BfsVariant::Twc => {
                let total = u64::from(sh.graph.num_vertices());
                if let Some(v) = warp_item(block, warp_in_block, 32, total) {
                    b.load_seq(&sh.arrays.vprops[0], v, 1);
                    b.compute(4);
                    if sh.levels[v as usize] == level {
                        sh.expand(&mut b, v as u32, level);
                    }
                }
                b.build()
            }
            BfsVariant::Tf => {
                let frontier = &sh.frontiers[level as usize];
                let (s, e) = warp_item_range(block, warp_in_block, frontier.len() as u64);
                // Ping-pong worklists: even levels read `worklist`, odd
                // levels read vprops[1].
                let (cur, next) = if level.is_multiple_of(2) {
                    (sh.arrays.worklist, sh.arrays.vprops[1])
                } else {
                    (sh.arrays.vprops[1], sh.arrays.worklist)
                };
                if s < e {
                    b.load_seq(&cur, s, e - s);
                    let verts = &frontier[s as usize..e as usize];
                    // Frontier vertices are scattered: offset reads diverge.
                    b.load_gather(&sh.arrays.offsets, verts.iter().map(|&v| u64::from(v)));
                    b.compute(4);
                }
                let next_pos = Arc::clone(&self.next_pos);
                let items = active_span(s..e, |i| sh.graph.degree(frontier[i as usize]) > 0);
                let mut appended_any = false;
                b.each_item(sh, items, move |sh, b, i, last| {
                    let frontier = &sh.frontiers[level as usize];
                    let v = frontier[i as usize];
                    let deg = sh.graph.degree(v);
                    if deg > 0 {
                        b.load_seq(&sh.arrays.edges, sh.graph.edge_start(v), u64::from(deg));
                        let nbrs = sh.graph.neighbors(v);
                        b.load_gather(&sh.arrays.vprops[0], nbrs.iter().map(|&n| u64::from(n)));
                        let v = std::slice::from_ref(&v);
                        appended_any |= appended(&sh.graph, v, &next_pos).next().is_some();
                        b.compute(2 + deg / 8);
                    }
                    if last && appended_any {
                        // Atomic index bump, then the scattered appends of
                        // the warp's whole range.
                        let verts = &frontier[s as usize..e as usize];
                        let frontier_next = &sh.frontiers[level as usize + 1];
                        b.store_seq(&sh.arrays.counters, 0, 1);
                        b.store_gather(&next, appended(&sh.graph, verts, &next_pos));
                        b.store_gather(
                            &sh.arrays.vprops[0],
                            appended(&sh.graph, verts, &next_pos)
                                .map(|p| u64::from(frontier_next[p as usize])),
                        );
                    }
                })
            }
            BfsVariant::Dwc => {
                let total_items = sh.graph.num_edges().div_ceil(4);
                let (s, e) = warp_item_range(block, warp_in_block, total_items);
                if s < e {
                    let es = s * 4;
                    let ee = (e * 4).min(sh.graph.num_edges());
                    let n = ee - es;
                    if n > 0 {
                        let coo = sh.arrays.coo_src.as_ref().expect("DWC has COO");
                        b.load_seq(coo, es, n);
                        b.load_seq(&sh.arrays.edges, es, n);
                        b.compute(8);
                        let srcs = &sh.coo_src[es as usize..ee as usize];
                        let dsts = &sh.graph.edges()[es as usize..ee as usize];
                        // Both endpoint gathers are fully divergent.
                        b.load_gather(&sh.arrays.vprops[0], srcs.iter().map(|&v| u64::from(v)));
                        let active: Vec<usize> = (0..srcs.len())
                            .filter(|&i| sh.levels[srcs[i] as usize] == level)
                            .collect();
                        if !active.is_empty() {
                            b.load_gather(
                                &sh.arrays.vprops[0],
                                active.iter().map(|&i| u64::from(dsts[i])),
                            );
                            let disc: Vec<u64> = active
                                .iter()
                                .filter(|&&i| sh.levels[dsts[i] as usize] == level + 1)
                                .map(|&i| u64::from(dsts[i]))
                                .collect();
                            if !disc.is_empty() {
                                b.store_gather(&sh.arrays.vprops[0], disc.iter().copied());
                            }
                        }
                    }
                }
                b.build()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batmem_graph::gen;
    use batmem_sim::ops::WarpOp;

    fn graph() -> Arc<Csr> {
        Arc::new(gen::rmat(8, 8, 3))
    }

    fn total_ops(w: &dyn Workload) -> (u64, u64) {
        let mut mem = 0u64;
        let mut txns = 0u64;
        for k in 0..w.num_kernels() {
            let kernel = w.kernel(KernelId::new(k));
            let spec = kernel.spec();
            for blk in 0..spec.num_blocks {
                for warp in 0..spec.warps_per_block(32) {
                    let mut s = kernel.warp_stream(BlockId::new(blk), warp as u16);
                    while let Some(op) = s.next_op() {
                        if op.is_mem() {
                            mem += 1;
                            txns += op.addrs().len() as u64;
                        }
                    }
                }
            }
        }
        (mem, txns)
    }

    #[test]
    fn all_variants_produce_work() {
        for v in [BfsVariant::Dwc, BfsVariant::Ta, BfsVariant::Tf, BfsVariant::Ttc, BfsVariant::Twc]
        {
            let w = Bfs::new(v, graph());
            assert!(w.num_kernels() > 1, "{}: BFS should take multiple levels", w.name());
            let (mem, _) = total_ops(&w);
            assert!(mem > 0, "{} generated no memory ops", w.name());
        }
    }

    #[test]
    fn ttc_scans_every_vertex_every_kernel() {
        let g = graph();
        let w = Bfs::new(BfsVariant::Ttc, Arc::clone(&g));
        let kernel = w.kernel(KernelId::new(0));
        // Grid covers all vertices.
        assert_eq!(kernel.spec().num_blocks, g.num_vertices().div_ceil(256));
    }

    #[test]
    fn tf_grid_tracks_frontier_size() {
        let g = graph();
        let w = Bfs::new(BfsVariant::Tf, Arc::clone(&g));
        // Level 0's frontier is just the source: one block.
        assert_eq!(w.kernel(KernelId::new(0)).spec().num_blocks, 1);
    }

    #[test]
    fn twc_maps_one_vertex_per_warp() {
        let g = graph();
        let w = Bfs::new(BfsVariant::Twc, Arc::clone(&g));
        let spec = w.kernel(KernelId::new(0)).spec();
        assert_eq!(spec.num_blocks, g.num_vertices().div_ceil(8));
    }

    #[test]
    fn dwc_is_most_divergent() {
        // DWC's transactions-per-op ratio should exceed TTC's: it gathers
        // endpoint levels over the raw edge list.
        let g = graph();
        let (ttc_ops, ttc_txn) = total_ops(&Bfs::new(BfsVariant::Ttc, Arc::clone(&g)));
        let (dwc_ops, dwc_txn) = total_ops(&Bfs::new(BfsVariant::Dwc, Arc::clone(&g)));
        let ttc_ratio = ttc_txn as f64 / ttc_ops as f64;
        let dwc_ratio = dwc_txn as f64 / dwc_ops as f64;
        assert!(dwc_ratio > ttc_ratio, "dwc {dwc_ratio:.2} <= ttc {ttc_ratio:.2}");
    }

    #[test]
    fn ta_touches_the_counter_page() {
        let g = graph();
        let w = Bfs::new(BfsVariant::Ta, Arc::clone(&g));
        let counters_base = {
            // Rebuild layout to find the counters array address.
            let arrays =
                GraphArrays::new(&g, ArrayOptions { weights: false, coo: false, vprops: 1 });
            arrays.counters.base()
        };
        let mut touched = false;
        let kernel = w.kernel(KernelId::new(0));
        let spec = kernel.spec();
        'outer: for blk in 0..spec.num_blocks {
            for warp in 0..8 {
                let mut s = kernel.warp_stream(BlockId::new(blk), warp);
                while let Some(op) = s.next_op() {
                    if let WarpOp::Store(addrs) = &op {
                        if addrs.contains(&counters_base) {
                            touched = true;
                            break 'outer;
                        }
                    }
                }
            }
        }
        assert!(touched, "TA never stored to the atomic counter");
    }

    #[test]
    fn streams_are_deterministic() {
        let g = graph();
        let w1 = Bfs::new(BfsVariant::Ttc, Arc::clone(&g));
        let w2 = Bfs::new(BfsVariant::Ttc, Arc::clone(&g));
        assert_eq!(total_ops(&w1), total_ops(&w2));
    }

    #[test]
    fn footprint_includes_coo_only_for_dwc() {
        let g = graph();
        let plain = Bfs::new(BfsVariant::Ttc, Arc::clone(&g)).footprint_bytes();
        let dwc = Bfs::new(BfsVariant::Dwc, Arc::clone(&g)).footprint_bytes();
        assert!(dwc > plain);
    }
}
