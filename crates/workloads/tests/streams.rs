//! Pins every irregular workload's warp streams.
//!
//! Each workload is built over `gen::rmat(10, 8, 42)`, and every warp
//! stream of every kernel is drained through `next_op_into`, the path the
//! engine issues through. Op kinds, compute cycles and transaction
//! addresses are hashed in order, with a marker at the end of each
//! stream. A change to stream fabrication (coalescing, chunking, op
//! order) moves a digest here, at the layer where it happens, before it
//! can move a simulated figure.

use batmem_graph::gen;
use batmem_sim::ops::OpKind;
use batmem_types::sweep::fnv1a_64;
use batmem_types::{BlockId, KernelId};
use batmem_workloads::registry;
use std::sync::Arc;

const WARP_SIZE: u32 = 32;

/// Ops, transactions and the FNV-1a digest of every warp stream of `name`.
fn stream_digest(name: &str, graph: &Arc<batmem_graph::Csr>) -> (u64, u64, u64) {
    let workload = registry::build(name, Arc::clone(graph)).expect("registered name");
    let mut bytes = Vec::new();
    let (mut ops, mut txns) = (0u64, 0u64);
    let mut buf = Vec::new();
    for k in 0..workload.num_kernels() {
        let kernel = workload.kernel(KernelId::new(k));
        let spec = kernel.spec();
        for blk in 0..spec.num_blocks {
            for warp in 0..spec.warps_per_block(WARP_SIZE) {
                let mut s = kernel.warp_stream(BlockId::new(blk), warp as u16);
                while let Some(kind) = s.next_op_into(&mut buf) {
                    ops += 1;
                    match kind {
                        OpKind::Compute(c) => {
                            bytes.push(b'C');
                            bytes.extend_from_slice(&c.to_le_bytes());
                        }
                        OpKind::Load | OpKind::Store => {
                            bytes.push(if kind == OpKind::Load { b'L' } else { b'S' });
                            bytes.extend_from_slice(&(buf.len() as u32).to_le_bytes());
                            for a in &buf {
                                bytes.extend_from_slice(&a.raw().to_le_bytes());
                            }
                            txns += buf.len() as u64;
                        }
                    }
                }
                bytes.push(b'.');
            }
        }
    }
    (ops, txns, fnv1a_64(&bytes))
}

#[test]
fn every_workload_fabricates_its_pinned_streams() {
    // (workload, ops, transactions, digest), pinned before gathers had a
    // bitmap path: both coalescing paths must give the sort-dedup lines.
    const PINS: [(&str, u64, u64, u64); 11] = [
        ("BC", 6025, 11751, 0x53e4_cd21_d70a_aa6d),
        ("BFS-DWC", 1236, 5620, 0x76dc_de1c_4c6c_eb4c),
        ("BFS-TA", 3057, 6405, 0x186f_3ee0_18f0_060e),
        ("BFS-TF", 1914, 4934, 0x654f_bf4f_ec6d_6c2e),
        ("BFS-TTC", 2971, 6319, 0x4087_9623_744f_6d00),
        ("BFS-TWC", 10907, 10287, 0x8b76_8a09_92ac_1cce),
        ("GC-DTC", 74384, 330507, 0xc57d_c086_e60a_ed75),
        ("GC-TTC", 76755, 333321, 0x5424_3812_56fd_9d2d),
        ("KCORE", 12048, 18377, 0x1a1b_f828_1674_40e7),
        ("SSSP-TWC", 14849, 15446, 0x2f72_347b_44fe_c879),
        ("PR", 6450, 13956, 0xbef3_0d21_5c71_5dcf),
    ];
    let graph = Arc::new(gen::rmat(10, 8, 42));
    let names = registry::irregular_names();
    assert_eq!(names.len(), PINS.len());
    let mut got = Vec::new();
    for name in names {
        let (ops, txns, digest) = stream_digest(name, &graph);
        got.push((*name, ops, txns, digest));
    }
    assert_eq!(got, PINS);
}
