//! Synthetic workloads for engine tests and microbenchmarks.

use crate::layout::{ArrayRef, LayoutBuilder};
use crate::stream::StreamBuilder;
use batmem_sim::ops::{BoxedStream, Kernel, KernelSpec, Workload};
use batmem_types::{BlockId, KernelId};
use std::sync::Arc;

/// A workload where each warp touches its own run of pages: warp `w` reads
/// one line from each of `pages_per_warp` consecutive pages starting at
/// page `w * pages_per_warp`, interleaved with compute.
///
/// Useful for deterministic fault-pattern tests: the page demand is exactly
/// predictable from the geometry.
#[derive(Debug, Clone)]
pub struct Strided {
    inner: Arc<StridedInner>,
}

#[derive(Debug)]
struct StridedInner {
    num_blocks: u32,
    threads_per_block: u32,
    regs_per_thread: u32,
    pages_per_warp: u64,
    compute_between: u32,
    repeats: u32,
    data: ArrayRef,
    footprint: u64,
}

impl Strided {
    /// Creates the workload. Total footprint is
    /// `num_blocks * warps_per_block * pages_per_warp` pages.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `threads_per_block` is not a
    /// multiple of 32.
    pub fn new(
        num_blocks: u32,
        threads_per_block: u32,
        regs_per_thread: u32,
        pages_per_warp: u64,
        compute_between: u32,
        repeats: u32,
    ) -> Self {
        assert!(num_blocks > 0 && pages_per_warp > 0 && repeats > 0, "empty workload");
        assert!(
            threads_per_block > 0 && threads_per_block.is_multiple_of(32),
            "threads_per_block must be a multiple of 32"
        );
        let warps = u64::from(num_blocks) * u64::from(threads_per_block / 32);
        let page_bytes = crate::common::PAGE_BYTES;
        let total_pages = warps * pages_per_warp;
        let mut l = LayoutBuilder::new(page_bytes);
        let data = l.array(4, total_pages * page_bytes / 4);
        Self {
            inner: Arc::new(StridedInner {
                num_blocks,
                threads_per_block,
                regs_per_thread,
                pages_per_warp,
                compute_between,
                repeats,
                data,
                footprint: l.footprint_bytes(),
            }),
        }
    }

    /// The page index warp `(block, warp)` starts at.
    pub fn first_page_of(&self, block: u32, warp: u16) -> u64 {
        let wpb = u64::from(self.inner.threads_per_block / 32);
        (u64::from(block) * wpb + u64::from(warp)) * self.inner.pages_per_warp
    }
}

impl Workload for Strided {
    fn name(&self) -> String {
        "SYNTH-STRIDED".to_string()
    }

    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint
    }

    fn num_kernels(&self) -> u32 {
        1
    }

    fn kernel(&self, k: KernelId) -> Box<dyn Kernel> {
        assert_eq!(k.index(), 0, "strided workload has one kernel");
        Box::new(StridedKernel { inner: Arc::clone(&self.inner) })
    }
}

struct StridedKernel {
    inner: Arc<StridedInner>,
}

impl Kernel for StridedKernel {
    fn spec(&self) -> KernelSpec {
        KernelSpec {
            num_blocks: self.inner.num_blocks,
            threads_per_block: self.inner.threads_per_block,
            regs_per_thread: self.inner.regs_per_thread,
        }
    }

    fn warp_stream(&self, block: BlockId, warp_in_block: u16) -> BoxedStream {
        let inner = &self.inner;
        let wpb = u64::from(inner.threads_per_block / 32);
        let warp_id = block.index() as u64 * wpb + u64::from(warp_in_block);
        let page_bytes = crate::common::PAGE_BYTES;
        let mut b = StreamBuilder::new();
        for _ in 0..inner.repeats {
            for p in 0..inner.pages_per_warp {
                let page = warp_id * inner.pages_per_warp + p;
                let elem = page * page_bytes / 4;
                b.load_seq(&inner.data, elem, 1);
                b.compute(inner.compute_between);
            }
        }
        b.build()
    }
}

/// A workload where **every** warp touches the same small set of pages —
/// the fully shared working set that makes SM throttling useless (the
/// irregular half of Fig. 1's argument, distilled).
#[derive(Debug, Clone)]
pub struct SharedPages {
    inner: Arc<SharedInner>,
}

#[derive(Debug)]
struct SharedInner {
    num_blocks: u32,
    threads_per_block: u32,
    regs_per_thread: u32,
    pages: u64,
    compute_between: u32,
    data: ArrayRef,
    footprint: u64,
}

impl SharedPages {
    /// Creates the workload: every warp reads one line from each of
    /// `pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `threads_per_block` is not a
    /// multiple of 32.
    pub fn new(
        num_blocks: u32,
        threads_per_block: u32,
        regs_per_thread: u32,
        pages: u64,
        compute_between: u32,
    ) -> Self {
        assert!(num_blocks > 0 && pages > 0, "empty workload");
        assert!(
            threads_per_block > 0 && threads_per_block.is_multiple_of(32),
            "threads_per_block must be a multiple of 32"
        );
        let page_bytes = crate::common::PAGE_BYTES;
        let mut l = LayoutBuilder::new(page_bytes);
        let data = l.array(4, pages * page_bytes / 4);
        Self {
            inner: Arc::new(SharedInner {
                num_blocks,
                threads_per_block,
                regs_per_thread,
                pages,
                compute_between,
                data,
                footprint: l.footprint_bytes(),
            }),
        }
    }
}

impl Workload for SharedPages {
    fn name(&self) -> String {
        "SYNTH-SHARED".to_string()
    }

    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint
    }

    fn num_kernels(&self) -> u32 {
        1
    }

    fn kernel(&self, k: KernelId) -> Box<dyn Kernel> {
        assert_eq!(k.index(), 0, "shared-pages workload has one kernel");
        Box::new(SharedKernel { inner: Arc::clone(&self.inner) })
    }
}

struct SharedKernel {
    inner: Arc<SharedInner>,
}

impl Kernel for SharedKernel {
    fn spec(&self) -> KernelSpec {
        KernelSpec {
            num_blocks: self.inner.num_blocks,
            threads_per_block: self.inner.threads_per_block,
            regs_per_thread: self.inner.regs_per_thread,
        }
    }

    fn warp_stream(&self, _block: BlockId, _warp_in_block: u16) -> BoxedStream {
        let inner = &self.inner;
        let page_bytes = crate::common::PAGE_BYTES;
        let mut b = StreamBuilder::new();
        for p in 0..inner.pages {
            b.load_seq(&inner.data, p * page_bytes / 4, 1);
            b.compute(inner.compute_between);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_pages_are_per_warp_disjoint() {
        let w = Strided::new(2, 64, 32, 3, 10, 1);
        assert_eq!(w.first_page_of(0, 0), 0);
        assert_eq!(w.first_page_of(0, 1), 3);
        assert_eq!(w.first_page_of(1, 0), 6);
        // 2 blocks * 2 warps * 3 pages = 12 pages of footprint.
        assert_eq!(w.footprint_bytes(), 12 * 65_536);
    }

    #[test]
    fn strided_stream_touches_declared_pages() {
        let w = Strided::new(1, 32, 32, 2, 5, 2);
        let k = w.kernel(KernelId::new(0));
        let mut s = k.warp_stream(BlockId::new(0), 0);
        let geom = batmem_types::addr::PageGeometry::default();
        let mut pages = Vec::new();
        while let Some(op) = s.next_op() {
            for a in op.addrs() {
                pages.push(geom.page_of(*a).index());
            }
        }
        assert_eq!(pages, vec![0, 1, 0, 1]); // 2 pages x 2 repeats
    }

    #[test]
    fn shared_streams_are_identical_across_warps() {
        let w = SharedPages::new(4, 64, 32, 5, 2);
        let k = w.kernel(KernelId::new(0));
        let collect = |blk: u32, warp: u16| {
            let mut s = k.warp_stream(BlockId::new(blk), warp);
            let mut v = Vec::new();
            while let Some(op) = s.next_op() {
                v.extend(op.addrs().iter().map(|a| a.raw()));
            }
            v
        };
        assert_eq!(collect(0, 0), collect(3, 1));
        assert_eq!(w.footprint_bytes(), 5 * 65_536);
    }
}
