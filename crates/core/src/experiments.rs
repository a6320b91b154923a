//! Experiment helpers used by the figure-regeneration harness.

use batmem_sim::ops::Workload;
use batmem_sim::sm::occupancy;
use batmem_types::addr::PageGeometry;
use batmem_types::config::GpuConfig;
use batmem_types::dense::{PageMap, PageSet};
use batmem_types::{BlockId, KernelId};

/// Fig. 1's metric: the fraction of the workload's pages that the thread
/// blocks *concurrently resident* on `active_sms` SMs touch, relative to
/// the pages the whole grid touches.
///
/// For tiled regular workloads this scales with `active_sms` (core
/// throttling shrinks the working set); for graph workloads nearly all
/// pages are shared across blocks, so the curve is flat — the paper's
/// argument for why memory-aware throttling cannot help irregular
/// applications.
///
/// # Panics
///
/// Panics if `active_sms` is zero.
pub fn working_set_fraction(workload: &dyn Workload, active_sms: u16, gpu: &GpuConfig) -> f64 {
    assert!(active_sms > 0, "need at least one active SM");
    let geom = PageGeometry::default();
    let mut wave_pages = PageSet::new();
    let mut all_pages = PageSet::new();
    for k in 0..workload.num_kernels() {
        let kernel = workload.kernel(KernelId::new(k));
        let spec = kernel.spec();
        let occ = occupancy(gpu, &spec);
        let wave_blocks = u64::from(active_sms) * u64::from(occ.active_limit);
        for blk in 0..spec.num_blocks {
            for warp in 0..spec.warps_per_block(gpu.warp_size) {
                let mut s = kernel.warp_stream(BlockId::new(blk), warp as u16);
                while let Some(op) = s.next_op() {
                    for a in op.addrs() {
                        let p = geom.page_of(*a);
                        all_pages.insert(p);
                        if u64::from(blk) < wave_blocks {
                            wave_pages.insert(p);
                        }
                    }
                }
            }
        }
    }
    if all_pages.is_empty() {
        return 0.0;
    }
    wave_pages.len() as f64 / all_pages.len() as f64
}

/// [`working_set_fraction`] for every SM count `1..=max_sms` in a single
/// pass over the workload's streams (what Fig. 1 plots).
///
/// # Panics
///
/// Panics if `max_sms` is zero.
pub fn working_set_curve(workload: &dyn Workload, max_sms: u16, gpu: &GpuConfig) -> Vec<f64> {
    assert!(max_sms > 0, "need at least one SM");
    let geom = PageGeometry::default();
    // For each page, the smallest SM count whose first wave touches it.
    let mut min_wave: PageMap<u16> = PageMap::new();
    for k in 0..workload.num_kernels() {
        let kernel = workload.kernel(KernelId::new(k));
        let spec = kernel.spec();
        let occ = occupancy(gpu, &spec);
        for blk in 0..spec.num_blocks {
            // Block `blk` is in the first wave of n SMs iff blk < n * limit.
            let n_min = (u64::from(blk) / u64::from(occ.active_limit) + 1)
                .min(u64::from(max_sms) + 1) as u16;
            for warp in 0..spec.warps_per_block(gpu.warp_size) {
                let mut s = kernel.warp_stream(BlockId::new(blk), warp as u16);
                while let Some(op) = s.next_op() {
                    for a in op.addrs() {
                        let p = geom.page_of(*a);
                        match min_wave.get_mut(p) {
                            Some(m) => *m = (*m).min(n_min),
                            None => {
                                min_wave.insert(p, n_min);
                            }
                        }
                    }
                }
            }
        }
    }
    let total = min_wave.len().max(1) as f64;
    (1..=max_sms)
        .map(|n| min_wave.iter().filter(|&(_, &m)| m <= n).count() as f64 / total)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use batmem_workloads::regular::TiledRegular;
    use batmem_workloads::synthetic::SharedPages;

    #[test]
    fn tiled_working_set_scales_with_sms() {
        let w = TiledRegular::new("T", 1 << 20, 2, 1, 0, 4);
        let gpu = GpuConfig::default();
        let f1 = working_set_fraction(&w, 1, &gpu);
        let f8 = working_set_fraction(&w, 8, &gpu);
        let f16 = working_set_fraction(&w, 16, &gpu);
        assert!(f1 < f8 && f8 < f16, "{f1} {f8} {f16}");
        assert!(f8 / f1 > 4.0, "tiled scaling too weak: {f1} -> {f8}");
    }

    #[test]
    fn shared_working_set_is_flat() {
        let w = SharedPages::new(64, 256, 32, 20, 4);
        let gpu = GpuConfig::default();
        let f1 = working_set_fraction(&w, 1, &gpu);
        let f16 = working_set_fraction(&w, 16, &gpu);
        assert_eq!(f1, 1.0);
        assert_eq!(f16, 1.0);
    }

    #[test]
    fn curve_matches_pointwise_fractions() {
        let w = TiledRegular::new("T", 1 << 20, 2, 1, 0, 4);
        let gpu = GpuConfig::default();
        let curve = working_set_curve(&w, 16, &gpu);
        assert_eq!(curve.len(), 16);
        for (i, &c) in curve.iter().enumerate() {
            let f = working_set_fraction(&w, (i + 1) as u16, &gpu);
            assert!((c - f).abs() < 1e-12, "n={}: {c} vs {f}", i + 1);
        }
        // Monotone non-decreasing.
        assert!(curve.windows(2).all(|p| p[0] <= p[1]));
    }
}
