//! End-to-end run metrics.

use batmem_sim::cache::CacheStats;
use batmem_types::Cycle;
use batmem_uvm::UvmStats;
use batmem_vmem::MmuStats;

/// Everything a simulation run produces.
///
/// Speedups between configurations are ratios of [`RunMetrics::cycles`];
/// the batch-level metrics of Figs. 12-16 come from [`RunMetrics::uvm`].
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Total execution time in cycles (= ns at the 1 GHz clock).
    pub cycles: Cycle,
    /// Workload name.
    pub workload: String,
    /// Workload footprint in bytes.
    pub footprint_bytes: u64,
    /// Configured GPU memory capacity in pages (`None` = unlimited).
    pub memory_pages: Option<u64>,
    /// Kernels launched.
    pub kernels: u32,
    /// Thread blocks retired.
    pub blocks_retired: u64,
    /// Warps retired.
    pub warps_retired: u64,
    /// Warp-level memory operations executed (including fault replays).
    pub mem_ops: u64,
    /// UVM runtime statistics (batches, faults, evictions, ...).
    pub uvm: UvmStats,
    /// MMU statistics (TLBs, walks, faults).
    pub mmu: MmuStats,
    /// Combined L1 data-cache statistics.
    pub l1d: CacheStats,
    /// L2 data-cache statistics.
    pub l2d: CacheStats,
    /// Thread-block context switches performed.
    pub ctx_switches: u64,
    /// Cycles spent in context-switch transfers.
    pub ctx_switch_cycles: Cycle,
    /// Times a warp stalled on far-faults.
    pub warp_stalls: u64,
    /// Times a stalled warp's last awaited page arrived.
    pub warp_resumes: u64,
    /// Events the watchdog observed without forward progress (0 when its
    /// budget is off).
    pub watchdog_ticks: u64,
    /// Final thread-oversubscription degree (extra blocks per SM).
    pub final_oversub_degree: u32,
    /// Times the TO controller lowered the degree.
    pub oversub_decrements: u64,
    /// Times ETC's memory-aware throttling engaged.
    pub throttle_engagements: u64,
}

impl RunMetrics {
    /// Speedup of this run relative to `baseline` (>1 means faster).
    ///
    /// # Panics
    ///
    /// Panics if this run took zero cycles.
    pub fn speedup_over(&self, baseline: &RunMetrics) -> f64 {
        assert!(self.cycles > 0, "run took zero cycles");
        baseline.cycles as f64 / self.cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(cycles: Cycle) -> RunMetrics {
        RunMetrics {
            cycles,
            workload: "T".into(),
            footprint_bytes: 0,
            memory_pages: None,
            kernels: 1,
            blocks_retired: 0,
            warps_retired: 0,
            mem_ops: 0,
            uvm: UvmStats::default(),
            mmu: MmuStats::default(),
            l1d: CacheStats::default(),
            l2d: CacheStats::default(),
            ctx_switches: 0,
            ctx_switch_cycles: 0,
            warp_stalls: 0,
            warp_resumes: 0,
            watchdog_ticks: 0,
            final_oversub_degree: 0,
            oversub_decrements: 0,
            throttle_engagements: 0,
        }
    }

    #[test]
    fn speedup_is_baseline_over_self() {
        let fast = metrics(100);
        let slow = metrics(200);
        assert_eq!(fast.speedup_over(&slow), 2.0);
        assert_eq!(slow.speedup_over(&fast), 0.5);
    }
}
