//! Simulated-system configuration.
//!
//! [`SimConfig::default`] reproduces Table 1 of the paper:
//!
//! | Component | Value |
//! |---|---|
//! | Core | 16 SMs, 1 GHz, 1024 threads/SM, 256 KB register files per SM |
//! | Private L1 cache | 16 KB, 4-way, LRU |
//! | Private L1 TLB | 64 entries per core, fully associative, LRU |
//! | Shared L2 cache | 2 MB total, 16-way, LRU |
//! | Shared L2 TLB | 1024 entries total, 32-way, LRU |
//! | Memory | 200-cycle latency |
//! | Fault buffer | 1024 entries |
//! | Fault handling | 64 KB pages, 20 µs runtime fault handling, 15.75 GB/s PCIe |

use crate::addr::PageGeometry;
use crate::error::{AuditLevel, SimError};
use crate::policy::PolicyConfig;
use crate::time::Cycle;

/// GPU core (SM) configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: u16,
    /// Maximum concurrent threads per SM (the scheduling limit).
    pub threads_per_sm: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// 32-bit registers per SM (256 KB register file = 65 536 registers).
    pub regs_per_sm: u32,
    /// Hardware cap on thread blocks resident per SM.
    pub max_blocks_per_sm: u32,
    /// Per-block bookkeeping state (warp ids, SIMT stack, program counters)
    /// that must be saved and restored on a block context switch, in bytes.
    pub block_state_bytes: u32,
    /// Global-memory bandwidth available for context save/restore traffic,
    /// in bytes per cycle.
    pub ctx_switch_bytes_per_cycle: u32,
    /// Fixed pipeline-drain overhead added to every context switch.
    pub ctx_switch_fixed_cycles: Cycle,
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self {
            num_sms: 16,
            threads_per_sm: 1024,
            warp_size: 32,
            regs_per_sm: 65_536,
            max_blocks_per_sm: 32,
            block_state_bytes: 5 * 1024,
            ctx_switch_bytes_per_cycle: 256,
            ctx_switch_fixed_cycles: 50,
        }
    }
}

impl GpuConfig {
    /// Rejects degenerate core configurations that would make the engine
    /// divide by zero or schedule nothing at all.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.num_sms == 0 {
            return Err(SimError::invalid_config("gpu.num_sms", "must be nonzero"));
        }
        if self.warp_size == 0 {
            return Err(SimError::invalid_config("gpu.warp_size", "must be nonzero"));
        }
        if self.threads_per_sm == 0 || !self.threads_per_sm.is_multiple_of(self.warp_size) {
            return Err(SimError::invalid_config(
                "gpu.threads_per_sm",
                format!(
                    "must be a nonzero multiple of the warp size ({}), got {}",
                    self.warp_size, self.threads_per_sm
                ),
            ));
        }
        if self.regs_per_sm == 0 {
            return Err(SimError::invalid_config("gpu.regs_per_sm", "must be nonzero"));
        }
        if self.max_blocks_per_sm == 0 {
            return Err(SimError::invalid_config("gpu.max_blocks_per_sm", "must be nonzero"));
        }
        if self.ctx_switch_bytes_per_cycle == 0 {
            return Err(SimError::invalid_config(
                "gpu.ctx_switch_bytes_per_cycle",
                "must be nonzero (context-switch cost divides by it)",
            ));
        }
        Ok(())
    }

    /// The register-file size in bytes (registers are 32-bit).
    pub fn reg_file_bytes(&self) -> u32 {
        self.regs_per_sm * 4
    }

    /// Cycles to save **and** restore one block's context (registers plus
    /// block state) through global memory, per §6.5 of the paper.
    pub fn ctx_switch_cycles(&self, threads_per_block: u32, regs_per_thread: u32) -> Cycle {
        let reg_bytes = u64::from(threads_per_block) * u64::from(regs_per_thread) * 4;
        let total = 2 * (reg_bytes + u64::from(self.block_state_bytes));
        self.ctx_switch_fixed_cycles + total.div_ceil(u64::from(self.ctx_switch_bytes_per_cycle))
    }
}

/// A set-associative cache shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Log2 of the line size in bytes.
    pub line_shift: u32,
    /// Latency of a hit in this cache.
    pub hit_latency: Cycle,
}

impl CacheGeometry {
    /// Rejects shapes that do not divide into at least one whole set.
    ///
    /// `field` names the config location (e.g. `mem.l1d`) in the error.
    pub fn validate(&self, field: &'static str) -> Result<(), SimError> {
        if self.ways == 0 {
            return Err(SimError::invalid_config(field, "associativity must be nonzero"));
        }
        if self.line_shift >= 31 {
            return Err(SimError::invalid_config(
                field,
                format!("line_shift {} overflows the line size", self.line_shift),
            ));
        }
        let row = u64::from(self.ways) << self.line_shift;
        let cap = u64::from(self.capacity_bytes);
        if cap == 0 || cap % row != 0 {
            return Err(SimError::invalid_config(
                field,
                format!(
                    "capacity {cap} B must be a nonzero multiple of ways x line ({} x {} B)",
                    self.ways,
                    1u64 << self.line_shift
                ),
            ));
        }
        Ok(())
    }

    /// Number of sets (capacity / (ways × line size)).
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly into at least one set.
    pub fn num_sets(&self) -> u32 {
        let line = 1u32 << self.line_shift;
        let sets = self.capacity_bytes / (self.ways * line);
        assert!(sets > 0, "cache geometry yields zero sets: {self:?}");
        sets
    }
}

/// Memory-hierarchy (data path) configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// Per-SM private L1 data cache.
    pub l1d: CacheGeometry,
    /// Shared L2 data cache.
    pub l2d: CacheGeometry,
    /// DRAM access latency (Table 1: 200 cycles).
    pub dram_latency: Cycle,
}

impl Default for MemConfig {
    fn default() -> Self {
        Self {
            l1d: CacheGeometry {
                capacity_bytes: 16 * 1024,
                ways: 4,
                line_shift: 7,
                hit_latency: 4,
            },
            l2d: CacheGeometry {
                capacity_bytes: 2 * 1024 * 1024,
                ways: 16,
                line_shift: 7,
                hit_latency: 60,
            },
            dram_latency: 200,
        }
    }
}

/// TLB and page-table-walker configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlbConfig {
    /// Entries in each per-SM L1 TLB (fully associative).
    pub l1_entries: u32,
    /// Total entries in the shared L2 TLB.
    pub l2_entries: u32,
    /// Associativity of the shared L2 TLB.
    pub l2_ways: u32,
    /// L1 TLB hit latency.
    pub l1_hit_latency: Cycle,
    /// L2 TLB lookup latency (added on an L1 miss).
    pub l2_hit_latency: Cycle,
    /// Concurrent walks supported by the shared highly-threaded walker.
    pub walker_threads: u32,
    /// Latency of one page-table walk when a walker thread is free,
    /// assuming upper levels hit the page-walk cache.
    pub walk_latency: Cycle,
    /// Extra latency per page-table level on a page-walk-cache miss.
    pub pwc_miss_penalty: Cycle,
    /// Entries in the page-walk cache (upper-level PTE cache).
    pub pwc_entries: u32,
}

impl MemConfig {
    /// Validates both cache shapes.
    pub fn validate(&self) -> Result<(), SimError> {
        self.l1d.validate("mem.l1d")?;
        self.l2d.validate("mem.l2d")
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self {
            l1_entries: 64,
            l2_entries: 1024,
            l2_ways: 32,
            l1_hit_latency: 1,
            l2_hit_latency: 10,
            walker_threads: 64,
            walk_latency: 200,
            pwc_miss_penalty: 100,
            pwc_entries: 64,
        }
    }
}

impl TlbConfig {
    /// Rejects TLB geometries the translation model cannot index.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.l1_entries == 0 {
            return Err(SimError::invalid_config("tlb.l1_entries", "must be nonzero"));
        }
        if self.l2_ways == 0 {
            return Err(SimError::invalid_config("tlb.l2_ways", "must be nonzero"));
        }
        if self.l2_entries == 0 || !self.l2_entries.is_multiple_of(self.l2_ways) {
            return Err(SimError::invalid_config(
                "tlb.l2_entries",
                format!(
                    "must be a nonzero multiple of the associativity ({}), got {}",
                    self.l2_ways, self.l2_entries
                ),
            ));
        }
        if self.walker_threads == 0 {
            return Err(SimError::invalid_config("tlb.walker_threads", "must be nonzero"));
        }
        if self.pwc_entries == 0 {
            return Err(SimError::invalid_config("tlb.pwc_entries", "must be nonzero"));
        }
        Ok(())
    }
}

/// UVM runtime (demand paging) configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UvmConfig {
    /// Page-size geometry: base page, large page, and prefetch-region
    /// sizes. Validated at construction
    /// ([`PageGeometry::new`]), so an inverted or degenerate shift
    /// ordering is unrepresentable here. Defaults to 64 KB pages in 2 MB
    /// regions (Table 1).
    pub geometry: PageGeometry,
    /// Capacity of the GPU replayable fault buffer.
    pub fault_buffer_entries: u32,
    /// Latency between a fault interrupt being raised and the runtime's
    /// top-half ISR draining the fault buffer. Faults raised within this
    /// window join the same batch.
    pub isr_latency: Cycle,
    /// Fixed portion of the GPU runtime fault handling time, i.e. the time
    /// between batch start and the first page transfer (Table 1: 20 µs).
    pub fault_handling_base: Cycle,
    /// Per-fault increment of the runtime fault handling time (sorting,
    /// CPU page-table walks, migration scheduling scale with batch size).
    pub fault_handling_per_fault: Cycle,
    /// Host-to-device PCIe bandwidth in bytes per second.
    pub pcie_h2d_bytes_per_sec: u64,
    /// Device-to-host PCIe bandwidth in bytes per second. The paper notes
    /// (§4.2) that device-to-host transfers are faster than host-to-device,
    /// which is what keeps unobtrusive eviction fully off the critical path.
    pub pcie_d2h_bytes_per_sec: u64,
    /// GPU device-memory capacity in pages; `None` means unlimited memory
    /// (no evictions ever occur).
    pub gpu_mem_pages: Option<u64>,
}

impl Default for UvmConfig {
    fn default() -> Self {
        Self {
            geometry: PageGeometry::default(),
            fault_buffer_entries: 1024,
            isr_latency: 1_000,
            fault_handling_base: crate::time::us(20),
            fault_handling_per_fault: 30,
            pcie_h2d_bytes_per_sec: 15_750_000_000,
            pcie_d2h_bytes_per_sec: 17_300_000_000,
            gpu_mem_pages: None,
        }
    }
}

impl UvmConfig {
    /// Rejects buffer and link parameters the migration model cannot
    /// operate with. (Page/region shifts need no re-check here: an
    /// invalid [`PageGeometry`] cannot be constructed.)
    pub fn validate(&self) -> Result<(), SimError> {
        if self.fault_buffer_entries == 0 {
            return Err(SimError::invalid_config("uvm.fault_buffer_entries", "must be nonzero"));
        }
        if self.pcie_h2d_bytes_per_sec == 0 {
            return Err(SimError::invalid_config("uvm.pcie_h2d_bytes_per_sec", "must be nonzero"));
        }
        if self.pcie_d2h_bytes_per_sec == 0 {
            return Err(SimError::invalid_config("uvm.pcie_d2h_bytes_per_sec", "must be nonzero"));
        }
        if self.gpu_mem_pages == Some(0) {
            return Err(SimError::invalid_config(
                "uvm.gpu_mem_pages",
                "zero-page device memory cannot hold any batch (use None for unlimited)",
            ));
        }
        Ok(())
    }

    /// Base-page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.geometry.page_bytes()
    }

    /// Base pages per prefetch region.
    pub fn pages_per_region(&self) -> u64 {
        self.geometry.pages_per_region()
    }
}

/// The complete simulated-system configuration.
///
/// # Examples
///
/// ```
/// use batmem_types::config::SimConfig;
///
/// let mut config = SimConfig::default();
/// // Restrict GPU memory to 100 pages (6.25 MB at 64 KB/page).
/// config.uvm.gpu_mem_pages = Some(100);
/// assert_eq!(config.uvm.page_bytes(), 65536);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// GPU core configuration.
    pub gpu: GpuConfig,
    /// Data-cache and DRAM configuration.
    pub mem: MemConfig,
    /// TLB and page-table-walker configuration.
    pub tlb: TlbConfig,
    /// UVM runtime configuration.
    pub uvm: UvmConfig,
    /// The policy setting no policy spec names (PCIe compression
    /// parameters).
    pub policy: PolicyConfig,
    /// Invariant-audit level applied while the simulation runs.
    pub audit: AuditLevel,
    /// Forward-progress watchdog: the run fails with
    /// [`SimError::Livelock`] after this many consecutive events with no
    /// forward progress (no warp op consumed, no page installed, no block
    /// retired). `0` disables the watchdog.
    pub watchdog_event_budget: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            gpu: GpuConfig::default(),
            mem: MemConfig::default(),
            tlb: TlbConfig::default(),
            uvm: UvmConfig::default(),
            policy: PolicyConfig::default(),
            audit: AuditLevel::Off,
            watchdog_event_budget: 100_000,
        }
    }
}

impl SimConfig {
    /// Validates every sub-configuration, then the policy knobs.
    ///
    /// Called by the simulation builder before a run starts, so a
    /// degenerate configuration fails fast with a
    /// [`SimError::InvalidConfig`] naming the offending field instead of
    /// dividing by zero (or silently simulating nonsense) mid-run.
    pub fn validate(&self) -> Result<(), SimError> {
        self.gpu.validate()?;
        self.mem.validate()?;
        self.tlb.validate()?;
        self.uvm.validate()?;
        self.policy.validate()
    }

    /// Renders the configuration as the rows of Table 1 in the paper.
    pub fn table1(&self) -> String {
        let g = &self.gpu;
        let m = &self.mem;
        let t = &self.tlb;
        let u = &self.uvm;
        format!(
            "GPU Configuration\n\
             Core               {} SMs, 1GHz, {} threads per SM, {}KB register files per SM\n\
             Private L1 Cache   {}KB, {}-way, LRU\n\
             Private L1 TLB     {} entries per core, fully associative, LRU\n\
             Memory Configuration\n\
             Shared L2 Cache    {}MB total, {}-way, LRU\n\
             Shared L2 TLB      {} entries total, {}-way associative, LRU\n\
             Memory             {} cycle latency\n\
             Unified Memory Configuration\n\
             Fault Buffer       {} entries\n\
             Fault Handling     {}KB page size, {}us GPU runtime fault handling time, {:.2}GB/s PCIe bandwidth",
            g.num_sms,
            g.threads_per_sm,
            g.reg_file_bytes() / 1024,
            m.l1d.capacity_bytes / 1024,
            m.l1d.ways,
            t.l1_entries,
            m.l2d.capacity_bytes / (1024 * 1024),
            m.l2d.ways,
            t.l2_entries,
            t.l2_ways,
            m.dram_latency,
            u.fault_buffer_entries,
            u.page_bytes() / 1024,
            u.fault_handling_base / 1000,
            u.pcie_h2d_bytes_per_sec as f64 / 1e9,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.gpu.num_sms, 16);
        assert_eq!(c.gpu.threads_per_sm, 1024);
        assert_eq!(c.gpu.reg_file_bytes(), 256 * 1024);
        assert_eq!(c.mem.l1d.capacity_bytes, 16 * 1024);
        assert_eq!(c.mem.l1d.ways, 4);
        assert_eq!(c.tlb.l1_entries, 64);
        assert_eq!(c.mem.l2d.capacity_bytes, 2 * 1024 * 1024);
        assert_eq!(c.mem.l2d.ways, 16);
        assert_eq!(c.tlb.l2_entries, 1024);
        assert_eq!(c.tlb.l2_ways, 32);
        assert_eq!(c.mem.dram_latency, 200);
        assert_eq!(c.uvm.fault_buffer_entries, 1024);
        assert_eq!(c.uvm.page_bytes(), 64 * 1024);
        assert_eq!(c.uvm.fault_handling_base, 20_000);
        assert_eq!(c.uvm.pcie_h2d_bytes_per_sec, 15_750_000_000);
    }

    #[test]
    fn table1_rendering_mentions_key_rows() {
        let s = SimConfig::default().table1();
        assert!(s.contains("16 SMs"));
        assert!(s.contains("1024 entries"));
        assert!(s.contains("64KB page size"));
        assert!(s.contains("20us"));
        assert!(s.contains("15.75GB/s"));
    }

    #[test]
    fn cache_geometry_sets() {
        let c = MemConfig::default();
        // 16 KB / (4 ways * 128 B) = 32 sets.
        assert_eq!(c.l1d.num_sets(), 32);
        // 2 MB / (16 ways * 128 B) = 1024 sets.
        assert_eq!(c.l2d.num_sets(), 1024);
    }

    #[test]
    fn ctx_switch_cost_tracks_context_size() {
        let g = GpuConfig::default();
        // Footnote 5 of the paper: 2048 threads x 10 regs = 80 KB + 5 KB state.
        let small = g.ctx_switch_cycles(256, 10);
        let large = g.ctx_switch_cycles(1024, 32);
        assert!(large > small);
        // 85 KB context, saved+restored at 256 B/cycle: ~680 cycles plus fixed.
        let paper_example = g.ctx_switch_cycles(2048, 10);
        assert!(paper_example > 600 && paper_example < 1000, "{paper_example}");
    }

    #[test]
    fn pages_per_region_is_32() {
        assert_eq!(UvmConfig::default().pages_per_region(), 32);
    }

    #[test]
    fn config_is_cloneable_and_comparable() {
        let c = SimConfig::default();
        assert_eq!(c, c.clone());
    }

    #[test]
    fn default_config_validates() {
        SimConfig::default().validate().unwrap();
    }

    fn rejected_field(c: &SimConfig) -> &'static str {
        match c.validate().unwrap_err() {
            SimError::InvalidConfig { field, .. } => field,
            other => panic!("expected InvalidConfig, got {other}"),
        }
    }

    #[test]
    fn zero_sms_is_rejected() {
        let mut c = SimConfig::default();
        c.gpu.num_sms = 0;
        assert_eq!(rejected_field(&c), "gpu.num_sms");
    }

    #[test]
    fn threads_not_multiple_of_warp_is_rejected() {
        let mut c = SimConfig::default();
        c.gpu.threads_per_sm = 1000; // not a multiple of 32
        assert_eq!(rejected_field(&c), "gpu.threads_per_sm");
    }

    #[test]
    fn zero_ctx_switch_bandwidth_is_rejected() {
        let mut c = SimConfig::default();
        c.gpu.ctx_switch_bytes_per_cycle = 0;
        assert_eq!(rejected_field(&c), "gpu.ctx_switch_bytes_per_cycle");
    }

    #[test]
    fn cache_with_zero_sets_is_rejected() {
        let mut c = SimConfig::default();
        // 1 KB capacity with 4 ways of 512 B lines: zero whole sets.
        c.mem.l1d = CacheGeometry { capacity_bytes: 1024, ways: 4, line_shift: 9, hit_latency: 4 };
        assert_eq!(rejected_field(&c), "mem.l1d");
    }

    #[test]
    fn l2_cache_geometry_is_checked_too() {
        let mut c = SimConfig::default();
        c.mem.l2d.ways = 0;
        assert_eq!(rejected_field(&c), "mem.l2d");
    }

    #[test]
    fn tlb_entries_must_divide_by_ways() {
        let mut c = SimConfig::default();
        c.tlb.l2_entries = 1000; // not a multiple of 32 ways
        assert_eq!(rejected_field(&c), "tlb.l2_entries");
    }

    #[test]
    fn empty_page_walk_cache_is_rejected() {
        let mut c = SimConfig::default();
        c.tlb.pwc_entries = 0;
        assert_eq!(rejected_field(&c), "tlb.pwc_entries");
    }

    #[test]
    fn bad_geometries_cannot_reach_a_config() {
        // Shift validation happens at PageGeometry construction, before a
        // SimConfig can even hold the value; inverted/degenerate orderings
        // are unrepresentable rather than caught late in validate().
        assert!(matches!(
            PageGeometry::base_region(16, 15),
            Err(SimError::InvalidConfig { field: "uvm.geometry.large_shift", .. })
        ));
        assert!(matches!(
            PageGeometry::base_region(5, 21),
            Err(SimError::InvalidConfig { field: "uvm.geometry.base_shift", .. })
        ));
        // A non-default but valid geometry drops straight in.
        let mut c = SimConfig::default();
        c.uvm.geometry = PageGeometry::base_region(12, 21).unwrap();
        c.validate().unwrap();
        assert_eq!(c.uvm.pages_per_region(), 512);
    }

    #[test]
    fn zero_capacity_memory_is_rejected() {
        let mut c = SimConfig::default();
        c.uvm.gpu_mem_pages = Some(0);
        assert_eq!(rejected_field(&c), "uvm.gpu_mem_pages");
    }

    #[test]
    fn zero_pcie_bandwidth_is_rejected() {
        let mut c = SimConfig::default();
        c.uvm.pcie_h2d_bytes_per_sec = 0;
        assert_eq!(rejected_field(&c), "uvm.pcie_h2d_bytes_per_sec");
    }

    #[test]
    fn policy_knobs_are_validated_through_sim_config() {
        let mut c = SimConfig::default();
        c.policy.compression.ratio_x100 = 99;
        assert_eq!(rejected_field(&c), "policy.compression.ratio_x100");
    }

    #[test]
    fn watchdog_and_audit_defaults() {
        let c = SimConfig::default();
        assert_eq!(c.watchdog_event_budget, 100_000);
        assert_eq!(c.audit, AuditLevel::Off);
    }
}
