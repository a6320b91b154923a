//! PCIe transfer scheduling.
//!
//! The link is modeled as two independent, serially occupied pipes — one per
//! direction — matching a full-duplex DMA engine (§4.2: "DMA engines in
//! modern CPUs and GPUs allow bidirectional transfers"). The *baseline*
//! eviction engine chooses not to exploit duplexing (evictions and
//! migrations serialize, §3); Unobtrusive Eviction schedules evictions on
//! the device-to-host pipe concurrently with host-to-device migrations.

use batmem_types::policy::PcieCompression;
use batmem_types::time::transfer_cycles;
use batmem_types::Cycle;

/// A scheduled transfer: when it occupies the pipe and when it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// First cycle of pipe occupancy.
    pub start: Cycle,
    /// Completion cycle.
    pub end: Cycle,
}

/// The two PCIe directions.
#[derive(Debug, Clone)]
pub struct PciePipes {
    h2d_bytes_per_sec: u64,
    d2h_bytes_per_sec: u64,
    compression: Option<PcieCompression>,
    h2d_free: Cycle,
    d2h_free: Cycle,
    h2d_bytes: u64,
    d2h_bytes: u64,
    h2d_transfers: u64,
    d2h_transfers: u64,
}

impl PciePipes {
    /// Creates uncompressed pipes with the given per-direction bandwidths.
    pub fn new(h2d_bytes_per_sec: u64, d2h_bytes_per_sec: u64) -> Self {
        Self {
            h2d_bytes_per_sec,
            d2h_bytes_per_sec,
            compression: None,
            h2d_free: 0,
            d2h_free: 0,
            h2d_bytes: 0,
            d2h_bytes: 0,
            h2d_transfers: 0,
            d2h_transfers: 0,
        }
    }

    /// Compresses every later transfer in both directions.
    pub fn enable_compression(&mut self, compression: PcieCompression) {
        self.compression = Some(compression);
    }

    /// Cycles a host-to-device transfer of `bytes` occupies the pipe
    /// (including compression latency when enabled).
    pub fn h2d_cycles(&self, bytes: u64) -> Cycle {
        self.cycles(bytes, self.h2d_bytes_per_sec)
    }

    /// Cycles a device-to-host transfer of `bytes` occupies the pipe.
    pub fn d2h_cycles(&self, bytes: u64) -> Cycle {
        self.cycles(bytes, self.d2h_bytes_per_sec)
    }

    fn cycles(&self, bytes: u64, bw: u64) -> Cycle {
        match self.compression {
            Some(c) => transfer_cycles(c.wire_bytes(bytes), bw) + c.per_page_latency,
            None => transfer_cycles(bytes, bw),
        }
    }

    /// Schedules a host-to-device transfer of `bytes` that may not start
    /// before `earliest`.
    pub fn schedule_h2d(&mut self, earliest: Cycle, bytes: u64) -> Transfer {
        let start = self.h2d_free.max(earliest);
        let end = start + self.h2d_cycles(bytes);
        self.h2d_free = end;
        self.h2d_bytes += bytes;
        self.h2d_transfers += 1;
        Transfer { start, end }
    }

    /// Schedules a device-to-host transfer of `bytes` that may not start
    /// before `earliest`.
    pub fn schedule_d2h(&mut self, earliest: Cycle, bytes: u64) -> Transfer {
        let start = self.d2h_free.max(earliest);
        let end = start + self.d2h_cycles(bytes);
        self.d2h_free = end;
        self.d2h_bytes += bytes;
        self.d2h_transfers += 1;
        Transfer { start, end }
    }

    /// Next cycle at which the host-to-device pipe is free.
    pub fn h2d_free_at(&self) -> Cycle {
        self.h2d_free
    }

    /// Blocks the host-to-device pipe until at least `until` (used by the
    /// baseline to serialize a migration behind an eviction).
    pub fn stall_h2d_until(&mut self, until: Cycle) {
        self.h2d_free = self.h2d_free.max(until);
    }

    /// Total logical bytes moved host-to-device.
    pub fn h2d_total_bytes(&self) -> u64 {
        self.h2d_bytes
    }

    /// Total logical bytes moved device-to-host.
    pub fn d2h_total_bytes(&self) -> u64 {
        self.d2h_bytes
    }

    /// Transfers performed in each direction `(h2d, d2h)`.
    pub fn transfer_counts(&self) -> (u64, u64) {
        (self.h2d_transfers, self.d2h_transfers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipes() -> PciePipes {
        PciePipes::new(15_750_000_000, 17_300_000_000)
    }

    #[test]
    fn page_transfer_time_matches_table1() {
        let p = pipes();
        // 64 KB at 15.75 GB/s ≈ 4161 ns (we round up).
        assert_eq!(p.h2d_cycles(64 * 1024), 4162);
        // The D2H direction is faster (§4.2).
        assert!(p.d2h_cycles(64 * 1024) < p.h2d_cycles(64 * 1024));
    }

    #[test]
    fn pipes_serialize_within_direction() {
        let mut p = pipes();
        let a = p.schedule_h2d(0, 64 * 1024);
        let b = p.schedule_h2d(0, 64 * 1024);
        assert_eq!(a.start, 0);
        assert_eq!(b.start, a.end);
        assert_eq!(b.end - b.start, a.end - a.start);
    }

    #[test]
    fn directions_are_independent() {
        let mut p = pipes();
        let a = p.schedule_h2d(0, 64 * 1024);
        let b = p.schedule_d2h(0, 64 * 1024);
        // Full duplex: both start immediately.
        assert_eq!(a.start, 0);
        assert_eq!(b.start, 0);
    }

    #[test]
    fn earliest_constraint_respected() {
        let mut p = pipes();
        let t = p.schedule_h2d(10_000, 64 * 1024);
        assert_eq!(t.start, 10_000);
    }

    #[test]
    fn stall_pushes_pipe() {
        let mut p = pipes();
        p.stall_h2d_until(5_000);
        let t = p.schedule_h2d(0, 64 * 1024);
        assert_eq!(t.start, 5_000);
    }

    #[test]
    fn compression_shortens_transfers_but_adds_latency() {
        let mut p = pipes();
        p.enable_compression(PcieCompression { ratio_x100: 200, per_page_latency: 100 });
        let plain = pipes().h2d_cycles(64 * 1024);
        let compressed = p.h2d_cycles(64 * 1024);
        // Half the bytes plus 100 cycles: still a clear win for big pages.
        assert!(compressed < plain);
        assert_eq!(compressed, 2081 + 100);
    }

    #[test]
    fn byte_and_transfer_accounting() {
        let mut p = pipes();
        p.schedule_h2d(0, 100);
        p.schedule_h2d(0, 200);
        p.schedule_d2h(0, 50);
        assert_eq!(p.h2d_total_bytes(), 300);
        assert_eq!(p.d2h_total_bytes(), 50);
        assert_eq!(p.transfer_counts(), (2, 1));
    }
}
