//! Ideal (zero-latency) eviction — the limit study of Fig. 8.

use super::{EvictionStrategy, EvictionTiming};
use crate::pcie::PciePipes;
use batmem_types::Cycle;

/// Zero-cost eviction: the frame is usable immediately and no
/// device-to-host transfer is scheduled. The pipeline keeps the victim's
/// page-table entry alive until the frame's consumer actually starts
/// transferring — the most favorable consistent schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealEviction;

impl EvictionStrategy for IdealEviction {
    fn name(&self) -> &'static str {
        "ideal"
    }

    fn schedule(
        &mut self,
        _pipes: &mut PciePipes,
        _avail: Cycle,
        _page_bytes: u64,
    ) -> EvictionTiming {
        EvictionTiming::Instant
    }
}
