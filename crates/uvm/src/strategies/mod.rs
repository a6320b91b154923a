//! Pluggable strategy traits for the staged fault pipeline, and the
//! built-in implementations.
//!
//! Each decision point of the pipeline (see [`crate::pipeline`]) is a
//! trait object owned by the runtime:
//!
//! * [`EvictionStrategy`] — victim selection and device-to-host transfer
//!   scheduling ([`serialized_lru`], [`unobtrusive`], [`ideal`], and
//!   [`random_victim`], a victim-selection ablation outside the paper);
//! * [`Prefetcher`] — batch-time page expansion ([`tree`], [`no_prefetch`]);
//! * [`CoalesceStrategy`] — multi-page-size promotion/splinter decisions
//!   ([`coalesce`]);
//! * [`FaultServicingModel`] — fault-servicing cost model ([`servicing`]).
//!
//! Strategies are constructed by name through the policy tables of
//! [`registry`](crate::registry); the pipeline core never matches on a
//! strategy's name, so a new strategy is a new module plus one table row —
//! zero diff inside the pipeline. The oversubscription axis is not a trait:
//! its spec resolves to one [`Oversubscription`](crate::oversub::Oversubscription)
//! value that the engine consults.

pub mod coalesce;
pub mod ideal;
pub mod no_prefetch;
pub mod random_victim;
pub mod serialized_lru;
pub mod servicing;
pub mod tree;
pub mod unobtrusive;

pub use coalesce::{CoalesceOff, CoalesceStrategy, GreedyCoalesce, SplinterOnEvict};
pub use ideal::IdealEviction;
pub use no_prefetch::NoPrefetch;
pub use random_victim::RandomVictim;
pub use serialized_lru::SerializedLruEviction;
pub use servicing::{CpuServicing, FaultServicingModel, GpuDrivenServicing, ServicingCounters};
pub use unobtrusive::UnobtrusiveEviction;

use crate::memmgr::MemoryManager;
use crate::pcie::PciePipes;
use batmem_types::{Cycle, PageId};

/// When an evicted frame becomes reusable, as decided by an
/// [`EvictionStrategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionTiming {
    /// A device-to-host transfer was scheduled: the victim's page-table
    /// entry dies at `start` (TLB shootdown) and the frame is free at
    /// `ready`.
    Transfer {
        /// When the eviction transfer claims the device-to-host pipe.
        start: Cycle,
        /// When the freed frame becomes available.
        ready: Cycle,
    },
    /// The frame frees instantly with no transfer (the ideal limit study);
    /// the pipeline defers the shootdown to the consuming migration's
    /// start, the most favorable consistent schedule.
    Instant,
}

/// Victim selection + eviction transfer scheduling (the pipeline's
/// residency/eviction stage).
pub trait EvictionStrategy: std::fmt::Debug + Send {
    /// Registry name this strategy was built under (diagnostics).
    fn name(&self) -> &'static str;

    /// Picks the page to evict for one frame. `pinned` marks pages of the
    /// open batch, which must not be selected unless the batch itself
    /// overflows capacity — in that case return `forced = true`. `None`
    /// means nothing is resident.
    ///
    /// The default is the memory manager's LRU policy (the head of the
    /// aged-LRU list).
    fn pick_victim(
        &mut self,
        mem: &MemoryManager,
        pinned: &dyn Fn(PageId) -> bool,
    ) -> Option<(PageId, bool)> {
        mem.pick_victim(pinned)
    }

    /// Schedules one victim's eviction on the PCIe pipes. `avail` is the
    /// earliest cycle the victim's data may leave (it may still be
    /// arriving), `page_bytes` the transfer size.
    fn schedule(&mut self, pipes: &mut PciePipes, avail: Cycle, page_bytes: u64) -> EvictionTiming;

    /// Whether the top-half ISR should issue one preemptive eviction at
    /// batch start when memory is at capacity (§4.2 of the paper).
    fn preemptive(&self) -> bool {
        false
    }
}

/// Batch-time page expansion (the pipeline's prefetch-expansion stage).
pub trait Prefetcher: std::fmt::Debug + Send {
    /// Registry name this strategy was built under (diagnostics).
    fn name(&self) -> &'static str;

    /// Expands a batch's faulted pages with prefetch candidates. `covered`
    /// reports pages already resident (they count toward density but must
    /// not be re-issued); `valid_pages` bounds the address space.
    fn expand(
        &mut self,
        faulted: &[PageId],
        covered: &dyn Fn(PageId) -> bool,
        valid_pages: u64,
    ) -> Vec<PageId>;

    /// Total prefetches issued so far.
    fn issued(&self) -> u64;
}
