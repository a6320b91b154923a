//! Virtual-memory substrate: page tables, TLBs, and the page-table walker.
//!
//! This crate models the GPU-side address-translation hardware the paper's
//! simulator extends MacSim with (§5.1):
//!
//! * a per-SM, fully associative **L1 TLB** and a shared, set-associative
//!   **L2 TLB** ([`tlb`]),
//! * a shared, **highly threaded page-table walker** (64 concurrent walks)
//!   with a page-walk cache ([`walker`]),
//! * the GPU **page table** mapping resident virtual pages to device frames
//!   ([`page_table`]),
//! * and [`Mmu`], the facade combining them: a single
//!   [`Mmu::translate`] call yields the translation latency and
//!   whether the access page-faults.
//!
//! # Examples
//!
//! ```
//! use batmem_types::{SimConfig, PageId, FrameId, SmId};
//! use batmem_vmem::{Mmu, TranslationOutcome};
//!
//! let config = SimConfig::default();
//! let mut mmu = Mmu::new(&config);
//! let page = PageId::new(7);
//!
//! // Non-resident page: the walk completes, then faults.
//! let t = mmu.translate(SmId::new(0), page, 0)?;
//! assert_eq!(t.outcome, TranslationOutcome::Fault);
//!
//! // Make it resident, then translation succeeds (and later hits the TLB).
//! mmu.install(page, FrameId::new(3), 500)?;
//! let t = mmu.translate(SmId::new(0), page, 1000)?;
//! assert_eq!(t.outcome, TranslationOutcome::Resident(FrameId::new(3)));
//! # Ok::<(), batmem_types::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mmu;
pub mod page_table;
pub mod tlb;
pub mod walker;

pub use mmu::{Mmu, MmuStats, Translation, TranslationOutcome};
pub use page_table::GpuPageTable;
pub use tlb::{Tlb, TlbStats};
pub use walker::PageTableWalker;
