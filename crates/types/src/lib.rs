//! Shared newtypes, units, and configuration for the `batmem` GPU UVM simulator.
//!
//! This crate is the vocabulary layer of the workspace: every other crate
//! speaks in the types defined here. It contains no simulation logic.
//!
//! # Overview
//!
//! * [`addr`] — virtual/physical addresses, pages, frames, and 2 MB regions.
//! * [`ids`] — identifiers for SMs, thread blocks, warps, and kernels.
//! * [`time`] — the simulated clock ([`Cycle`]) and time-unit conversions.
//! * [`config`] — the full simulated-system configuration, whose defaults
//!   reproduce Table 1 of Kim et al., *Batch-Aware Unified Memory Management
//!   in GPUs for Irregular Workloads* (ASPLOS 2020).
//! * [`policy`] — the policy setting no policy spec names (PCIe
//!   compression parameters) and the types the specs resolve to.
//! * [`dense`] — one bitmap set and one flat map over dense page and
//!   region ids, backing every per-page and per-region table.
//! * [`error`] — structured simulation errors ([`SimError`]) and the
//!   invariant-audit knob ([`AuditLevel`]).
//! * [`probe`] — the pluggable observation layer: the [`Probe`] trait, the
//!   typed [`ProbeEvent`] stream, and the fan-out plumbing the engine and
//!   UVM runtime emit through.
//! * [`rng`] — the deterministic seeded generator used wherever the
//!   simulator needs reproducible randomness.
//! * [`sweep`] — sweep-service vocabulary: stable config hashing
//!   ([`sweep::CellId`]), typed per-cell outcomes, and bounded retry
//!   backoff shared by the bench harness's parallel runner.
//!
//! # Examples
//!
//! ```
//! use batmem_types::config::SimConfig;
//! use batmem_types::addr::VirtAddr;
//!
//! let config = SimConfig::default();
//! assert_eq!(config.gpu.num_sms, 16);
//! let page = config.uvm.geometry.page_of(VirtAddr::new(0x1_0000));
//! assert_eq!(page.index(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod config;
pub mod dense;
pub mod error;
pub mod ids;
pub mod policy;
pub mod probe;
pub mod rng;
pub mod sweep;
pub mod time;

pub use addr::{FrameId, PageGeometry, PageId, RegionId, VirtAddr};
pub use config::SimConfig;
pub use error::{AuditLevel, SimError};
pub use ids::{BlockId, KernelId, SmId, WarpId};
pub use probe::{EvictionCause, Probe, ProbeEvent, ProbeHub, SharedProbes};
pub use rng::DetRng;
pub use sweep::{Backoff, CellId, OutcomeKind, StableHasher};
pub use time::Cycle;
