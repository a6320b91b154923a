//! GPU timing-model machinery for the `batmem` simulator.
//!
//! This crate provides the building blocks of the event-driven GPU core
//! model:
//!
//! * [`ops`] — the warp-level operation vocabulary ([`ops::WarpOp`]) and the
//!   traits workloads implement to describe kernels as lazy per-warp access
//!   streams ([`ops::Workload`], [`ops::Kernel`], [`ops::AccessStream`]);
//! * [`events`] — a deterministic discrete-event queue;
//! * [`cache`] — set-associative LRU data caches and the L1→L2→DRAM data
//!   path;
//! * [`warp`] / [`block`] — warp and thread-block execution state machines;
//! * [`sm`] — streaming-multiprocessor occupancy accounting and the
//!   Virtual-Thread (VT) context-switch bookkeeping that Thread
//!   Oversubscription builds on (§4.1 of the paper).
//!
//! The end-to-end engine that wires these to the MMU and the UVM runtime
//! lives in the `batmem` core crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod cache;
pub mod events;
pub mod ops;
pub mod sm;
pub mod warp;
mod wheel;

pub use block::{BlockContext, BlockResidency};
pub use cache::{DataCache, MemPath};
pub use events::{EventQueue, SchedulerOccupancy};
pub use ops::{AccessStream, Kernel, KernelSpec, OpKind, WarpOp, Workload};
pub use sm::{Occupancy, Sm};
pub use warp::{WarpContext, WarpPhase};
