//! The UVM runtime model — the core contribution of the reproduced paper.
//!
//! This crate models how the GPU runtime software handles demand paging,
//! following the NVIDIA Pascal driver behaviour the paper dissects (§2.2,
//! §3) and implementing the paper's two proposals. Since the staged-
//! pipeline refactor the runtime is organized around explicit decision
//! points:
//!
//! * **the staged fault pipeline** ([`pipeline::UvmRuntime`]): fault
//!   capture → batch formation → prefetch expansion → residency/eviction
//!   decision → migration scheduling, one module per stage, scheduling
//!   page migrations over the PCIe pipes ([`pcie::PciePipes`]);
//! * **pluggable strategies** ([`strategies`]): each decision point is a
//!   trait — [`strategies::EvictionStrategy`] (the baseline's reactive,
//!   serialized eviction; the paper's **Unobtrusive Eviction** with a
//!   preemptive eviction at batch start and pipelined bidirectional
//!   transfers; the ideal zero-cost limit; a random-victim ablation),
//!   and [`strategies::Prefetcher`] ([`prefetch::TreePrefetcher`] or none);
//! * **the oversubscription scheme** ([`oversub::Oversubscription`]): off,
//!   Thread Oversubscription (the dynamic degree controller
//!   [`oversub::OversubController`] driven by the running average of page
//!   lifetimes, [`lifetime::LifetimeTracker`]; closed-loop with
//!   [`adaptive`]) or the ETC baseline (`batmem-etc`), one value the
//!   simulation engine consults;
//! * **the policy table** ([`registry`]): strategies are resolved by name
//!   (`lru`, `ue`, `tree:50`, `random:7`, `to`, `etc`) through one static
//!   table per axis, so a new policy is a strategy type plus one table row,
//!   without touching the pipeline core.
//!
//! The runtime is a pure state machine: the simulation engine feeds it
//! faults and events, and it returns [`pipeline::UvmOutput`] commands
//! (schedule event / install page / evict page) for the engine to apply to
//! the MMU and the event queue. This keeps it deterministic and unit-testable
//! without a GPU model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod batch;
pub mod fault;
pub mod inject;
pub mod lifetime;
pub mod memmgr;
pub mod oversub;
pub mod pcie;
pub mod pipeline;
pub mod prefetch;
pub mod registry;
pub mod stats;
pub mod strategies;

pub use adaptive::{AdaptiveProbe, AdaptiveSignals};
pub use batch::BatchRecord;
pub use fault::FaultBuffer;
pub use inject::{FaultInjector, InjectConfig, InjectStats};
pub use lifetime::LifetimeTracker;
pub use memmgr::MemoryManager;
pub use oversub::{OversubController, Oversubscription};
pub use pcie::PciePipes;
pub use pipeline::{UvmEvent, UvmOutput, UvmRuntime};
pub use prefetch::TreePrefetcher;
pub use registry::{PolicyRegistry, StrategyCtx};
pub use stats::UvmStats;
pub use strategies::{
    CoalesceOff, CoalesceStrategy, CpuServicing, EvictionStrategy, EvictionTiming,
    FaultServicingModel, GpuDrivenServicing, GreedyCoalesce, Prefetcher, ServicingCounters,
    SplinterOnEvict,
};
