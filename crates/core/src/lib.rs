//! `batmem` — batch-aware unified memory management for GPUs.
//!
//! A from-scratch Rust reproduction of Kim et al., *Batch-Aware Unified
//! Memory Management in GPUs for Irregular Workloads* (ASPLOS 2020): a
//! cycle-level GPU + UVM demand-paging simulator implementing the paper's
//! baseline (tree prefetching, serialized LRU eviction), its two proposed
//! mechanisms — **Thread Oversubscription (TO)** and **Unobtrusive Eviction
//! (UE)** — and the ETC comparison framework.
//!
//! # Quickstart
//!
//! ```
//! use batmem::{Simulation, policies};
//! use batmem_workloads::registry;
//! use batmem_graph::gen;
//! use std::sync::Arc;
//!
//! let graph = Arc::new(gen::rmat(8, 4, 42));
//! let workload = registry::build("BFS-TTC", graph).unwrap();
//!
//! let metrics = Simulation::builder()
//!     .policy(policies::to_ue())        // the paper's proposal
//!     .memory_ratio(0.5)                // 50% memory oversubscription
//!     .try_run(workload)
//!     .unwrap();
//!
//! assert!(metrics.cycles > 0);
//! assert!(metrics.uvm.num_batches() > 0);
//! ```
//!
//! To observe a run rather than just its end-state, attach probes (see
//! [`probes`] and [`SimulationBuilder::probe`]):
//!
//! ```
//! use batmem::{policies, Simulation};
//! use batmem::probes::Tracer;
//! use batmem_workloads::synthetic::Strided;
//!
//! let tracer = Tracer::bounded(64 * 1024);
//! let metrics = Simulation::builder()
//!     .policy(policies::baseline())
//!     .probe(tracer.clone())
//!     .try_run(Box::new(Strided::new(1, 32, 32, 2, 0, 1)))
//!     .unwrap();
//! assert!(tracer.len() > 0);                 // structured JSONL events
//! assert_eq!(metrics.uvm.num_batches(), 1);  // per-batch records
//! ```
//!
//! The [`Simulation`] builder selects policies; [`RunMetrics`] carries
//! everything the paper's figures plot (batch counts and sizes, batch
//! processing times, premature evictions; speedups are ratios of
//! `cycles`). The `batmem-bench` crate regenerates every figure and table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod experiments;
mod metrics;
pub mod policies;
pub mod probes;

pub use engine::{Simulation, SimulationBuilder};
pub use metrics::RunMetrics;

pub use batmem_types::probe::{EvictionCause, Probe, ProbeEvent};

pub use batmem_etc::EtcConfig;
pub use batmem_types::config::SimConfig;
pub use batmem_types::policy::{PolicyAxis, PolicyConfig, PolicyDescriptor};
pub use batmem_uvm::{OversubSelection, PolicyRegistry, StrategyCtx};
