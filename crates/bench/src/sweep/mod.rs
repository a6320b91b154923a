//! The fault-tolerant parallel sweep service.
//!
//! A [`SweepPlan`] (cartesian spec of workloads × policies × scales ×
//! ratios × seeds) expands into content-hashed [`SweepCell`]s, which flow
//! through a bounded job queue into a pool of worker threads — each owning
//! an independent `Simulation` — while a results thread streams each run's
//! [`batmem::probes::MetricsRow`] into a resumable on-disk
//! [`ArtifactStore`]. See [`pool`] for the robustness contract (panic
//! isolation, wall-clock deadlines, retry/backoff, graceful drain) and
//! [`store`] for the resume protocol.
//!
//! ```no_run
//! use batmem_bench::sweep::{self, ArtifactStore, PoolConfig, SweepPlan};
//! use std::sync::atomic::AtomicBool;
//!
//! let plan = SweepPlan { scales: vec![8], edge_factors: vec![4], ..SweepPlan::default() };
//! let store = ArtifactStore::open("artifacts/sweep-store").unwrap();
//! let cancel = AtomicBool::new(false);
//! let runner = sweep::cell_runner(Default::default());
//! let report = sweep::run_sweep(
//!     &plan.cells().unwrap(), &store, &PoolConfig::default(), &cancel, runner,
//! ).unwrap();
//! assert!(report.failures().is_empty());
//! ```

mod json;
pub mod outcome;
pub mod plan;
pub mod pool;
pub mod store;

pub use outcome::{AttemptOutcome, CellRecord};
pub use plan::{CellPolicy, SweepCell, SweepPlan};
pub use pool::{run_sweep, CellRunner, PoolConfig, SweepReport};
pub use store::{ArtifactStore, LoadedStore};

use crate::error::BenchError;
use crate::runner::run_workload;
use batmem::probes::MetricsRow;
use batmem::SimConfig;
use batmem_graph::{gen, Csr};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A thread-safe cache of generated R-MAT graphs keyed by
/// `(scale, edge_factor, seed)`, so the pool generates each input once
/// however many cells share it.
#[derive(Debug, Default)]
pub struct GraphCache {
    graphs: Mutex<HashMap<(u32, u32, u64), Arc<Csr>>>,
}

impl GraphCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The graph at `(scale, edge_factor, seed)`, generating it on first
    /// use.
    pub fn get(&self, scale: u32, edge_factor: u32, seed: u64) -> Arc<Csr> {
        // Generation happens under the lock: the first requester builds the
        // graph while sharers wait, rather than racing to build duplicates.
        let mut graphs = self.graphs.lock().expect("graph cache lock poisoned");
        Arc::clone(
            graphs
                .entry((scale, edge_factor, seed))
                .or_insert_with(|| Arc::new(gen::rmat(scale, edge_factor, seed))),
        )
    }

    /// Graphs currently cached.
    pub fn len(&self) -> usize {
        self.graphs.lock().expect("graph cache lock poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The input scale for `workload` at suite or plan scale `scale`. Like the
/// paper (whose GraphBIG datasets differ per benchmark), the coloring
/// workloads run a smaller input: their kernels re-expand every
/// still-uncolored hub each round, which costs quadratically more
/// simulation work per vertex than the traversal workloads.
pub(crate) fn input_scale(workload: &str, scale: u32) -> u32 {
    if workload.starts_with("GC-") {
        scale.saturating_sub(3).max(8)
    } else {
        scale
    }
}

/// Runs one cell to its metrics row: builds (or reuses) the input graph
/// and runs the cell's workload, policy spec, memory ratio and injection
/// spec through the same path as [`run_one`](crate::runner::run_one).
///
/// # Errors
///
/// Unknown workloads, unknown policy/inject specs, invalid configs, and
/// simulation failures all come back as [`BenchError`] — the pool's retry
/// and quarantine machinery consumes them.
pub fn run_cell(
    cell: &SweepCell,
    sim: &SimConfig,
    graphs: &GraphCache,
) -> Result<MetricsRow, BenchError> {
    let graph = graphs.get(input_scale(&cell.workload, cell.scale), cell.edge_factor, cell.seed);
    let label = cell.label();
    let run = run_workload(
        &cell.workload,
        graph,
        sim,
        cell.policy_spec(),
        cell.policy.memory_ratio(cell.ratio),
        cell.inject.as_deref(),
        &label,
    )?;
    Ok(MetricsRow::from_run(label, &run))
}

/// The production [`CellRunner`]: [`run_cell`] over a fresh shared
/// [`GraphCache`], with every cell using `sim` as the base system
/// configuration.
pub fn cell_runner(sim: SimConfig) -> CellRunner {
    let graphs = Arc::new(GraphCache::new());
    Arc::new(move |cell: &SweepCell| run_cell(cell, &sim, &graphs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use batmem::policies::ConfigName;

    #[test]
    fn graph_cache_shares_instances() {
        let cache = GraphCache::new();
        assert!(cache.is_empty());
        let a = cache.get(6, 2, 1);
        let b = cache.get(6, 2, 1);
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.get(6, 2, 2);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn coloring_workloads_get_the_reduced_input_scale() {
        assert_eq!(input_scale("GC-TTC", 15), 12);
        assert_eq!(input_scale("GC-DTC", 9), 8);
        assert_eq!(input_scale("BFS-TTC", 15), 15);
    }

    #[test]
    fn run_cell_reports_unknown_specs_as_typed_errors() {
        let graphs = GraphCache::new();
        let cell = SweepCell {
            workload: "BFS-TTC".into(),
            policy: CellPolicy::Preset(ConfigName::Baseline),
            scale: 6,
            edge_factor: 2,
            ratio: 0.5,
            seed: 1,
            inject: Some("chaos".into()),
            coalesce: None,
            fault_servicing: None,
            tag: String::new(),
        };
        let err = run_cell(&cell, &SimConfig::default(), &graphs).unwrap_err();
        assert!(err.to_string().contains("unknown inject policy"), "{err}");
    }
}
