//! [`Simulation`] and [`SimulationBuilder`]: the public entry point.

use batmem_etc::EtcConfig;
use batmem_sim::ops::Workload;
use batmem_types::policy::PolicyConfig;
use batmem_types::probe::{Probe, ProbeHub};
use batmem_types::{AuditLevel, SimConfig, SimError};
use batmem_uvm::registry::{eviction_spec_of, prefetch_spec_of};
use batmem_uvm::{
    CoalesceStrategy, EvictionStrategy, FaultServicingModel, InjectConfig, OversubscriptionHandler,
    PolicyRegistry, Prefetcher, StrategyCtx,
};

use super::Engine;
use crate::metrics::RunMetrics;

/// Entry point: configure with [`Simulation::builder`], then
/// [`SimulationBuilder::try_run`] (returns a typed [`SimError`]).
#[derive(Debug)]
pub struct Simulation;

impl Simulation {
    /// Starts building a simulation.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::default()
    }
}

/// Builder for a simulation run.
#[derive(Debug, Default)]
pub struct SimulationBuilder {
    config: SimConfig,
    etc: EtcConfig,
    memory_ratio: Option<f64>,
    inject: Option<InjectConfig>,
    probes: ProbeHub,
    registry: PolicyRegistry,
    eviction_spec: Option<String>,
    prefetch_spec: Option<String>,
    oversub_spec: Option<String>,
    coalesce_spec: Option<String>,
    fault_servicing_spec: Option<String>,
}

impl SimulationBuilder {
    /// Replaces the full system configuration (defaults to Table 1).
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the policy knobs (see [`crate::policies`]).
    pub fn policy(mut self, policy: PolicyConfig) -> Self {
        self.config.policy = policy;
        self
    }

    /// Enables the ETC framework with `etc`.
    pub fn etc(mut self, etc: EtcConfig) -> Self {
        self.etc = etc;
        self
    }

    /// Replaces the policy registry the spec strings resolve against
    /// (defaults to [`PolicyRegistry::builtin`]). Register a custom
    /// strategy, pass the registry here, and name it via
    /// [`eviction`](Self::eviction)/[`prefetch`](Self::prefetch)/
    /// [`oversubscription`](Self::oversubscription) — no engine changes
    /// needed.
    pub fn registry(mut self, registry: PolicyRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Selects the eviction strategy by registry spec (`lru`, `ue`,
    /// `ideal`, `random:7`). Overrides the [`policy`](Self::policy)
    /// preset's eviction knob.
    pub fn eviction(mut self, spec: impl Into<String>) -> Self {
        self.eviction_spec = Some(spec.into());
        self
    }

    /// Selects the prefetcher by registry spec (`none`, `tree:50`).
    /// Overrides the [`policy`](Self::policy) preset's prefetch knob.
    pub fn prefetch(mut self, spec: impl Into<String>) -> Self {
        self.prefetch_spec = Some(spec.into());
        self
    }

    /// Selects the oversubscription handling by registry spec (`none`,
    /// `to`, `to:any`, `etc`, `etc:25`, `adaptive`, `adaptive:100000`).
    /// Overrides both the [`policy`](Self::policy) preset's TO knob and
    /// any [`etc`](Self::etc) framework configuration. The `adaptive`
    /// spec additionally attaches an internal probe that closes the
    /// sensing loop; it reads only in-simulation events, so runs stay
    /// deterministic.
    pub fn oversubscription(mut self, spec: impl Into<String>) -> Self {
        self.oversub_spec = Some(spec.into());
        self
    }

    /// Selects the fault-servicing cost model by registry spec (`cpu`,
    /// `gpu-driven`, `gpu-driven:500`). Defaults to `cpu`, the classic
    /// host-driver far-fault path, which keeps the timing arithmetic
    /// bit-identical to the classic model.
    pub fn fault_servicing(mut self, spec: impl Into<String>) -> Self {
        self.fault_servicing_spec = Some(spec.into());
        self
    }

    /// Selects the large-page coalescing policy by registry spec (`off`,
    /// `greedy`, `greedy:75`, `splinter:on-evict`). Defaults to `off`,
    /// which keeps the single-granularity translation path bit-identical
    /// to the classic model.
    pub fn coalesce(mut self, spec: impl Into<String>) -> Self {
        self.coalesce_spec = Some(spec.into());
        self
    }

    /// Sizes GPU memory as `ratio` × the workload footprint (the paper's
    /// oversubscription ratio; 0.5 = "50% memory oversubscription", 1.0 or
    /// more = everything fits).
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not positive.
    pub fn memory_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio > 0.0, "memory ratio must be positive");
        self.memory_ratio = Some(ratio);
        self
    }

    /// Sizes GPU memory to an absolute number of pages.
    pub fn memory_pages(mut self, pages: u64) -> Self {
        self.config.uvm.gpu_mem_pages = Some(pages);
        self
    }

    /// Sets the invariant-audit level (see [`AuditLevel`]). When enabled,
    /// the run re-derives the UVM runtime's conservation laws after every
    /// event and fails with [`SimError::InvariantViolated`] on a breach.
    pub fn audit(mut self, level: AuditLevel) -> Self {
        self.config.audit = level;
        self
    }

    /// Arms deterministic fault injection (see [`InjectConfig`]).
    pub fn inject(mut self, inject: InjectConfig) -> Self {
        self.inject = Some(inject);
        self
    }

    /// Attaches an observer of the run's typed event stream (see
    /// [`Probe`]). Call repeatedly to attach several — events fan out to
    /// all of them in attachment order. With no probe attached the engine
    /// never constructs an event, so the hot path is unchanged.
    ///
    /// Shipped probes live in [`crate::probes`]: a bounded structured
    /// tracer, a per-batch timeline aggregator, and a CSV/JSON metrics
    /// sink. They are cheap handles: clone one, attach the clone, and read
    /// the results from the original after the run.
    pub fn probe(mut self, probe: impl Probe + 'static) -> Self {
        self.probes.attach(Box::new(probe));
        self
    }

    /// Overrides the forward-progress watchdog budget: the run fails with
    /// [`SimError::Livelock`] after this many consecutive events without
    /// forward progress. `0` disables the watchdog.
    pub fn watchdog_budget(mut self, events: u64) -> Self {
        self.config.watchdog_event_budget = events;
        self
    }

    /// Runs `workload` to completion, returning a typed [`SimError`]
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidConfig`] / [`SimError::UnknownPolicy`] — the
    ///   configuration failed [`SimConfig::validate`], a policy spec did
    ///   not resolve, or the memory ratio / workload shape is degenerate;
    ///   nothing was simulated.
    /// * [`SimError::StateMachine`] / [`SimError::Accounting`] — an engine
    ///   bug surfaced mid-run; the error carries the cycle and state.
    /// * [`SimError::InvariantViolated`] — an enabled audit found a
    ///   conservation law broken (see [`audit`](Self::audit)).
    /// * [`SimError::Livelock`] / [`SimError::Deadlock`] — the watchdog or
    ///   the end-of-run check caught a run that stopped making progress.
    pub fn try_run(mut self, workload: Box<dyn Workload>) -> Result<RunMetrics, SimError> {
        self.config.validate()?;
        // Resolve the oversubscription spec first: it rewrites the TO knobs
        // and the ETC framework configuration that the sizing logic below
        // consumes.
        let (oversub, signals) = match &self.oversub_spec {
            Some(spec) => {
                let sel = self.registry.build_oversubscription(spec)?;
                self.config.policy.oversubscription = sel.to;
                self.etc = sel.etc.unwrap_or_default();
                // A closed-loop handler ships its own sensor: attach it to
                // the hub like any user probe so it sees the event stream.
                if let Some(probe) = sel.probe {
                    self.probes.attach(probe);
                }
                (sel.handler, sel.signals)
            }
            None => (
                Box::new(batmem_uvm::OversubController::new(self.config.policy.oversubscription))
                    as Box<dyn OversubscriptionHandler>,
                None,
            ),
        };
        let servicing: Box<dyn FaultServicingModel> =
            self.registry.build_servicing(self.fault_servicing_spec.as_deref().unwrap_or("cpu"))?;
        let ctx = StrategyCtx { pages_per_region: self.config.uvm.pages_per_region() };
        let eviction: Box<dyn EvictionStrategy> = match &self.eviction_spec {
            Some(spec) => self.registry.build_eviction(spec, &ctx)?,
            None => self.registry.build_eviction(eviction_spec_of(self.config.policy.eviction), &ctx)?,
        };
        let prefetcher: Box<dyn Prefetcher> = match &self.prefetch_spec {
            Some(spec) => self.registry.build_prefetcher(spec, &ctx)?,
            None => {
                self.registry.build_prefetcher(&prefetch_spec_of(self.config.policy.prefetch), &ctx)?
            }
        };
        let coalesce: Box<dyn CoalesceStrategy> =
            self.registry.build_coalesce(self.coalesce_spec.as_deref().unwrap_or("off"))?;
        if let Some(ratio) = self.memory_ratio {
            if !ratio.is_finite() || ratio <= 0.0 {
                return Err(SimError::invalid_config(
                    "memory_ratio",
                    format!("must be a positive finite multiple of the footprint, got {ratio}"),
                ));
            }
        }
        if workload.num_kernels() == 0 {
            return Err(SimError::invalid_config("workload", "launches no kernels"));
        }
        let footprint = workload.footprint_bytes();
        let page_bytes = self.config.uvm.page_bytes();
        let footprint_pages = footprint.div_ceil(page_bytes).max(1);
        if let Some(ratio) = self.memory_ratio {
            let pages = ((footprint_pages as f64 * ratio).ceil() as u64).max(1);
            self.config.uvm.gpu_mem_pages = Some(pages);
        }
        if self.etc.enabled {
            if let Some(p) = self.config.uvm.gpu_mem_pages {
                // Capacity compression inflates effective capacity.
                self.config.uvm.gpu_mem_pages = Some(self.etc.effective_capacity(p));
            }
            if self.etc.proactive_eviction {
                self.config.policy.proactive_eviction = true;
            }
        }
        Engine::new(
            self.config,
            self.etc,
            self.inject,
            self.probes,
            workload,
            footprint_pages,
            eviction,
            prefetcher,
            coalesce,
            oversub,
            servicing,
            signals,
        )
        .run()
    }
}
