//! [`Simulation`] and [`SimulationBuilder`]: the public entry point.

use batmem_sim::ops::Workload;
use batmem_types::probe::{Probe, ProbeHub};
use batmem_types::{AuditLevel, SimConfig, SimError};
use batmem_uvm::InjectConfig;

use super::Engine;
use crate::metrics::RunMetrics;
use crate::policies::PolicySpec;

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
///
/// The run's policy is one [`PolicySpec`] (default `BASELINE`).
/// [`policy`](Self::policy) replaces the whole spec and each per-axis
/// setter replaces one axis of it, so call `policy` first: an axis set
/// before it is lost.
#[derive(Debug, Default)]
pub struct SimulationBuilder {
    config: SimConfig,
    policy: PolicySpec,
    memory_ratio: Option<f64>,
    inject: Option<InjectConfig>,
    probes: ProbeHub,
}

impl SimulationBuilder {
    /// Replaces the full system configuration (defaults to Table 1).
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the policy spec (see [`crate::policies`]).
    pub fn policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the eviction spec (`lru`, `ue`, `ideal`, `random:7`).
    pub fn eviction(mut self, spec: impl Into<String>) -> Self {
        self.policy.eviction = spec.into();
        self
    }

    /// Sets the prefetch spec (`none`, `tree:50`).
    pub fn prefetch(mut self, spec: impl Into<String>) -> Self {
        self.policy.prefetch = spec.into();
        self
    }

    /// Sets the oversubscription spec (`none`, `to`, `to:any`, `etc`,
    /// `etc:25`, `etc:50:pe`, `adaptive`, `adaptive:100000`). The
    /// `adaptive` spec additionally attaches an internal probe that closes
    /// the sensing loop; it reads only in-simulation events, so runs stay
    /// deterministic.
    pub fn oversubscription(mut self, spec: impl Into<String>) -> Self {
        self.policy.oversubscription = spec.into();
        self
    }

    /// Sets the fault-servicing spec (`cpu`, `gpu-driven`,
    /// `gpu-driven:500`). `cpu`, the default, is the classic host-driver
    /// far-fault path, which keeps the timing arithmetic bit-identical to
    /// the classic model.
    pub fn fault_servicing(mut self, spec: impl Into<String>) -> Self {
        self.policy.fault_servicing = spec.into();
        self
    }

    /// Sets the large-page coalescing spec (`off`, `greedy`, `greedy:75`,
    /// `splinter:on-evict`). `off`, the default, keeps the
    /// single-granularity translation path bit-identical to the classic
    /// model.
    pub fn coalesce(mut self, spec: impl Into<String>) -> Self {
        self.policy.coalesce = spec.into();
        self
    }

    /// Sizes GPU memory as `ratio` × the workload footprint (the paper's
    /// oversubscription ratio; 0.5 = "50% memory oversubscription", 1.0 or
    /// more = everything fits). [`try_run`](Self::try_run) rejects a ratio
    /// that is not a positive finite number.
    pub fn memory_ratio(mut self, ratio: f64) -> Self {
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
    /// The shipped probe is [`crate::probes::Tracer`], a bounded
    /// structured trace. It is a cheap handle: clone it, attach the clone,
    /// and read the events from the original after the run.
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
    ///   configuration failed [`SimConfig::validate`], a policy spec or its
    ///   page size did not resolve, the memory ratio is not a positive
    ///   finite number, or the workload launches no kernels; nothing was
    ///   simulated.
    /// * [`SimError::StateMachine`] / [`SimError::Accounting`] — an engine
    ///   bug surfaced mid-run; the error carries the cycle and state.
    /// * [`SimError::InvariantViolated`] — an enabled audit found a
    ///   conservation law broken (see [`audit`](Self::audit)).
    /// * [`SimError::Livelock`] / [`SimError::Deadlock`] — the watchdog or
    ///   the end-of-run check caught a run that stopped making progress.
    pub fn try_run(self, workload: Box<dyn Workload>) -> Result<RunMetrics, SimError> {
        self.build(workload)?.run()
    }

    /// Validates the configuration and builds the engine for `workload`
    /// without running it (see [`try_run`](Self::try_run)).
    pub(super) fn build(mut self, workload: Box<dyn Workload>) -> Result<Engine, SimError> {
        self.config.validate()?;
        let policy = self.policy.resolve(&mut self.config.uvm)?;
        // The adaptive loop's sensor rides the hub after any user probe, so
        // it sees the same event stream.
        if let Some(probe) = policy.oversub.adaptive_probe() {
            self.probes.attach(Box::new(probe));
        }
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
        // ETC's capacity compression inflates effective capacity.
        if let Some(pages) = &mut self.config.uvm.gpu_mem_pages {
            *pages = policy.oversub.effective_capacity(*pages);
        }
        Ok(Engine::new(self.config, self.inject, self.probes, workload, footprint_pages, policy))
    }
}
