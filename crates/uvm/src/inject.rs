//! Deterministic fault injection for robustness testing.
//!
//! The injector perturbs the UVM runtime at its natural seams — PCIe
//! scheduling, far-fault recording, prefetch expansion, and DMA completion
//! delivery — so tests can assert that every policy either completes or
//! returns a typed [`SimError`](batmem_types::SimError), never panicking or
//! hanging. All randomness comes from a seeded [`DetRng`], so a failing
//! injection run replays exactly.
//!
//! Injection is opt-in: a runtime without an injector behaves identically
//! to one built before this module existed (all hooks are `None`-guarded),
//! which keeps the cycle-exact unit tests and figure sweeps untouched.

use batmem_types::{Cycle, DetRng, SimError};

/// What to perturb and how hard. The default injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectConfig {
    /// Seed for the injector's private RNG.
    pub seed: u64,
    /// Maximum extra cycles of jitter added to each host-to-device page
    /// transfer, drawn uniformly from `0..=pcie_jitter_cycles`.
    pub pcie_jitter_cycles: Cycle,
    /// Every Nth host-to-device transfer additionally stalls for
    /// [`pcie_stall_cycles`](Self::pcie_stall_cycles) (0 disables).
    pub pcie_stall_every: u64,
    /// Length of an injected PCIe stall.
    pub pcie_stall_cycles: Cycle,
    /// Percent chance (0–100) that a recorded far-fault is delivered twice,
    /// modeling the spurious duplicate faults real fault buffers produce.
    pub duplicate_fault_pct: u8,
    /// Percent chance (0–100) that each prefetch candidate is silently
    /// dropped from the batch before migration planning.
    pub drop_prefetch_pct: u8,
    /// Every Nth `PageArrived` completion event is lost (0 disables). This
    /// models a dropped DMA completion interrupt and is the lever the
    /// livelock/deadlock tests use to strand a batch forever.
    pub drop_arrival_every: u64,
}

impl InjectConfig {
    /// A moderately hostile preset: jitter on every transfer, a stall every
    /// 16th transfer, and a few percent of duplicate faults and dropped
    /// prefetches. Completion events are still delivered, so simulations
    /// must finish — just slower and along different batch boundaries.
    pub fn noisy(seed: u64) -> Self {
        Self {
            seed,
            pcie_jitter_cycles: 2_000,
            pcie_stall_every: 16,
            pcie_stall_cycles: 50_000,
            duplicate_fault_pct: 5,
            drop_prefetch_pct: 10,
            drop_arrival_every: 0,
        }
    }

    /// Drops every Nth DMA completion: the simulation strands the affected
    /// batch and must be caught by the engine's deadlock detection or the
    /// forward-progress watchdog, depending on the policy.
    pub fn lost_completions(seed: u64, every: u64) -> Self {
        Self { seed, drop_arrival_every: every, ..Self::default() }
    }

    /// The injection spec names [`InjectConfig::parse_spec`] understands,
    /// comma-separated — the `known` list of the typed error.
    pub fn known_specs() -> &'static str {
        "off, noisy[:seed], lost[:seed[:every]]"
    }

    /// Parses a CLI injection spec (`--inject noisy:42`) into a config.
    ///
    /// Spec syntax mirrors the policy registry's `name[:param...]`:
    ///
    /// * `off` — no injection (`None`).
    /// * `noisy` / `noisy:<seed>` — [`InjectConfig::noisy`] (default seed
    ///   42).
    /// * `lost` / `lost:<seed>` / `lost:<seed>:<every>` —
    ///   [`InjectConfig::lost_completions`] (default seed 42, every 3rd
    ///   arrival dropped).
    ///
    /// # Errors
    ///
    /// Unknown preset names and malformed parameters return
    /// [`SimError::UnknownPolicy`] on the `inject` axis, listing
    /// [`InjectConfig::known_specs`] — same contract as the policy
    /// registry's spec lookups.
    pub fn parse_spec(spec: &str) -> Result<Option<Self>, SimError> {
        let unknown = || SimError::UnknownPolicy {
            axis: "inject",
            name: spec.to_string(),
            known: Self::known_specs().to_string(),
        };
        let mut parts = spec.split(':');
        let name = parts.next().unwrap_or("");
        let mut num = |default: u64| -> Result<u64, SimError> {
            match parts.next() {
                None => Ok(default),
                Some(p) => p.parse().map_err(|_| unknown()),
            }
        };
        let cfg = match name {
            "off" => None,
            "noisy" => Some(Self::noisy(num(42)?)),
            "lost" => {
                let seed = num(42)?;
                let every = num(3)?;
                Some(Self::lost_completions(seed, every))
            }
            _ => return Err(unknown()),
        };
        if parts.next().is_some() {
            return Err(unknown()); // trailing parameters
        }
        Ok(cfg)
    }
}

/// Counters for what the injector actually did, for test assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectStats {
    /// Total extra cycles added to transfers (jitter + stalls).
    pub extra_transfer_cycles: Cycle,
    /// Transfers that hit an injected stall.
    pub stalls: u64,
    /// Faults delivered twice.
    pub duplicated_faults: u64,
    /// Prefetch candidates removed from batches.
    pub dropped_prefetches: u64,
    /// `PageArrived` events swallowed.
    pub dropped_arrivals: u64,
}

/// The runtime-side injector: consulted at each hook point.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: InjectConfig,
    rng: DetRng,
    transfers: u64,
    arrivals: u64,
    stats: InjectStats,
}

impl FaultInjector {
    /// Creates an injector with its own RNG stream seeded from the config.
    pub fn new(cfg: InjectConfig) -> Self {
        Self {
            cfg,
            rng: DetRng::new(cfg.seed ^ 0xfa57_1e57_1a7e_5eed),
            transfers: 0,
            arrivals: 0,
            stats: InjectStats::default(),
        }
    }

    /// Extra latency to add to the next host-to-device page transfer.
    pub fn transfer_delay(&mut self) -> Cycle {
        self.transfers += 1;
        let mut extra = 0;
        if self.cfg.pcie_jitter_cycles > 0 {
            extra += self.rng.range_inclusive(0, self.cfg.pcie_jitter_cycles);
        }
        if self.cfg.pcie_stall_every > 0 && self.transfers.is_multiple_of(self.cfg.pcie_stall_every)
        {
            extra += self.cfg.pcie_stall_cycles;
            self.stats.stalls += 1;
        }
        self.stats.extra_transfer_cycles += extra;
        extra
    }

    /// Whether the fault just recorded should be delivered a second time.
    pub fn duplicate_fault(&mut self) -> bool {
        let dup = self.rng.chance_percent(self.cfg.duplicate_fault_pct);
        if dup {
            self.stats.duplicated_faults += 1;
        }
        dup
    }

    /// Whether to drop this prefetch candidate from the batch.
    pub fn drop_prefetch(&mut self) -> bool {
        let drop = self.rng.chance_percent(self.cfg.drop_prefetch_pct);
        if drop {
            self.stats.dropped_prefetches += 1;
        }
        drop
    }

    /// Whether to swallow the next `PageArrived` completion event.
    pub fn drop_arrival(&mut self) -> bool {
        self.arrivals += 1;
        let drop = self.cfg.drop_arrival_every > 0
            && self.arrivals.is_multiple_of(self.cfg.drop_arrival_every);
        if drop {
            self.stats.dropped_arrivals += 1;
        }
        drop
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> InjectStats {
        self.stats
    }

    /// The config this injector was built from.
    pub fn config(&self) -> InjectConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_injects_nothing() {
        let mut inj = FaultInjector::new(InjectConfig::default());
        for _ in 0..1000 {
            assert_eq!(inj.transfer_delay(), 0);
            assert!(!inj.duplicate_fault());
            assert!(!inj.drop_prefetch());
            assert!(!inj.drop_arrival());
        }
        assert_eq!(inj.stats(), InjectStats::default());
    }

    #[test]
    fn same_seed_replays_identically() {
        let cfg = InjectConfig::noisy(42);
        let mut a = FaultInjector::new(cfg);
        let mut b = FaultInjector::new(cfg);
        for _ in 0..500 {
            assert_eq!(a.transfer_delay(), b.transfer_delay());
            assert_eq!(a.duplicate_fault(), b.duplicate_fault());
            assert_eq!(a.drop_prefetch(), b.drop_prefetch());
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn stalls_fire_on_schedule() {
        let cfg = InjectConfig {
            seed: 7,
            pcie_stall_every: 4,
            pcie_stall_cycles: 1_000,
            ..InjectConfig::default()
        };
        let mut inj = FaultInjector::new(cfg);
        let delays: Vec<Cycle> = (0..8).map(|_| inj.transfer_delay()).collect();
        assert_eq!(delays, vec![0, 0, 0, 1_000, 0, 0, 0, 1_000]);
        assert_eq!(inj.stats().stalls, 2);
        assert_eq!(inj.stats().extra_transfer_cycles, 2_000);
    }

    #[test]
    fn lost_completions_drop_every_nth_arrival() {
        let mut inj = FaultInjector::new(InjectConfig::lost_completions(1, 3));
        let drops: Vec<bool> = (0..6).map(|_| inj.drop_arrival()).collect();
        assert_eq!(drops, vec![false, false, true, false, false, true]);
        assert_eq!(inj.stats().dropped_arrivals, 2);
    }

    #[test]
    fn spec_parsing_covers_presets_and_rejects_unknowns() {
        assert_eq!(InjectConfig::parse_spec("off").unwrap(), None);
        assert_eq!(InjectConfig::parse_spec("noisy").unwrap(), Some(InjectConfig::noisy(42)));
        assert_eq!(InjectConfig::parse_spec("noisy:7").unwrap(), Some(InjectConfig::noisy(7)));
        assert_eq!(
            InjectConfig::parse_spec("lost:1:5").unwrap(),
            Some(InjectConfig::lost_completions(1, 5))
        );
        assert_eq!(
            InjectConfig::parse_spec("lost").unwrap(),
            Some(InjectConfig::lost_completions(42, 3))
        );
        for bad in ["", "chaos", "noisy:many", "noisy:1:2", "lost:1:2:3"] {
            let err = InjectConfig::parse_spec(bad).unwrap_err();
            match &err {
                SimError::UnknownPolicy { axis, known, .. } => {
                    assert_eq!(*axis, "inject");
                    assert!(known.contains("noisy"), "{known}");
                }
                other => panic!("expected UnknownPolicy, got {other:?}"),
            }
            assert!(err.to_string().contains("inject"), "{err}");
        }
    }

    #[test]
    fn percent_knobs_hit_roughly_their_rate() {
        let cfg = InjectConfig { seed: 9, duplicate_fault_pct: 25, ..InjectConfig::default() };
        let mut inj = FaultInjector::new(cfg);
        let hits = (0..10_000).filter(|_| inj.duplicate_fault()).count();
        assert!((2_000..3_000).contains(&hits), "25% of 10k should be ~2500, got {hits}");
    }
}
