//! The policy table: spec strings in, strategy objects out.
//!
//! Every run is constructed from table lookups — the presets in
//! `batmem::policies` are just canonical spec strings. Each of the five
//! axes is one static slice of `(PolicyDescriptor, build fn)` rows, listed
//! by name, so adding a policy means writing its strategy type and adding
//! one row to its axis's table; the pipeline core, the builder, and the
//! CLI all pick it up unchanged.
//!
//! A **spec** is `name[:param[:param...]]`, e.g. `lru`, `tree:50`,
//! `random:7`, `etc:25:pe`. Unknown names resolve to
//! [`SimError::UnknownPolicy`] (listing the axis's names); malformed
//! parameters resolve to [`SimError::InvalidConfig`].

use crate::adaptive::ADAPTIVE_DEFAULT_WINDOW;
use crate::oversub::Oversubscription;
use crate::strategies::servicing::GPU_DRIVEN_DEFAULT_OCCUPANCY;
use crate::strategies::{
    CoalesceOff, CoalesceStrategy, CpuServicing, EvictionStrategy, FaultServicingModel,
    GpuDrivenServicing, GreedyCoalesce, IdealEviction, NoPrefetch, Prefetcher, RandomVictim,
    SerializedLruEviction, SplinterOnEvict, UnobtrusiveEviction,
};
use crate::TreePrefetcher;
use batmem_etc::{Etc, DEFAULT_THROTTLE_PERCENT};
use batmem_types::policy::{PolicyAxis, PolicyDescriptor, SwitchTrigger};
use batmem_types::SimError;

/// Default seed for `random` when the spec names none; an arbitrary but
/// fixed constant so bare `random` runs are reproducible.
const RANDOM_VICTIM_DEFAULT_SEED: u64 = 42;

/// Context handed to the eviction and prefetch build fns: the
/// config-derived values strategies may need at construction time.
#[derive(Debug, Clone, Copy)]
pub struct StrategyCtx {
    /// Pages per 2 MB root chunk (sizes the tree prefetcher's regions).
    pub pages_per_region: u64,
}

/// A build fn of the eviction and prefetch axes, which size their
/// strategies from the run's config.
type BuildWithCtx<T> = fn(&[&str], &StrategyCtx) -> Result<T, SimError>;
/// A build fn of the other three axes.
type Build<T> = fn(&[&str]) -> Result<T, SimError>;

/// The eviction axis, by name.
static EVICTION: &[(PolicyDescriptor, BuildWithCtx<Box<dyn EvictionStrategy>>)] = &[
    (
        PolicyDescriptor {
            axis: PolicyAxis::Eviction,
            name: "ideal",
            params: "",
            summary: "zero-latency eviction limit study (Fig. 8)",
        },
        |_, _| Ok(Box::new(IdealEviction)),
    ),
    (
        PolicyDescriptor {
            axis: PolicyAxis::Eviction,
            name: "lru",
            params: "",
            summary: "baseline: reactive LRU eviction serialized behind migrations (Fig. 4)",
        },
        |_, _| Ok(Box::new(SerializedLruEviction)),
    ),
    (
        PolicyDescriptor {
            axis: PolicyAxis::Eviction,
            name: "random",
            params: ":<seed>",
            summary: "uniform random victim with serialized transfers (victim-selection ablation)",
        },
        |params, _| {
            let seed = match params {
                [] => RANDOM_VICTIM_DEFAULT_SEED,
                [s] => parse_u64("eviction.random.seed", s)?,
                _ => return Err(too_many_params("eviction", "random", params)),
            };
            Ok(Box::new(RandomVictim::new(seed)))
        },
    ),
    (
        PolicyDescriptor {
            axis: PolicyAxis::Eviction,
            name: "ue",
            params: "",
            summary: "Unobtrusive Eviction: preemptive at batch start, pipelined D2H (§4.2)",
        },
        |_, _| Ok(Box::new(UnobtrusiveEviction)),
    ),
];

/// The prefetch axis, by name.
static PREFETCH: &[(PolicyDescriptor, BuildWithCtx<Box<dyn Prefetcher>>)] = &[
    (
        PolicyDescriptor {
            axis: PolicyAxis::Prefetch,
            name: "none",
            params: "",
            summary: "no prefetching: only faulted pages migrate",
        },
        |_, _| Ok(Box::new(NoPrefetch)),
    ),
    (
        PolicyDescriptor {
            axis: PolicyAxis::Prefetch,
            name: "tree",
            params: ":<threshold_percent>",
            summary: "tree-based density prefetcher (HPCA'16 / NVIDIA driver), default 50%",
        },
        |params, ctx| {
            let threshold = match params {
                [] => 50,
                [s] => parse_u64("prefetch.tree.threshold_percent", s)?,
                _ => return Err(too_many_params("prefetch", "tree", params)),
            };
            if threshold == 0 || threshold > 100 {
                return Err(SimError::invalid_config(
                    "prefetch.tree.threshold_percent",
                    format!("must be in 1..=100, got {threshold}"),
                ));
            }
            Ok(Box::new(TreePrefetcher::new(ctx.pages_per_region, threshold as u8)))
        },
    ),
];

/// The oversubscription axis, by name.
static OVERSUBSCRIPTION: &[(PolicyDescriptor, Build<Oversubscription>)] = &[
    (
        PolicyDescriptor {
            axis: PolicyAxis::Oversubscription,
            name: "adaptive",
            params: ":<window_cycles>",
            summary: "closed-loop TO: a probe watches fault/refault rates per epoch and throttles prefetch / eagers eviction / backs off the degree (default window 200000)",
        },
        |params| {
            let window = match params {
                [] => ADAPTIVE_DEFAULT_WINDOW,
                [s] => parse_u64("oversubscription.adaptive.window_cycles", s)?,
                _ => return Err(too_many_params("oversubscription", "adaptive", params)),
            };
            if window == 0 {
                return Err(SimError::invalid_config(
                    "oversubscription.adaptive.window_cycles",
                    "must be >= 1, got 0".to_string(),
                ));
            }
            Ok(Oversubscription::adaptive(window))
        },
    ),
    (
        PolicyDescriptor {
            axis: PolicyAxis::Oversubscription,
            name: "etc",
            params: ":<throttle_percent>[:pe]",
            summary: "ETC framework (ASPLOS'19): MT + CC; PE only with `:pe` (irregular preset)",
        },
        |params| {
            let (throttle, pe) = match params {
                [] => (None, false),
                [s] => (Some(*s), false),
                [s, "pe"] => (Some(*s), true),
                [_, other] => {
                    return Err(SimError::invalid_config(
                        "oversubscription.etc.pe",
                        format!("expected `pe`, got `{other}`"),
                    ))
                }
                _ => return Err(too_many_params("oversubscription", "etc", params)),
            };
            let pct = match throttle {
                None => DEFAULT_THROTTLE_PERCENT,
                Some(s) => {
                    let pct = parse_u64("etc.throttle_percent", s)?;
                    if pct == 0 || pct > 100 {
                        return Err(SimError::invalid_config(
                            "etc.throttle_percent",
                            format!("must be in 1..=100, got {pct}"),
                        ));
                    }
                    pct as u8
                }
            };
            Ok(Oversubscription::Etc(Etc::new(pct, pe)))
        },
    ),
    (
        PolicyDescriptor {
            axis: PolicyAxis::Oversubscription,
            name: "none",
            params: "",
            summary: "no thread oversubscription",
        },
        |_| Ok(Oversubscription::Off),
    ),
    (
        PolicyDescriptor {
            axis: PolicyAxis::Oversubscription,
            name: "to",
            params: ":fault|any",
            summary: "Thread Oversubscription with the dynamic degree controller (§4.1)",
        },
        |params| {
            let trigger = match params {
                [] | ["fault"] => SwitchTrigger::FaultStall,
                ["any"] => SwitchTrigger::AnyStall,
                [other] => {
                    return Err(SimError::invalid_config(
                        "oversubscription.to.trigger",
                        format!("expected `fault` or `any`, got `{other}`"),
                    ))
                }
                _ => return Err(too_many_params("oversubscription", "to", params)),
            };
            Ok(Oversubscription::to(trigger))
        },
    ),
];

/// The coalesce axis, by name.
static COALESCE: &[(PolicyDescriptor, Build<Box<dyn CoalesceStrategy>>)] = &[
    (
        PolicyDescriptor {
            axis: PolicyAxis::Coalesce,
            name: "greedy",
            params: ":<threshold_percent>",
            summary: "promote fully-resident groups; complete groups past the density threshold (default 100)",
        },
        |params| {
            let threshold = match params {
                [] => 100,
                [s] => parse_u64("coalesce.greedy.threshold_percent", s)?,
                _ => return Err(too_many_params("coalesce", "greedy", params)),
            };
            if threshold == 0 || threshold > 100 {
                return Err(SimError::invalid_config(
                    "coalesce.greedy.threshold_percent",
                    format!("must be in 1..=100, got {threshold}"),
                ));
            }
            Ok(Box::new(GreedyCoalesce::new(threshold as u8)))
        },
    ),
    (
        PolicyDescriptor {
            axis: PolicyAxis::Coalesce,
            name: "off",
            params: "",
            summary: "no coalescing: base-page mappings only (the seed baseline)",
        },
        |_| Ok(Box::new(CoalesceOff)),
    ),
    (
        PolicyDescriptor {
            axis: PolicyAxis::Coalesce,
            name: "splinter",
            params: ":on-evict",
            summary: "opportunistic promotion, sticky splintering: a splintered group never re-promotes",
        },
        |params| match params {
            [] | ["on-evict"] => Ok(Box::new(SplinterOnEvict)),
            [other] => Err(SimError::invalid_config(
                "coalesce.splinter.mode",
                format!("expected `on-evict`, got `{other}`"),
            )),
            _ => Err(too_many_params("coalesce", "splinter", params)),
        },
    ),
];

/// The fault-servicing axis, by name.
static SERVICING: &[(PolicyDescriptor, Build<Box<dyn FaultServicingModel>>)] = &[
    (
        PolicyDescriptor {
            axis: PolicyAxis::FaultServicing,
            name: "cpu",
            params: "",
            summary: "classic host-serviced faults: CPU ISR round-trip + batched driver handling window (the seed model)",
        },
        |_| Ok(Box::new(CpuServicing)),
    ),
    (
        PolicyDescriptor {
            axis: PolicyAxis::FaultServicing,
            name: "gpu-driven",
            params: ":<occupancy_per_fault>",
            summary: "GPU-driven paging: no CPU round-trip; per-fault handler occupancy replaces the batched window (default 1000)",
        },
        |params| {
            let occupancy = match params {
                [] => GPU_DRIVEN_DEFAULT_OCCUPANCY,
                [s] => parse_u64("fault_servicing.gpu_driven.occupancy_per_fault", s)?,
                _ => return Err(too_many_params("fault-servicing", "gpu-driven", params)),
            };
            if occupancy == 0 {
                return Err(SimError::invalid_config(
                    "fault_servicing.gpu_driven.occupancy_per_fault",
                    "must be >= 1, got 0".to_string(),
                ));
            }
            Ok(Box::new(GpuDrivenServicing::new(occupancy)))
        },
    ),
];

/// The five policy tables of this module. It holds no state: every
/// spec resolves through the same static rows.
#[derive(Debug)]
pub struct PolicyRegistry;

impl PolicyRegistry {
    /// The registry of every in-tree strategy.
    pub const fn builtin() -> Self {
        Self
    }

    /// Builds an eviction strategy from a spec string (`lru`, `random:7`).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPolicy`] for an unknown name,
    /// [`SimError::InvalidConfig`] for malformed parameters.
    pub fn build_eviction(
        &self,
        spec: &str,
        ctx: &StrategyCtx,
    ) -> Result<Box<dyn EvictionStrategy>, SimError> {
        let (build, params) = lookup(PolicyAxis::Eviction, EVICTION, spec)?;
        build(&params, ctx)
    }

    /// Builds a prefetcher from a spec string (`none`, `tree:50`).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPolicy`] for an unknown name,
    /// [`SimError::InvalidConfig`] for malformed parameters.
    pub fn build_prefetcher(
        &self,
        spec: &str,
        ctx: &StrategyCtx,
    ) -> Result<Box<dyn Prefetcher>, SimError> {
        let (build, params) = lookup(PolicyAxis::Prefetch, PREFETCH, spec)?;
        build(&params, ctx)
    }

    /// Resolves an oversubscription spec (`none`, `to:any`, `etc:25`,
    /// `adaptive`) into the run's [`Oversubscription`].
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPolicy`] for an unknown name,
    /// [`SimError::InvalidConfig`] for malformed parameters.
    pub fn build_oversubscription(&self, spec: &str) -> Result<Oversubscription, SimError> {
        let (build, params) = lookup(PolicyAxis::Oversubscription, OVERSUBSCRIPTION, spec)?;
        build(&params)
    }

    /// Builds a coalescing policy from a spec string (`off`, `greedy:75`,
    /// `splinter:on-evict`).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPolicy`] for an unknown name,
    /// [`SimError::InvalidConfig`] for malformed parameters.
    pub fn build_coalesce(&self, spec: &str) -> Result<Box<dyn CoalesceStrategy>, SimError> {
        let (build, params) = lookup(PolicyAxis::Coalesce, COALESCE, spec)?;
        build(&params)
    }

    /// Builds a fault-servicing model from a spec string (`cpu`,
    /// `gpu-driven:500`).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPolicy`] for an unknown name,
    /// [`SimError::InvalidConfig`] for malformed parameters.
    pub fn build_servicing(&self, spec: &str) -> Result<Box<dyn FaultServicingModel>, SimError> {
        let (build, params) = lookup(PolicyAxis::FaultServicing, SERVICING, spec)?;
        build(&params)
    }

    /// Every descriptor, ordered by axis then name — the data behind
    /// `--list-policies`.
    pub fn descriptors(&self) -> Vec<PolicyDescriptor> {
        let eviction = EVICTION.iter().map(|r| r.0);
        let prefetch = PREFETCH.iter().map(|r| r.0);
        let oversubscription = OVERSUBSCRIPTION.iter().map(|r| r.0);
        let coalesce = COALESCE.iter().map(|r| r.0);
        let servicing = SERVICING.iter().map(|r| r.0);
        eviction.chain(prefetch).chain(oversubscription).chain(coalesce).chain(servicing).collect()
    }
}

/// Finds `spec`'s row in `axis`'s table and splits off its parameters. A
/// row whose descriptor names no parameter syntax accepts none.
fn lookup<'s, F: Copy>(
    axis: PolicyAxis,
    table: &[(PolicyDescriptor, F)],
    spec: &'s str,
) -> Result<(F, Vec<&'s str>), SimError> {
    let (name, params) = split_spec(spec);
    let Some(&(desc, build)) = table.iter().find(|(d, _)| d.name == name) else {
        return Err(SimError::UnknownPolicy {
            axis: axis.label(),
            name: name.to_string(),
            known: table.iter().map(|(d, _)| d.name).collect::<Vec<_>>().join(", "),
        });
    };
    if desc.params.is_empty() {
        expect_no_params(axis.label(), name, &params)?;
    }
    Ok((build, params))
}

/// Splits `name[:p1[:p2...]]` into the name and its parameter list.
fn split_spec(spec: &str) -> (&str, Vec<&str>) {
    let mut parts = spec.split(':');
    let name = parts.next().unwrap_or("");
    (name, parts.collect())
}

fn expect_no_params(axis: &str, name: &str, params: &[&str]) -> Result<(), SimError> {
    if params.is_empty() {
        Ok(())
    } else {
        Err(SimError::InvalidConfig {
            field: "policy.spec",
            reason: format!(
                "{axis} policy `{name}` takes no parameters, got `{}`",
                params.join(":")
            ),
        })
    }
}

fn too_many_params(axis: &str, name: &str, params: &[&str]) -> SimError {
    SimError::InvalidConfig {
        field: "policy.spec",
        reason: format!("too many parameters for {axis} policy `{name}`: `{}`", params.join(":")),
    }
}

fn parse_u64(field: &'static str, s: &str) -> Result<u64, SimError> {
    s.parse::<u64>()
        .map_err(|_| SimError::invalid_config(field, format!("expected an integer, got `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> StrategyCtx {
        StrategyCtx { pages_per_region: 32 }
    }

    #[test]
    fn builtin_names_resolve_on_every_axis() {
        let r = PolicyRegistry::builtin();
        for spec in ["lru", "ue", "ideal", "random", "random:7"] {
            let s = r.build_eviction(spec, &ctx()).unwrap();
            assert_eq!(s.name(), split_spec(spec).0);
        }
        for spec in ["none", "tree", "tree:75"] {
            let s = r.build_prefetcher(spec, &ctx()).unwrap();
            assert_eq!(s.name(), split_spec(spec).0);
        }
        for spec in [
            "none",
            "to",
            "to:fault",
            "to:any",
            "etc",
            "etc:25",
            "etc:50:pe",
            "adaptive",
            "adaptive:100000",
        ] {
            r.build_oversubscription(spec).unwrap();
        }
        for spec in ["off", "greedy", "greedy:75", "splinter", "splinter:on-evict"] {
            let s = r.build_coalesce(spec).unwrap();
            assert_eq!(s.name(), split_spec(spec).0);
        }
        assert!(r.build_coalesce("off").unwrap().is_off());
        assert!(!r.build_coalesce("greedy").unwrap().is_off());
        for spec in ["cpu", "gpu-driven", "gpu-driven:500"] {
            let s = r.build_servicing(spec).unwrap();
            assert_eq!(s.name(), split_spec(spec).0);
        }
        assert!(r.build_servicing("cpu").unwrap().is_cpu());
        assert!(!r.build_servicing("gpu-driven").unwrap().is_cpu());
    }

    #[test]
    fn unknown_name_is_a_typed_error_listing_known_names() {
        let r = PolicyRegistry::builtin();
        let cases = [
            ("eviction", "mru", r.build_eviction("mru", &ctx()).err(), "ideal, lru, random, ue"),
            ("prefetch", "oracle", r.build_prefetcher("oracle", &ctx()).err(), "none, tree"),
            (
                "oversubscription",
                "learned",
                r.build_oversubscription("learned").err(),
                "adaptive, etc, none, to",
            ),
            ("coalesce", "eager", r.build_coalesce("eager").err(), "greedy, off, splinter"),
            ("fault-servicing", "dma", r.build_servicing("dma").err(), "cpu, gpu-driven"),
        ];
        for (want_axis, want_name, err, want_known) in cases {
            match err {
                Some(SimError::UnknownPolicy { axis, name, known }) => {
                    assert_eq!(axis, want_axis);
                    assert_eq!(name, want_name);
                    assert_eq!(known, want_known, "{want_axis}");
                }
                other => panic!("{want_axis}: expected UnknownPolicy, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_descriptor_builds_by_its_bare_name() {
        let r = PolicyRegistry::builtin();
        for d in r.descriptors() {
            let built = match d.axis {
                PolicyAxis::Eviction => r.build_eviction(d.name, &ctx()).map(drop),
                PolicyAxis::Prefetch => r.build_prefetcher(d.name, &ctx()).map(drop),
                PolicyAxis::Oversubscription => r.build_oversubscription(d.name).map(drop),
                PolicyAxis::Coalesce => r.build_coalesce(d.name).map(drop),
                PolicyAxis::FaultServicing => r.build_servicing(d.name).map(drop),
            };
            built.unwrap_or_else(|e| panic!("{} `{}`: {e}", d.axis, d.name));
        }
    }

    #[test]
    fn malformed_params_are_invalid_config() {
        let r = PolicyRegistry::builtin();
        assert!(matches!(r.build_eviction("lru:3", &ctx()), Err(SimError::InvalidConfig { .. })));
        assert!(matches!(
            r.build_eviction("random:x", &ctx()),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(matches!(
            r.build_prefetcher("tree:0", &ctx()),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(matches!(
            r.build_prefetcher("tree:101", &ctx()),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(matches!(
            r.build_oversubscription("to:sometimes"),
            Err(SimError::InvalidConfig { .. })
        ));
        // The etc bound is validated at the parse site: 0, the 101..=255
        // band the old u8 conversion let through, and >255 all fail the
        // same way.
        for spec in ["etc:0", "etc:101", "etc:200", "etc:300", "etc:50:x", "etc:50:pe:1"] {
            assert!(matches!(r.build_oversubscription(spec), Err(SimError::InvalidConfig { .. })));
        }
        for spec in ["adaptive:0", "adaptive:x", "adaptive:1:2"] {
            assert!(matches!(r.build_oversubscription(spec), Err(SimError::InvalidConfig { .. })));
        }
        for spec in ["cpu:1", "gpu-driven:0", "gpu-driven:x", "gpu-driven:1:2"] {
            assert!(matches!(r.build_servicing(spec), Err(SimError::InvalidConfig { .. })));
        }
        assert!(matches!(r.build_coalesce("greedy:0"), Err(SimError::InvalidConfig { .. })));
        assert!(matches!(r.build_coalesce("greedy:101"), Err(SimError::InvalidConfig { .. })));
        assert!(matches!(
            r.build_coalesce("splinter:sometimes"),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(matches!(r.build_coalesce("off:1"), Err(SimError::InvalidConfig { .. })));
    }

    #[test]
    fn oversub_specs_carry_their_configuration() {
        let r = PolicyRegistry::builtin();
        assert!(matches!(r.build_oversubscription("none"), Ok(Oversubscription::Off)));

        let to = r.build_oversubscription("to:any").unwrap();
        assert!(matches!(
            to,
            Oversubscription::To { trigger: SwitchTrigger::AnyStall, adaptive: None, .. }
        ));
        assert_eq!(to.switch_trigger(), Some(SwitchTrigger::AnyStall));
        assert!(matches!(
            r.build_oversubscription("to"),
            Ok(Oversubscription::To { trigger: SwitchTrigger::FaultStall, .. })
        ));

        // `etc:30` throttles 30 % of the SMs with proactive eviction off;
        // `etc:50:pe` is the irregular preset with proactive eviction on.
        let etc = |spec| match r.build_oversubscription(spec) {
            Ok(Oversubscription::Etc(etc)) => etc,
            other => panic!("{spec}: {other:?}"),
        };
        assert!(!etc("etc:30").proactive_eviction());
        assert!(etc("etc:50:pe").proactive_eviction());
        assert!(!etc("etc").proactive_eviction());
        let mut thirty = etc("etc:30");
        for page in [0, 0] {
            thirty.on_fault(batmem_types::PageId::new(page));
        }
        thirty.tick(batmem_etc::DETECTION_EPOCH, 10);
        assert_eq!(thirty.throttled_sms(), 3);

        // Only the adaptive spec carries a closed loop.
        for spec in ["none", "to", "etc"] {
            let s = r.build_oversubscription(spec).unwrap();
            assert!(s.adaptive_probe().is_none(), "{spec} should be open-loop");
        }
        let adaptive = r.build_oversubscription("adaptive:100000").unwrap();
        assert!(matches!(
            adaptive,
            Oversubscription::To {
                trigger: SwitchTrigger::FaultStall,
                adaptive: Some((100_000, _)),
                ..
            }
        ));
        assert_eq!(adaptive.degree(), 1);
    }

    #[test]
    fn descriptors_are_ordered_by_axis_then_name() {
        let d = PolicyRegistry::builtin().descriptors();
        let names: Vec<&str> = d.iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            [
                "ideal",
                "lru",
                "random",
                "ue",
                "none",
                "tree",
                "adaptive",
                "etc",
                "none",
                "to",
                "greedy",
                "off",
                "splinter",
                "cpu",
                "gpu-driven"
            ]
        );
        assert!(d.iter().take(4).all(|d| d.axis == PolicyAxis::Eviction));
        assert!(d.iter().rev().take(2).all(|d| d.axis == PolicyAxis::FaultServicing));
    }
}
