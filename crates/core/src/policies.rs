//! The policy presets of Fig. 11, by their names in the paper, and
//! [`PolicySpec`], the one way a run names its policy.

use batmem_types::addr::PageGeometry;
use batmem_types::config::UvmConfig;
use batmem_types::policy::PolicyAxis;
use batmem_types::SimError;
use batmem_uvm::{
    CoalesceStrategy, EvictionStrategy, FaultServicingModel, Oversubscription, PolicyRegistry,
    Prefetcher, StrategyCtx,
};
use std::fmt;

/// The named configurations of Fig. 11, in presentation order.
///
/// [`registry_specs`] maps each name to its spec strings; this is the
/// single source of truth the bench harness and examples share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConfigName {
    /// `BASELINE` (tree prefetching, serialized eviction).
    Baseline,
    /// `BASELINE with PCIe Compression`.
    BaselineCompressed,
    /// `TO`.
    To,
    /// `UE`.
    Ue,
    /// `TO+UE`.
    ToUe,
    /// `ETC`.
    Etc,
    /// `IDEAL EVICTION` (Fig. 8).
    IdealEviction,
    /// Unlimited GPU memory (the Fig. 8 normalization point).
    Unlimited,
}

impl ConfigName {
    /// Every preset, in presentation order — the sweep service's
    /// default policy axis.
    pub fn all() -> &'static [ConfigName] {
        &[
            ConfigName::Baseline,
            ConfigName::BaselineCompressed,
            ConfigName::To,
            ConfigName::Ue,
            ConfigName::ToUe,
            ConfigName::Etc,
            ConfigName::IdealEviction,
            ConfigName::Unlimited,
        ]
    }

    /// Parses a figure label (`BASELINE`, `TO+UE`, …) back into the
    /// preset; `None` for unknown labels. Inverse of
    /// [`ConfigName::label`], used by sweep plans and artifact resume.
    pub fn from_label(s: &str) -> Option<ConfigName> {
        Self::all().iter().copied().find(|c| c.label() == s)
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            ConfigName::Baseline => "BASELINE",
            ConfigName::BaselineCompressed => "BASELINE+PCIeC",
            ConfigName::To => "TO",
            ConfigName::Ue => "UE",
            ConfigName::ToUe => "TO+UE",
            ConfigName::Etc => "ETC",
            ConfigName::IdealEviction => "IDEAL-EVICT",
            ConfigName::Unlimited => "UNLIMITED",
        }
    }

    /// This preset's row of [`registry_specs`] as a [`PolicySpec`], with
    /// base pages only, CPU fault servicing and the configured page size.
    /// `Unlimited` shares the baseline policy — only its memory sizing
    /// differs, which is the caller's concern.
    pub fn spec(self) -> PolicySpec {
        let row = registry_specs(self);
        PolicySpec {
            eviction: row.eviction.to_string(),
            prefetch: row.prefetch.to_string(),
            oversubscription: row.oversubscription.to_string(),
            compression: row.compression,
            coalesce: "off".to_string(),
            page_size_kb: None,
            fault_servicing: "cpu".to_string(),
        }
    }
}

/// `BASELINE`: state-of-the-art tree prefetching, serialized eviction.
pub fn baseline() -> PolicySpec {
    ConfigName::Baseline.spec()
}

/// `BASELINE with PCIe Compression`.
pub fn baseline_with_compression() -> PolicySpec {
    ConfigName::BaselineCompressed.spec()
}

/// `TO`: thread oversubscription only.
pub fn to_only() -> PolicySpec {
    ConfigName::To.spec()
}

/// `UE`: unobtrusive eviction only.
pub fn ue_only() -> PolicySpec {
    ConfigName::Ue.spec()
}

/// `TO+UE`: the paper's full proposal.
pub fn to_ue() -> PolicySpec {
    ConfigName::ToUe.spec()
}

/// `IDEAL EVICTION` (Fig. 8 limit study).
pub fn ideal_eviction() -> PolicySpec {
    ConfigName::IdealEviction.spec()
}

/// `ETC` (Li et al.), irregular-application mode.
pub fn etc() -> PolicySpec {
    ConfigName::Etc.spec()
}

/// A preset expressed as the registry spec strings that reproduce it —
/// what `--eviction`/`--prefetch`/`--oversubscription` would be passed
/// on a bench binary's command line to run the same configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PresetSpecs {
    /// Eviction strategy spec (`lru`, `ue`, `ideal`).
    pub eviction: &'static str,
    /// Prefetcher spec (`none`, `tree:50`).
    pub prefetch: &'static str,
    /// Oversubscription spec (`none`, `to`, `etc`).
    pub oversubscription: &'static str,
    /// Whether PCIe compression is on. Not a registry axis — it shapes
    /// the transfer pipes rather than a pipeline decision point.
    pub compression: bool,
}

/// The registry spec strings of each named preset: the one preset table,
/// expressed as the names the [`PolicyRegistry`] resolves.
pub fn registry_specs(name: ConfigName) -> PresetSpecs {
    let base = PresetSpecs {
        eviction: "lru",
        prefetch: "tree:50",
        oversubscription: "none",
        compression: false,
    };
    match name {
        ConfigName::Baseline | ConfigName::Unlimited => base,
        ConfigName::BaselineCompressed => PresetSpecs { compression: true, ..base },
        ConfigName::To => PresetSpecs { oversubscription: "to", ..base },
        ConfigName::Ue => PresetSpecs { eviction: "ue", ..base },
        ConfigName::ToUe => PresetSpecs { eviction: "ue", oversubscription: "to", ..base },
        ConfigName::Etc => PresetSpecs { oversubscription: "etc", ..base },
        ConfigName::IdealEviction => PresetSpecs { eviction: "ideal", ..base },
    }
}

/// One run's policy: a registry spec per axis, plus PCIe compression and
/// the base page size, which shape the system rather than a pipeline
/// decision point. The presets are [`ConfigName::spec`]; a custom
/// combination (`figures --eviction random:7 --prefetch none`) is any
/// other value.
///
/// [`Default`] is `BASELINE`. [`Display`](fmt::Display) is the label sweep
/// cells and `figures` print, e.g. `lru/tree:50/none`: compression, a
/// non-default coalesce or fault-servicing spec, and a page size are
/// appended (`/+pciec`, `/+co:greedy`, `/+fs:gpu-driven`, `/+pg:4k`), so a
/// label without them reads as it did before those settings existed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicySpec {
    /// Eviction strategy spec (`lru`, `ue`, `ideal`, `random:7`).
    pub eviction: String,
    /// Prefetcher spec (`none`, `tree:50`).
    pub prefetch: String,
    /// Oversubscription spec (`none`, `to`, `to:any`, `etc`, `etc:25:pe`,
    /// `adaptive`).
    pub oversubscription: String,
    /// Enables PCIe compression on the transfer pipes, with the ratio and
    /// latency of [`PolicyConfig::compression`](crate::PolicyConfig).
    pub compression: bool,
    /// Coalescing spec (`off`, `greedy`, `greedy:75`, `splinter:on-evict`).
    /// `off` keeps the classic single-granularity translation path.
    pub coalesce: String,
    /// Base page size in KB; `None` keeps the configured geometry (64 KB by
    /// default). Large pages/regions stay at 2 MB or the base size,
    /// whichever is larger.
    pub page_size_kb: Option<u64>,
    /// Fault-servicing spec (`cpu`, `gpu-driven`, `gpu-driven:500`). `cpu`
    /// keeps the classic host-driver far-fault timing.
    pub fault_servicing: String,
}

impl Default for PolicySpec {
    /// `BASELINE`.
    fn default() -> Self {
        ConfigName::Baseline.spec()
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.eviction, self.prefetch, self.oversubscription)?;
        if self.compression {
            f.write_str("/+pciec")?;
        }
        if !Self::is_default(PolicyAxis::Coalesce, &self.coalesce) {
            write!(f, "/+co:{}", self.coalesce)?;
        }
        if !Self::is_default(PolicyAxis::FaultServicing, &self.fault_servicing) {
            write!(f, "/+fs:{}", self.fault_servicing)?;
        }
        if let Some(kb) = self.page_size_kb {
            write!(f, "/+pg:{kb}k")?;
        }
        Ok(())
    }
}

/// A resolved [`PolicySpec`]: one built strategy per axis, and whether the
/// link compresses.
pub(crate) struct ResolvedPolicy {
    pub(crate) oversub: Oversubscription,
    pub(crate) servicing: Box<dyn FaultServicingModel>,
    pub(crate) eviction: Box<dyn EvictionStrategy>,
    pub(crate) prefetcher: Box<dyn Prefetcher>,
    pub(crate) coalesce: Box<dyn CoalesceStrategy>,
    pub(crate) compression: bool,
}

impl PolicySpec {
    /// Whether `spec` is `BASELINE`'s spec on `axis`. Labels and sweep-cell
    /// ids leave a default coalesce or fault-servicing spec out, so ids
    /// written before those axes existed still resolve.
    pub fn is_default(axis: PolicyAxis, spec: &str) -> bool {
        let base = Self::default();
        spec == match axis {
            PolicyAxis::Eviction => base.eviction,
            PolicyAxis::Prefetch => base.prefetch,
            PolicyAxis::Oversubscription => base.oversubscription,
            PolicyAxis::Coalesce => base.coalesce,
            PolicyAxis::FaultServicing => base.fault_servicing,
        }
    }

    /// Checks that every axis resolves in the [`PolicyRegistry`] and that
    /// the page size is a valid geometry: the resolution
    /// [`SimulationBuilder::try_run`](crate::SimulationBuilder::try_run)
    /// performs, without simulating.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPolicy`] for an unknown name,
    /// [`SimError::InvalidConfig`] for malformed parameters or page size.
    pub fn validate(&self) -> Result<(), SimError> {
        self.resolve(&mut UvmConfig::default()).map(drop)
    }

    /// Builds every axis from the [`PolicyRegistry`], after setting `uvm`'s
    /// geometry to the spec's page size.
    pub(crate) fn resolve(&self, uvm: &mut UvmConfig) -> Result<ResolvedPolicy, SimError> {
        if let Some(kb) = self.page_size_kb {
            uvm.geometry = page_geometry(kb)?;
        }
        let ctx = StrategyCtx { pages_per_region: uvm.pages_per_region() };
        Ok(ResolvedPolicy {
            oversub: PolicyRegistry.build_oversubscription(&self.oversubscription)?,
            servicing: PolicyRegistry.build_servicing(&self.fault_servicing)?,
            eviction: PolicyRegistry.build_eviction(&self.eviction, &ctx)?,
            prefetcher: PolicyRegistry.build_prefetcher(&self.prefetch, &ctx)?,
            coalesce: PolicyRegistry.build_coalesce(&self.coalesce)?,
            compression: self.compression,
        })
    }
}

/// The geometry of a `kb`-KB base page: large pages and regions sit at
/// 2 MB, or the base page size when it is larger.
fn page_geometry(kb: u64) -> Result<PageGeometry, SimError> {
    let bytes = kb.saturating_mul(1024);
    if !bytes.is_power_of_two() {
        return Err(SimError::invalid_config(
            "uvm.geometry.base_shift",
            format!("page size must be a power-of-two KB count, got {kb}"),
        ));
    }
    let base_shift = bytes.trailing_zeros();
    PageGeometry::base_region(base_shift, base_shift.max(21))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_shapes() {
        let b = baseline();
        assert_eq!((b.eviction.as_str(), b.prefetch.as_str()), ("lru", "tree:50"));
        assert_eq!(b.oversubscription, "none");
        assert!(!b.compression);
        assert_eq!(b, PolicySpec::default());
        assert_eq!(b, ConfigName::Unlimited.spec());

        let p = to_ue();
        assert_eq!((p.eviction.as_str(), p.oversubscription.as_str()), ("ue", "to"));
        assert!(baseline_with_compression().compression);
        assert_eq!(ideal_eviction().eviction, "ideal");
        assert_eq!(etc().oversubscription, "etc");
        assert_eq!(to_ue().to_string(), "ue/tree:50/to");
        assert_eq!(baseline_with_compression().to_string(), "lru/tree:50/none/+pciec");
    }

    #[test]
    fn page_size_and_specs_are_checked_by_validate() {
        for name in ConfigName::all() {
            name.spec().validate().unwrap();
        }
        let four_k = PolicySpec { page_size_kb: Some(4), ..baseline() };
        four_k.validate().unwrap();
        let mut uvm = UvmConfig::default();
        four_k.resolve(&mut uvm).map(drop).unwrap();
        assert_eq!(uvm.page_bytes(), 4096);
        assert_eq!(uvm.pages_per_region(), 512);
        let odd = PolicySpec { page_size_kb: Some(48), ..baseline() };
        assert!(matches!(odd.validate(), Err(SimError::InvalidConfig { .. })));
        let mru = PolicySpec { eviction: "mru".into(), ..baseline() };
        assert!(matches!(mru.validate(), Err(SimError::UnknownPolicy { .. })));
    }
}
