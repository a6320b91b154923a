//! Sweep plans: a cartesian spec of (workload × policy × scale × ratio ×
//! seed) expanded into content-hashed cells.

use crate::error::BenchError;
use batmem::policies::{ConfigName, PolicySpec};
use batmem::{PolicyAxis, PolicyRegistry};
use batmem_graph::gen;
use batmem_types::sweep::{CellId, StableHasher};
use batmem_uvm::InjectConfig;
use batmem_workloads::registry;

/// The policy axis of one cell: a named paper preset or an arbitrary
/// registry spec combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellPolicy {
    /// A Fig. 11 preset (`BASELINE`, `TO+UE`, …).
    Preset(ConfigName),
    /// Registry spec strings (`--eviction random:7 --prefetch none`).
    Custom(PolicySpec),
}

impl CellPolicy {
    /// Display label: the preset's figure label, or the custom combo's
    /// spec label.
    pub fn label(&self) -> String {
        match self {
            CellPolicy::Preset(c) => c.label().to_string(),
            CellPolicy::Custom(c) => c.to_string(),
        }
    }

    /// The policy spec this runs: the preset's row, or the custom spec.
    pub fn spec(&self) -> PolicySpec {
        match self {
            CellPolicy::Preset(c) => c.spec(),
            CellPolicy::Custom(c) => c.clone(),
        }
    }

    /// The memory ratio a run of this policy uses: `ratio`, or `None`
    /// (unsized memory) for UNLIMITED.
    pub fn memory_ratio(&self, ratio: f64) -> Option<f64> {
        (!matches!(self, CellPolicy::Preset(ConfigName::Unlimited))).then_some(ratio)
    }
}

/// `spec` unless it is unset or `axis`'s default. A plan-level spec that
/// is left out neither overrides a cell's policy nor perturbs its id.
fn set_spec(axis: PolicyAxis, spec: Option<&str>) -> Option<&str> {
    spec.filter(|s| !PolicySpec::is_default(axis, s))
}

/// `policy`'s spec with the plan-level coalesce and fault-servicing specs,
/// when set, in place of its own.
fn effective_spec(
    policy: &CellPolicy,
    coalesce: Option<&str>,
    fault_servicing: Option<&str>,
) -> PolicySpec {
    let mut spec = policy.spec();
    if let Some(co) = set_spec(PolicyAxis::Coalesce, coalesce) {
        spec.coalesce = co.to_string();
    }
    if let Some(fs) = set_spec(PolicyAxis::FaultServicing, fault_servicing) {
        spec.fault_servicing = fs.to_string();
    }
    spec
}

/// One fully-specified simulation run within a sweep.
///
/// A cell's identity is the stable content hash of every field
/// ([`SweepCell::id`]); the artifact store keys records by it, which is
/// what makes a killed sweep resumable — a cell re-expanded from the same
/// plan hashes to the same id and finds its completed record.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Workload name (`BFS-TTC`, `PR`, …).
    pub workload: String,
    /// Policy under test.
    pub policy: CellPolicy,
    /// R-MAT scale (vertices = 2^scale).
    pub scale: u32,
    /// R-MAT edge factor.
    pub edge_factor: u32,
    /// Memory oversubscription ratio.
    pub ratio: f64,
    /// Graph seed.
    pub seed: u64,
    /// Fault-injection spec (`noisy:42`, `lost:1:3`), `None` = off.
    pub inject: Option<String>,
    /// Large-page coalescing spec (`greedy`, `splinter:on-evict`),
    /// `None` = off. Only a non-off spec perturbs the cell id, so stores
    /// written before the axis existed stay valid for `--resume`.
    pub coalesce: Option<String>,
    /// Fault-servicing spec (`gpu-driven`, `gpu-driven:500`), `None` =
    /// the default `cpu` model. Like `coalesce`, only a non-default spec
    /// perturbs the cell id, keeping pre-axis stores resumable.
    pub fault_servicing: Option<String>,
    /// Free-form discriminator hashed into the id for anything the other
    /// fields do not capture (e.g. a non-default base `SimConfig`).
    /// Empty by default.
    pub tag: String,
}

impl SweepCell {
    /// The cell's stable content hash — the artifact store key.
    pub fn id(&self) -> CellId {
        let mut h = StableHasher::new();
        h.field("batmem-sweep-cell-v1")
            .field(&self.workload)
            .field(&self.policy.label())
            .field(&self.scale.to_string())
            .field(&self.edge_factor.to_string())
            .field(&format!("{:016x}", self.ratio.to_bits()))
            .field(&self.seed.to_string())
            .field(self.inject.as_deref().unwrap_or("off"))
            .field(&self.tag);
        if let Some(spec) = self.coalesce_spec() {
            h.field("coalesce").field(spec);
        }
        if let Some(spec) = self.fault_servicing_spec() {
            h.field("fault-servicing").field(spec);
        }
        CellId::from_hash(h.finish())
    }

    /// The coalescing spec, normalized: `None` when the axis is off
    /// (unset or literally `off`).
    pub fn coalesce_spec(&self) -> Option<&str> {
        set_spec(PolicyAxis::Coalesce, self.coalesce.as_deref())
    }

    /// The fault-servicing spec, normalized: `None` when the axis is at
    /// its default (unset or literally `cpu`).
    pub fn fault_servicing_spec(&self) -> Option<&str> {
        set_spec(PolicyAxis::FaultServicing, self.fault_servicing.as_deref())
    }

    /// The policy this cell runs: its policy's spec, with the plan-level
    /// coalesce and fault-servicing specs, when set, in place of its own.
    pub fn policy_spec(&self) -> PolicySpec {
        effective_spec(&self.policy, self.coalesce.as_deref(), self.fault_servicing.as_deref())
    }

    /// Human-readable slug: `workload/policy@s<scale>e<ef>r<ratio>x<seed>`
    /// plus the inject spec when one is set. Doubles as the metrics-row
    /// label, so it never contains a comma.
    pub fn label(&self) -> String {
        let mut s = format!(
            "{}/{}@s{}e{}r{}x{}",
            self.workload,
            self.policy.label(),
            self.scale,
            self.edge_factor,
            self.ratio,
            self.seed
        );
        if let Some(inj) = &self.inject {
            s.push('+');
            s.push_str(inj);
        }
        if let Some(co) = self.coalesce_spec() {
            s.push_str("+co:");
            s.push_str(co);
        }
        if let Some(fs) = self.fault_servicing_spec() {
            s.push_str("+fs:");
            s.push_str(fs);
        }
        debug_assert!(!s.contains(','), "cell labels must stay comma-free: {s}");
        s
    }
}

/// A cartesian sweep specification. [`SweepPlan::cells`] expands it into
/// the full matrix, in a deterministic order (workload-major, seed-minor).
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Policies.
    pub policies: Vec<CellPolicy>,
    /// R-MAT scales.
    pub scales: Vec<u32>,
    /// R-MAT edge factors.
    pub edge_factors: Vec<u32>,
    /// Oversubscription ratios.
    pub ratios: Vec<f64>,
    /// Graph seeds.
    pub seeds: Vec<u64>,
    /// Fault-injection spec applied to every cell (`None` = off).
    pub inject: Option<String>,
    /// Coalescing spec applied to every cell (`None` = off).
    pub coalesce: Option<String>,
    /// Fault-servicing spec applied to every cell (`None` = `cpu`).
    pub fault_servicing: Option<String>,
    /// Discriminator copied into every cell's [`SweepCell::tag`].
    pub tag: String,
}

impl Default for SweepPlan {
    /// The figure harness's historical mini-sweep: three representative
    /// workloads × {BASELINE, TO+UE} at the paper's evaluation point.
    fn default() -> Self {
        Self {
            workloads: vec!["BFS-TTC".into(), "PR".into(), "SSSP-TWC".into()],
            policies: vec![
                CellPolicy::Preset(ConfigName::Baseline),
                CellPolicy::Preset(ConfigName::ToUe),
            ],
            scales: vec![15],
            edge_factors: vec![16],
            ratios: vec![0.5],
            seeds: vec![42],
            inject: None,
            coalesce: None,
            fault_servicing: None,
            tag: String::new(),
        }
    }
}

impl SweepPlan {
    /// Checks the plan before expansion: every axis non-empty, every
    /// workload known to the registry, every scale at most
    /// [`gen::MAX_SCALE`], the inject spec parseable, and
    /// every policy's effective spec (plan-level coalesce and
    /// fault-servicing applied, page size included) resolvable as
    /// [`try_run`](batmem::SimulationBuilder::try_run) resolves it.
    ///
    /// # Errors
    ///
    /// Returns a [`BenchError`] naming the offending axis or spec; unknown
    /// inject and policy specs carry the registry-style known-names list.
    pub fn validate(&self) -> Result<(), BenchError> {
        for (axis, empty) in [
            ("workloads", self.workloads.is_empty()),
            ("policies", self.policies.is_empty()),
            ("scales", self.scales.is_empty()),
            ("edge_factors", self.edge_factors.is_empty()),
            ("ratios", self.ratios.is_empty()),
            ("seeds", self.seeds.is_empty()),
        ] {
            if empty {
                return Err(BenchError::msg(format!("sweep plan axis `{axis}` is empty")));
            }
        }
        for w in &self.workloads {
            if !registry::irregular_names().contains(&w.as_str()) {
                return Err(BenchError::msg(format!(
                    "unknown workload `{w}` (known: {})",
                    registry::irregular_names().join(", ")
                )));
            }
        }
        if let Some(&s) = self.scales.iter().find(|&&s| s > gen::MAX_SCALE) {
            return Err(BenchError::msg(format!(
                "scale {s} exceeds {}: R-MAT vertex ids are u32",
                gen::MAX_SCALE
            )));
        }
        if let Some(spec) = &self.inject {
            InjectConfig::parse_spec(spec).map_err(|e| BenchError::context("sweep plan", &e))?;
        }
        let registry = PolicyRegistry::builtin();
        for policy in &self.policies {
            let spec =
                effective_spec(policy, self.coalesce.as_deref(), self.fault_servicing.as_deref());
            spec.validate(&registry).map_err(|e| {
                BenchError::context(&format!("sweep plan policy {}", policy.label()), &e)
            })?;
        }
        for &r in &self.ratios {
            if !r.is_finite() || r <= 0.0 {
                return Err(BenchError::msg(format!("ratio {r} must be positive")));
            }
        }
        Ok(())
    }

    /// Expands the cartesian product into cells, after
    /// [`validate`](Self::validate)-ing the plan.
    ///
    /// # Errors
    ///
    /// Propagates validation failures.
    pub fn cells(&self) -> Result<Vec<SweepCell>, BenchError> {
        self.validate()?;
        let mut out = Vec::new();
        for w in &self.workloads {
            for p in &self.policies {
                for &scale in &self.scales {
                    for &edge_factor in &self.edge_factors {
                        for &ratio in &self.ratios {
                            for &seed in &self.seeds {
                                out.push(SweepCell {
                                    workload: w.clone(),
                                    policy: p.clone(),
                                    scale,
                                    edge_factor,
                                    ratio,
                                    seed,
                                    inject: self.inject.clone(),
                                    coalesce: self.coalesce.clone(),
                                    fault_servicing: self.fault_servicing.clone(),
                                    tag: self.tag.clone(),
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> SweepCell {
        SweepCell {
            workload: "BFS-TTC".into(),
            policy: CellPolicy::Preset(ConfigName::Baseline),
            scale: 8,
            edge_factor: 4,
            ratio: 0.5,
            seed: 42,
            inject: None,
            coalesce: None,
            fault_servicing: None,
            tag: String::new(),
        }
    }

    #[test]
    fn default_plan_cell_ids_and_labels_are_pinned() {
        // The artifact store keys records by these ids: a change to the
        // hash or the label breaks `--resume` on every existing store.
        let pinned = [
            ("59e6602cd853621a", "BFS-TTC/BASELINE@s15e16r0.5x42"),
            ("14db571524d17ad5", "BFS-TTC/TO+UE@s15e16r0.5x42"),
            ("184b4fd57a2653a3", "PR/BASELINE@s15e16r0.5x42"),
            ("ea57ea9cfa5b00ba", "PR/TO+UE@s15e16r0.5x42"),
            ("51d5154ac9fca303", "SSSP-TWC/BASELINE@s15e16r0.5x42"),
            ("fcb323a850e85a1a", "SSSP-TWC/TO+UE@s15e16r0.5x42"),
        ];
        let cells = SweepPlan::default().cells().unwrap();
        let got: Vec<(String, String)> =
            cells.iter().map(|c| (c.id().to_string(), c.label())).collect();
        let want: Vec<(String, String)> =
            pinned.iter().map(|&(id, label)| (id.to_string(), label.to_string())).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn custom_cell_ids_and_labels_are_pinned() {
        // Pinned when custom cells held a struct of their own, before the
        // spec type replaced it: stores with custom cells must resume.
        let every_axis = PolicySpec {
            eviction: "random:7".into(),
            prefetch: "none".into(),
            oversubscription: "to:any".into(),
            compression: true,
            coalesce: "greedy:75".into(),
            page_size_kb: Some(4),
            fault_servicing: "gpu-driven:500".into(),
        };
        let pinned = [
            ("531b7b76f5afd82e", "BFS-TTC/lru/tree:50/none@s8e4r0.5x42", PolicySpec::default()),
            (
                "3c7ea761719f5df4",
                "BFS-TTC/random:7/none/to:any/+pciec/+co:greedy:75/+fs:gpu-driven:500/+pg:4k@s8e4r0.5x42",
                every_axis,
            ),
        ];
        for (id, label, policy) in pinned {
            let c = SweepCell { policy: CellPolicy::Custom(policy), ..cell() };
            assert_eq!((c.id().to_string(), c.label()), (id.to_string(), label.to_string()));
        }
    }

    #[test]
    fn default_fault_servicing_leaves_pre_axis_cell_ids_unchanged() {
        // Same compatibility rule as the coalesce axis: stores written
        // before fault-servicing existed must stay resumable.
        let base = cell();
        assert_eq!(SweepCell { fault_servicing: Some("cpu".into()), ..cell() }.id(), base.id());
        assert_eq!(
            SweepCell { fault_servicing: Some("cpu".into()), ..cell() }.label(),
            base.label()
        );
        let gpu = SweepCell { fault_servicing: Some("gpu-driven".into()), ..cell() };
        assert_ne!(gpu.id(), base.id(), "a live spec must perturb the hash");
        assert_eq!(gpu.label(), "BFS-TTC/BASELINE@s8e4r0.5x42+fs:gpu-driven");
    }

    #[test]
    fn off_coalesce_leaves_pre_axis_cell_ids_unchanged() {
        // Stores written before the coalesce axis existed must stay
        // resumable: both spellings of "off" hash identically to a cell
        // that never had the field.
        let base = cell();
        assert_eq!(SweepCell { coalesce: Some("off".into()), ..cell() }.id(), base.id());
        assert_eq!(SweepCell { coalesce: Some("off".into()), ..cell() }.label(), base.label());
        let greedy = SweepCell { coalesce: Some("greedy".into()), ..cell() };
        assert_ne!(greedy.id(), base.id(), "a live spec must perturb the hash");
        assert_eq!(greedy.label(), "BFS-TTC/BASELINE@s8e4r0.5x42+co:greedy");
    }

    #[test]
    fn cell_ids_are_stable_and_distinguish_every_field() {
        let base = cell();
        assert_eq!(base.id(), cell().id(), "same config hashes the same");
        let variants = [
            SweepCell { workload: "PR".into(), ..cell() },
            SweepCell { policy: CellPolicy::Preset(ConfigName::ToUe), ..cell() },
            SweepCell { scale: 9, ..cell() },
            SweepCell { edge_factor: 8, ..cell() },
            SweepCell { ratio: 0.75, ..cell() },
            SweepCell { seed: 43, ..cell() },
            SweepCell { inject: Some("noisy:42".into()), ..cell() },
            SweepCell { coalesce: Some("greedy:75".into()), ..cell() },
            SweepCell { fault_servicing: Some("gpu-driven:500".into()), ..cell() },
            SweepCell { tag: "alt-sim".into(), ..cell() },
        ];
        let mut ids: Vec<_> = variants.iter().map(SweepCell::id).collect();
        ids.push(base.id());
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "every field must perturb the hash");
    }

    #[test]
    fn labels_are_comma_free_and_name_the_point() {
        let c = SweepCell { inject: Some("lost:1:3".into()), ..cell() };
        let label = c.label();
        assert_eq!(label, "BFS-TTC/BASELINE@s8e4r0.5x42+lost:1:3");
        assert!(!label.contains(','));
    }

    #[test]
    fn default_plan_expands_to_the_historical_mini_sweep() {
        let cells = SweepPlan::default().cells().unwrap();
        assert_eq!(cells.len(), 6); // 3 workloads x 2 policies
        assert_eq!(cells[0].workload, "BFS-TTC");
        assert_eq!(cells[0].policy.label(), "BASELINE");
        assert_eq!(cells[5].workload, "SSSP-TWC");
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let mut p = SweepPlan { workloads: vec![], ..SweepPlan::default() };
        assert!(p.validate().unwrap_err().to_string().contains("workloads"));
        p = SweepPlan { workloads: vec!["NOPE".into()], ..SweepPlan::default() };
        assert!(p.validate().unwrap_err().to_string().contains("NOPE"));
        p = SweepPlan { inject: Some("chaos".into()), ..SweepPlan::default() };
        let err = p.validate().unwrap_err().to_string();
        assert!(err.contains("inject") && err.contains("noisy"), "{err}");
        p = SweepPlan { ratios: vec![0.0], ..SweepPlan::default() };
        assert!(p.validate().is_err());
        p = SweepPlan { coalesce: Some("eager".into()), ..SweepPlan::default() };
        let err = p.validate().unwrap_err().to_string();
        assert!(err.contains("eager"), "{err}");
        p = SweepPlan { fault_servicing: Some("dma".into()), ..SweepPlan::default() };
        let err = p.validate().unwrap_err().to_string();
        assert!(err.contains("dma") && err.contains("gpu-driven"), "{err}");
        let mru = PolicySpec { eviction: "mru".into(), ..PolicySpec::default() };
        p = SweepPlan { policies: vec![CellPolicy::Custom(mru)], ..SweepPlan::default() };
        let err = p.validate().unwrap_err().to_string();
        assert!(err.contains("mru"), "{err}");
    }

    #[test]
    fn validation_rejects_scales_past_u32_vertex_ids() {
        // A masked `1 << 36` would run a 16-vertex graph labelled `s36`.
        let p = SweepPlan { scales: vec![10, 31, 36], ..SweepPlan::default() };
        let err = p.cells().unwrap_err().to_string();
        assert!(err.contains("scale 36"), "{err}");
        assert!(SweepPlan { scales: vec![31], ..SweepPlan::default() }.validate().is_ok());
    }

    #[test]
    fn expansion_is_the_full_cartesian_product() {
        let plan = SweepPlan {
            workloads: vec!["BFS-TTC".into(), "PR".into()],
            policies: vec![
                CellPolicy::Preset(ConfigName::Baseline),
                CellPolicy::Custom(PolicySpec::default()),
            ],
            scales: vec![8, 9],
            edge_factors: vec![4],
            ratios: vec![0.5, 0.75],
            seeds: vec![1, 2, 3],
            inject: None,
            coalesce: None,
            fault_servicing: None,
            tag: String::new(),
        };
        let cells = plan.cells().unwrap();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2 * 3);
        let mut ids: Vec<_> = cells.iter().map(SweepCell::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), cells.len(), "cells are pairwise distinct");
    }
}
