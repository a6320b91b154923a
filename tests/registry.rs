//! Registry-level integration tests at the [`Simulation`] builder
//! boundary: spec resolution and every preset's pinned metrics.

use batmem::policies::{self, ConfigName};
use batmem::{PolicyRegistry, RunMetrics, Simulation};
use batmem_graph::Csr;
use batmem_types::SimError;
use batmem_workloads::registry as workloads;
use std::sync::Arc;

const ALL_CONFIGS: [ConfigName; 8] = [
    ConfigName::Baseline,
    ConfigName::BaselineCompressed,
    ConfigName::To,
    ConfigName::Ue,
    ConfigName::ToUe,
    ConfigName::Etc,
    ConfigName::IdealEviction,
    ConfigName::Unlimited,
];

fn graph() -> Arc<Csr> {
    Arc::new(batmem_graph::gen::rmat(8, 4, 1))
}

#[test]
fn every_preset_resolves_through_the_registry() {
    let reg = PolicyRegistry::builtin();
    let ctx = batmem::StrategyCtx { pages_per_region: 32 };
    for name in ALL_CONFIGS {
        let specs = policies::registry_specs(name);
        reg.build_eviction(specs.eviction, &ctx)
            .unwrap_or_else(|e| panic!("{name:?} eviction: {e}"));
        reg.build_prefetcher(specs.prefetch, &ctx)
            .unwrap_or_else(|e| panic!("{name:?} prefetch: {e}"));
        reg.build_oversubscription(specs.oversubscription)
            .unwrap_or_else(|e| panic!("{name:?} oversubscription: {e}"));
    }
}

#[test]
fn spec_driven_runs_match_preset_runs_exactly() {
    // Every preset, and every oversubscription spec form no preset names,
    // on an input where all of them differ. The preset rows' first four
    // columns are the runs of the policy-enum path the specs replaced,
    // which gave bit-identical metrics to the spec path on this input.
    let graph = Arc::new(batmem_graph::gen::rmat(12, 4, 1));
    let pinned: [(ConfigName, [u64; 8]); 8] = [
        (ConfigName::Baseline, [1_661_044, 0, 38, 108, 0, 0, 0, 0]),
        (ConfigName::BaselineCompressed, [1_480_183, 0, 38, 108, 0, 0, 0, 0]),
        (ConfigName::To, [1_317_805, 3_524, 30, 84, 3, 0, 0, 0]),
        (ConfigName::Ue, [1_251_280, 0, 38, 108, 0, 0, 0, 0]),
        (ConfigName::ToUe, [2_921_145, 4_839, 88, 258, 3, 0, 0, 0]),
        (ConfigName::Etc, [1_752_207, 0, 40, 114, 0, 0, 1, 0]),
        (ConfigName::IdealEviction, [1_251_832, 0, 38, 108, 0, 0, 0, 0]),
        (ConfigName::Unlimited, [89_777, 0, 3, 0, 0, 0, 0, 0]),
    ];
    assert_eq!(pinned.map(|(name, _)| name), ALL_CONFIGS);
    for (name, want) in pinned {
        let w = workloads::build("SSSP-TWC", Arc::clone(&graph)).unwrap();
        let mut b = Simulation::builder().policy(name.spec());
        if name != ConfigName::Unlimited {
            b = b.memory_ratio(0.5);
        }
        assert_eq!(pins(&b.try_run(w).unwrap()), want, "{name:?}: {PIN_COLUMNS}");
    }
    // BASELINE with only the oversubscription spec swapped.
    let specs: [(&str, [u64; 8]); 4] = [
        ("to:any", [1_326_269, 4_701, 30, 84, 3, 0, 0, 0]),
        ("adaptive:50000", [2_235_152, 1_336, 76, 76, 3, 0, 0, 0]),
        ("etc:25", [1_662_017, 0, 38, 108, 0, 0, 1, 0]),
        ("etc:50:pe", [1_323_442, 0, 40, 114, 0, 0, 1, 113]),
    ];
    for (spec, want) in specs {
        let w = workloads::build("SSSP-TWC", Arc::clone(&graph)).unwrap();
        let m = Simulation::builder().oversubscription(spec).memory_ratio(0.5).try_run(w).unwrap();
        assert_eq!(pins(&m), want, "{spec}: {PIN_COLUMNS}");
    }
}

/// What [`pins`] reads, in order, for the assertion messages.
const PIN_COLUMNS: &str = "(cycles, ctx switches, batches, evictions, final oversubscription \
     degree, degree decrements, MT engagements, proactive evictions)";

/// The columns of [`PIN_COLUMNS`].
fn pins(m: &RunMetrics) -> [u64; 8] {
    [
        m.cycles,
        m.ctx_switches,
        m.uvm.num_batches(),
        m.uvm.evictions,
        u64::from(m.final_oversub_degree),
        m.oversub_decrements,
        m.throttle_engagements,
        m.uvm.proactive_evictions,
    ]
}

#[test]
fn unknown_spec_is_a_typed_error_at_the_builder() {
    let w = workloads::build("BFS-TTC", graph()).unwrap();
    let err = Simulation::builder().eviction("mru").memory_ratio(0.5).try_run(w).unwrap_err();
    match err {
        SimError::UnknownPolicy { axis, name, known } => {
            assert_eq!(axis, "eviction");
            assert_eq!(name, "mru");
            assert!(known.contains("lru"), "{known}");
        }
        other => panic!("expected UnknownPolicy, got {other:?}"),
    }
    let w = workloads::build("BFS-TTC", graph()).unwrap();
    let err = Simulation::builder().prefetch("tree:0").memory_ratio(0.5).try_run(w).unwrap_err();
    assert!(matches!(err, SimError::InvalidConfig { .. }), "{err:?}");
}
