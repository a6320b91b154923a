//! Property-based tests for the policy registry's spec grammar.
//!
//! The contract under test: every axis turns arbitrary and malformed spec
//! strings into *typed* errors — `UnknownPolicy` with the right axis label
//! or `InvalidConfig` from the parameter parser — and never panics; and
//! every well-formed spec resolves. The `proptest!` harness catches
//! unwinds, so any panic inside a builder fails the property with the
//! offending spec printed.

use batmem_types::SimError;
use batmem_uvm::{PolicyRegistry, StrategyCtx};
use proptest::prelude::*;

/// The characters real specs are built from (colons included, so
/// multi-parameter and trailing-colon shapes appear often), plus a few
/// separators that must never confuse the parser.
const SPEC_CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789:-._ |";

/// Arbitrary spec-shaped garbage.
fn fuzz_spec() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..SPEC_CHARSET.len(), 0..18)
        .prop_map(|ix| ix.into_iter().map(|i| SPEC_CHARSET[i] as char).collect())
}

/// Every name registered on any of the five axes.
fn known_name() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("lru"),
        Just("ue"),
        Just("ideal"),
        Just("random"),
        Just("none"),
        Just("tree"),
        Just("to"),
        Just("etc"),
        Just("adaptive"),
        Just("off"),
        Just("greedy"),
        Just("splinter"),
        Just("cpu"),
        Just("gpu-driven"),
    ]
}

/// One parameter: in-range numbers, boundary/overflowing numbers, the
/// keyword parameters, empty, and plain junk.
fn fuzz_param() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u64..=u64::MAX).prop_map(|n| n.to_string()),
        (0u64..300).prop_map(|n| n.to_string()),
        Just("18446744073709551616".to_string()), // u64::MAX + 1
        Just("-1".to_string()),
        Just(String::new()),
        Just("fault".to_string()),
        Just("any".to_string()),
        Just("on-evict".to_string()),
        Just("x".to_string()),
    ]
}

fn ctx() -> StrategyCtx {
    StrategyCtx { pages_per_region: 32 }
}

/// Feeds one spec through all five axes. Success is fine; failure must be
/// one of the two parse-layer error variants, and an unknown-name
/// rejection must name the axis it happened on and list its real entries.
fn check_all_axes(r: &PolicyRegistry, spec: &str) {
    let c = ctx();
    let outcomes: [(&str, Option<SimError>); 5] = [
        ("eviction", r.build_eviction(spec, &c).err()),
        ("prefetch", r.build_prefetcher(spec, &c).err()),
        ("oversubscription", r.build_oversubscription(spec).err()),
        ("coalesce", r.build_coalesce(spec).err()),
        ("fault-servicing", r.build_servicing(spec).err()),
    ];
    for (axis, err) in outcomes {
        match err {
            None | Some(SimError::InvalidConfig { .. }) => {}
            Some(SimError::UnknownPolicy { axis: got, name, known }) => {
                assert_eq!(got, axis, "wrong axis label for spec {spec:?}");
                assert!(!known.is_empty(), "{axis}: empty known-name list");
                assert!(
                    !name.contains(':'),
                    "{axis}: unsplit spec leaked into the error: {name:?}"
                );
            }
            Some(other) => {
                panic!("{axis}: non-parse error {other:?} for spec {spec:?}")
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary garbage on every axis: typed errors or clean builds,
    /// never a panic.
    #[test]
    fn arbitrary_specs_never_panic_on_any_axis(spec in fuzz_spec()) {
        check_all_axes(&PolicyRegistry::builtin(), &spec);
    }

    /// Known names with fuzzed parameter lists (0–3 parameters drawn from
    /// numbers, overflow literals, keywords, and junk) never panic on any
    /// axis — including the axes the name does *not* belong to.
    #[test]
    fn known_names_with_fuzzed_params_never_panic(
        name in known_name(),
        params in prop::collection::vec(fuzz_param(), 0..3),
    ) {
        let mut spec = name.to_string();
        for p in &params {
            spec.push(':');
            spec.push_str(p);
        }
        check_all_axes(&PolicyRegistry::builtin(), &spec);
    }

    /// The three percentage-parameterized specs (`etc`, `tree`, `greedy`)
    /// share one validation law: accepted exactly on 1..=100, rejected
    /// with `InvalidConfig` everywhere else — including the `etc:0` shape
    /// the parser used to wave through.
    #[test]
    fn percent_params_accept_exactly_1_to_100(pct in 0u64..400) {
        let r = PolicyRegistry::builtin();
        let c = ctx();
        let in_range = (1..=100).contains(&pct);
        let outcomes = [
            ("etc", r.build_oversubscription(&format!("etc:{pct}")).err()),
            ("tree", r.build_prefetcher(&format!("tree:{pct}"), &c).err()),
            ("greedy", r.build_coalesce(&format!("greedy:{pct}")).err()),
        ];
        for (name, err) in outcomes {
            match err {
                None => prop_assert!(in_range, "{name}:{pct} accepted out of range"),
                Some(SimError::InvalidConfig { .. }) => {
                    prop_assert!(!in_range, "{name}:{pct} rejected in range")
                }
                Some(other) => panic!("{name}:{pct}: unexpected error {other:?}"),
            }
        }
    }

    /// Positive cycle-count parameters resolve across the whole u64 range
    /// (no hidden overflow in the epoch or occupancy arithmetic at parse
    /// time), and zero is rejected where a zero would wedge the model.
    #[test]
    fn positive_u64_params_resolve(v in 1u64..=u64::MAX) {
        let r = PolicyRegistry::builtin();
        let c = ctx();
        prop_assert!(r.build_oversubscription(&format!("adaptive:{v}")).is_ok());
        prop_assert!(r.build_servicing(&format!("gpu-driven:{v}")).is_ok());
        prop_assert!(r.build_eviction(&format!("random:{v}"), &c).is_ok());
    }

    /// A trailing colon (empty parameter) is malformed on every known
    /// name: nothing parses `""` as a number, trigger, or mode, and
    /// no-parameter names reject any parameter list at all.
    #[test]
    fn trailing_colon_is_always_rejected(name in known_name()) {
        check_all_axes(&PolicyRegistry::builtin(), &format!("{name}:"));
        let r = PolicyRegistry::builtin();
        let c = ctx();
        let spec = format!("{name}:");
        let all_err = r.build_eviction(&spec, &c).is_err()
            && r.build_prefetcher(&spec, &c).is_err()
            && r.build_oversubscription(&spec).is_err()
            && r.build_coalesce(&spec).is_err()
            && r.build_servicing(&spec).is_err();
        prop_assert!(all_err, "{spec:?} resolved on some axis");
    }
}

/// Zero is rejected exactly where a zero parameter would wedge the model.
#[test]
fn zero_params_are_rejected_where_they_would_wedge() {
    let r = PolicyRegistry::builtin();
    let c = ctx();
    assert!(matches!(r.build_oversubscription("adaptive:0"), Err(SimError::InvalidConfig { .. })));
    assert!(matches!(r.build_servicing("gpu-driven:0"), Err(SimError::InvalidConfig { .. })));
    // A zero random seed is a legal seed.
    assert!(r.build_eviction("random:0", &c).is_ok());
}
