//! Policy settings and the types policy specs resolve to.
//!
//! The evaluation in the paper compares six configurations (Fig. 11):
//!
//! * `BASELINE` — demand paging with the state-of-the-art tree prefetcher,
//!   serialized LRU eviction, no oversubscription of thread blocks;
//! * `BASELINE with PCIe Compression` — the same plus link compression;
//! * `TO` — thread oversubscription (Virtual-Thread-based block context
//!   switching on page-fault stalls, with a dynamic degree controller);
//! * `UE` — unobtrusive eviction (preemptive + pipelined bidirectional);
//! * `TO+UE` — both (the paper's proposal);
//! * `ETC` — the Li et al. ASPLOS'19 framework (see `batmem-etc`).
//!
//! A run names its configuration as a policy spec (`batmem::policies`):
//! one spec string per axis, resolved through the policy table. This
//! module holds the TO switch trigger a spec names ([`SwitchTrigger`]),
//! the setting no spec names ([`PolicyConfig`]), and the table's
//! self-description ([`PolicyAxis`], [`PolicyDescriptor`]).

use crate::error::SimError;
use crate::time::Cycle;
use std::fmt;

/// What makes an active thread block eligible for a context switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchTrigger {
    /// Switch only when every warp of the block is blocked on a page fault
    /// (the paper's TO mechanism, §4.1).
    #[default]
    FaultStall,
    /// Switch whenever every warp is stalled for any reason, including plain
    /// memory latency — the "traditional GPU" experiment of Fig. 5, where
    /// context switching without demand paging only hurts.
    AnyStall,
}

/// PCIe link compression parameters (the `BASELINE with PCIe Compression`
/// bar of Fig. 11). Whether a run compresses is part of its policy spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcieCompression {
    /// Compression ratio ×100 (150 ⇒ transfers shrink to 2⁄3 size).
    pub ratio_x100: u32,
    /// Added (de)compression latency per page transfer.
    pub per_page_latency: Cycle,
}

impl Default for PcieCompression {
    fn default() -> Self {
        Self { ratio_x100: 150, per_page_latency: 500 }
    }
}

impl PcieCompression {
    /// Wire bytes for a compressed logical transfer of `bytes`.
    pub fn wire_bytes(&self, bytes: u64) -> u64 {
        (bytes * 100).div_ceil(u64::from(self.ratio_x100))
    }
}

/// The decision point of the fault pipeline a strategy plugs into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyAxis {
    /// Victim selection and device-to-host transfer scheduling.
    Eviction,
    /// Batch-time page prefetch expansion.
    Prefetch,
    /// Thread-oversubscription degree control.
    Oversubscription,
    /// Large-page coalescing and splintering (multi-page-size management).
    Coalesce,
    /// Fault-servicing cost model: who runs the fault handler (the CPU
    /// round-trip of the classic driver, or a GPU-driven handler).
    FaultServicing,
}

impl PolicyAxis {
    /// Lower-case label used in error messages and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            PolicyAxis::Eviction => "eviction",
            PolicyAxis::Prefetch => "prefetch",
            PolicyAxis::Oversubscription => "oversubscription",
            PolicyAxis::Coalesce => "coalesce",
            PolicyAxis::FaultServicing => "fault-servicing",
        }
    }
}

impl fmt::Display for PolicyAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Self-description of a strategy in the policy table.
///
/// Descriptors drive `--list-policies` introspection: a table row carries
/// one next to its build fn so the CLI can enumerate what is available
/// without constructing anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyDescriptor {
    /// Which pipeline decision point the strategy implements.
    pub axis: PolicyAxis,
    /// Table key, matched against the name part of a spec string.
    pub name: &'static str,
    /// Human-readable parameter syntax, e.g. `":<threshold_percent>"` for
    /// `tree:50`. Empty when the strategy takes none, and then a spec with
    /// parameters is rejected.
    pub params: &'static str,
    /// One-line summary shown by `--list-policies`.
    pub summary: &'static str,
}

/// The policy setting no policy spec names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PolicyConfig {
    /// PCIe link compression parameters, used when the spec compresses.
    pub compression: PcieCompression,
}

impl PolicyConfig {
    /// Rejects policy settings outside their meaningful ranges.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.compression.ratio_x100 < 100 {
            return Err(SimError::invalid_config(
                "policy.compression.ratio_x100",
                format!(
                    "compression must not expand data (>= 100), got {}",
                    self.compression.ratio_x100
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_shrinks_wire_bytes() {
        let c = PcieCompression { ratio_x100: 150, per_page_latency: 0 };
        assert_eq!(c.wire_bytes(150), 100);
        assert_eq!(c.wire_bytes(65536), 43691); // rounds up
        let neutral = PcieCompression { ratio_x100: 100, per_page_latency: 0 };
        assert_eq!(neutral.wire_bytes(65536), 65536);
    }

    #[test]
    fn degenerate_policy_knobs_are_rejected() {
        PolicyConfig::default().validate().unwrap();
        let mut p = PolicyConfig::default();
        p.compression.ratio_x100 = 50;
        assert!(p.validate().is_err());
    }

    #[test]
    fn policy_axis_labels_are_cli_friendly() {
        assert_eq!(PolicyAxis::Eviction.label(), "eviction");
        assert_eq!(PolicyAxis::Prefetch.to_string(), "prefetch");
        assert_eq!(PolicyAxis::Oversubscription.label(), "oversubscription");
        assert_eq!(PolicyAxis::Coalesce.label(), "coalesce");
        assert_eq!(PolicyAxis::FaultServicing.label(), "fault-servicing");
        let d = PolicyDescriptor {
            axis: PolicyAxis::Prefetch,
            name: "tree",
            params: ":<threshold_percent>",
            summary: "tree-based density prefetcher",
        };
        assert_eq!(d, d.clone());
    }
}
