//! Structured simulation errors and the audit-level knob.
//!
//! Before this module existed, a mis-tracked frame or an impossible state
//! transition killed the process through a bare `expect()` deep inside the
//! UVM runtime — fine for a prototype, useless for a batch harness that
//! sweeps dozens of configurations. [`SimError`] carries the cycle, the
//! event, and the machine state at the point of failure so a failed run is
//! a diagnosable data point instead of a dead process.
//!
//! The error type is hand-written (`Display` + `std::error::Error`) because
//! the offline build cannot fetch `thiserror`; the shape matches what the
//! derive would have produced.

use crate::time::Cycle;
use std::error::Error;
use std::fmt;

/// How much invariant checking the engine performs while running.
///
/// Auditing re-derives conservation laws from scratch after every UVM event,
/// so it costs time proportional to the resident set; it is off by default
/// and intended for tests, CI, and debugging suspect runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum AuditLevel {
    /// No checking (production default).
    #[default]
    Off,
    /// Cheap structural checks: state/plan consistency, in-flight counts.
    Basic,
    /// Everything: frame conservation, frame uniqueness, page-table
    /// cross-checks. Cost is O(resident pages) per UVM event.
    Full,
}

impl AuditLevel {
    /// Whether any auditing is enabled.
    pub fn enabled(self) -> bool {
        self != AuditLevel::Off
    }
}

impl fmt::Display for AuditLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditLevel::Off => write!(f, "off"),
            AuditLevel::Basic => write!(f, "basic"),
            AuditLevel::Full => write!(f, "full"),
        }
    }
}

/// A structured simulation failure.
///
/// Every variant carries enough context to reconstruct *where* in simulated
/// time and *in which piece of machine state* the failure happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A configuration field failed validation before the run started.
    InvalidConfig {
        /// Dotted path of the offending field (e.g. `gpu.num_sms`).
        field: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// An event arrived that the current machine state cannot legally accept.
    StateMachine {
        /// Simulated time of the offending event.
        cycle: Cycle,
        /// The event that could not be applied.
        event: String,
        /// The state the machine was in.
        state: String,
        /// What specifically went wrong.
        detail: String,
    },
    /// Page/frame residency bookkeeping contradicted itself.
    Accounting {
        /// Simulated time of the detection.
        cycle: Cycle,
        /// What the books said versus what was attempted.
        detail: String,
    },
    /// An enabled invariant audit found a conservation law broken.
    InvariantViolated {
        /// Simulated time of the audit.
        cycle: Cycle,
        /// Name of the violated invariant.
        invariant: &'static str,
        /// Snapshot of the relevant state at the point of violation.
        snapshot: String,
    },
    /// The watchdog saw a configurable budget of events pass with no forward
    /// progress (no warp advanced, no page arrived, no block retired).
    Livelock {
        /// Simulated time when the watchdog fired.
        cycle: Cycle,
        /// Consecutive no-progress events observed.
        events_without_progress: u64,
        /// Diagnostic dump of the engine state.
        snapshot: String,
    },
    /// The event queue drained with unfinished work — nothing left to do,
    /// but blocks or pages remain outstanding.
    Deadlock {
        /// Simulated time when the queue emptied.
        cycle: Cycle,
        /// Diagnostic dump of what was still outstanding.
        detail: String,
    },
    /// A policy-registry lookup named a strategy that is not registered.
    UnknownPolicy {
        /// Which policy axis the lookup was on (`eviction`, `prefetch`, …).
        axis: &'static str,
        /// The name that failed to resolve.
        name: String,
        /// Comma-separated list of names the registry does know.
        known: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { field, reason } => {
                write!(f, "invalid config: {field}: {reason}")
            }
            SimError::StateMachine { cycle, event, state, detail } => {
                write!(
                    f,
                    "state-machine violation at cycle {cycle}: event {event} in state {state}: {detail}"
                )
            }
            SimError::Accounting { cycle, detail } => {
                write!(f, "accounting violation at cycle {cycle}: {detail}")
            }
            SimError::InvariantViolated { cycle, invariant, snapshot } => {
                write!(f, "invariant violated at cycle {cycle}: {invariant}; state: {snapshot}")
            }
            SimError::Livelock { cycle, events_without_progress, snapshot } => {
                write!(
                    f,
                    "livelock detected at cycle {cycle}: {events_without_progress} events without forward progress; state: {snapshot}"
                )
            }
            SimError::Deadlock { cycle, detail } => {
                write!(f, "deadlock at cycle {cycle}: event queue empty but {detail}")
            }
            SimError::UnknownPolicy { axis, name, known } => {
                write!(f, "unknown {axis} policy `{name}` (known: {known})")
            }
        }
    }
}

impl Error for SimError {}

impl SimError {
    /// Shorthand constructor for config-validation failures.
    pub fn invalid_config(field: &'static str, reason: impl Into<String>) -> Self {
        SimError::InvalidConfig { field, reason: reason.into() }
    }

    /// Stamps a mid-run cycle onto an error. Every in-tree error producer
    /// now takes the caller's clock and stamps errors at the mint site, so
    /// this is only needed by external drivers that replay stored errors at
    /// a different simulated time.
    pub fn at_cycle(mut self, at: Cycle) -> Self {
        match &mut self {
            SimError::InvalidConfig { .. } | SimError::UnknownPolicy { .. } => {}
            SimError::StateMachine { cycle, .. }
            | SimError::Accounting { cycle, .. }
            | SimError::InvariantViolated { cycle, .. }
            | SimError::Livelock { cycle, .. }
            | SimError::Deadlock { cycle, .. } => *cycle = at,
        }
        self
    }

    /// The simulated cycle the error occurred at, if it happened mid-run.
    pub fn cycle(&self) -> Option<Cycle> {
        match self {
            SimError::InvalidConfig { .. } | SimError::UnknownPolicy { .. } => None,
            SimError::StateMachine { cycle, .. }
            | SimError::Accounting { cycle, .. }
            | SimError::InvariantViolated { cycle, .. }
            | SimError::Livelock { cycle, .. }
            | SimError::Deadlock { cycle, .. } => Some(*cycle),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_cycle_and_context() {
        let e = SimError::StateMachine {
            cycle: 1234,
            event: "PageArrived(page:7)".into(),
            state: "Idle".into(),
            detail: "no batch is migrating".into(),
        };
        let s = e.to_string();
        assert!(s.contains("1234"));
        assert!(s.contains("PageArrived"));
        assert!(s.contains("Idle"));
        assert_eq!(e.cycle(), Some(1234));
    }

    #[test]
    fn config_errors_have_no_cycle() {
        let e = SimError::invalid_config("gpu.num_sms", "must be nonzero");
        assert_eq!(e.cycle(), None);
        assert!(e.to_string().contains("gpu.num_sms"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> =
            Box::new(SimError::Deadlock { cycle: 9, detail: "3 blocks remaining".into() });
        assert!(e.to_string().contains("deadlock"));
    }

    #[test]
    fn unknown_policy_has_no_cycle_and_names_the_axis() {
        let e = SimError::UnknownPolicy {
            axis: "eviction",
            name: "mru".into(),
            known: "ideal, lru, random, ue".into(),
        };
        assert_eq!(e.cycle(), None);
        let s = e.to_string();
        assert!(s.contains("eviction"));
        assert!(s.contains("`mru`"));
        assert!(s.contains("lru"));
        assert_eq!(e.clone().at_cycle(99).cycle(), None);
    }

    #[test]
    fn audit_levels_are_ordered() {
        assert!(AuditLevel::Off < AuditLevel::Basic);
        assert!(AuditLevel::Basic < AuditLevel::Full);
        assert!(!AuditLevel::Off.enabled());
        assert!(AuditLevel::Full.enabled());
        assert_eq!(AuditLevel::default(), AuditLevel::Off);
        assert_eq!(AuditLevel::Full.to_string(), "full");
    }
}
