//! The ETC oversubscription framework (Li et al., ASPLOS 2019) — the
//! paper's strongest prior-work comparison point (Fig. 11).
//!
//! ETC combines three techniques, applied by application class:
//!
//! * **Proactive Eviction (PE)** — evict ahead of predicted need. The ETC
//!   authors disable PE for irregular applications because mispredicted
//!   timing hurts (§7 of the reproduced paper); we model it as an option
//!   ([`Etc::proactive_eviction`]) that the irregular preset leaves off,
//!   exactly replicating their methodology.
//! * **Memory-aware Throttling (MT)** — disable half the SMs when thrashing
//!   is detected, alternating *detection* and *execution* epochs
//!   ([`Etc::tick`]).
//! * **Capacity Compression (CC)** — compress device memory to fit more
//!   pages at an access-latency penalty ([`Etc::effective_capacity`],
//!   [`Etc::access_penalty`]).
//!
//! [`Etc`] is all of it: the `etc[:<throttle_percent>[:pe]]`
//! oversubscription spec resolves to one. The simulation engine consults
//! it: MT decides how many SMs may issue, and CC inflates effective
//! capacity while taxing DRAM accesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use batmem_types::dense::PageSet;
use batmem_types::{Cycle, PageId};

/// Fraction of SMs (in percent) MT disables when the spec names none
/// (§5.2 footnote 8: "MT statically throttles half of the SMs").
pub const DEFAULT_THROTTLE_PERCENT: u8 = 50;
/// Length of a detection epoch.
pub const DETECTION_EPOCH: Cycle = 100_000;
/// Length of an execution epoch.
pub const EXECUTION_EPOCH: Cycle = 200_000;
/// Premature-fault rate (re-faults / faults, in percent) at or above which
/// a detection epoch concludes the workload is thrashing.
pub const THRASH_THRESHOLD_PERCENT: u64 = 10;
/// Effective-capacity multiplier from compression, ×100 (115 ⇒ +15 %;
/// graph payloads — edge lists and hub-heavy property arrays — compress
/// far worse than the dense numeric data CC was tuned on).
pub const COMPRESSION_CAPACITY_X100: u64 = 115;
/// Extra DRAM latency per access to (potentially) compressed data.
pub const COMPRESSED_ACCESS_PENALTY: Cycle = 25;

/// Which phase the throttling controller is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThrottlePhase {
    /// Measuring the thrash rate at full SM count.
    Detection,
    /// Running with a subset of SMs disabled (or all enabled if the last
    /// detection found no thrashing).
    Execution,
}

/// The ETC framework in irregular-application mode: MT and CC always, PE
/// when the spec asks for it.
///
/// MT alternates a detection epoch — full SM count, measuring the
/// premature-fault rate — with an execution epoch whose SM count depends on
/// the verdict. "When triggered, MT statically throttles half of the SMs"
/// (§5.2 footnote 8).
#[derive(Debug, Clone)]
pub struct Etc {
    throttle_percent: u8,
    proactive_eviction: bool,
    phase: ThrottlePhase,
    phase_end: Cycle,
    throttled: u16,
    /// Every page that has faulted: a fault on one of them counts as a
    /// re-fault.
    seen: PageSet,
    window_faults: u64,
    window_refaults: u64,
    /// Refault rate measured by the detection epoch that triggered the
    /// current engagement, for the effectiveness comparison.
    detection_rate: f64,
    /// Set by the first engagement that failed to reduce the refault rate:
    /// MT then never engages again. For irregular workloads the working
    /// set is shared across SMs, so throttling cannot shrink it (§1,
    /// Fig. 1).
    mt_disabled: bool,
    engagements: u64,
}

impl Etc {
    /// ETC disabling `throttle_percent` of the SMs (in `1..=100`; the
    /// policy registry checks the range where it parses the spec) when MT
    /// engages, with proactive eviction on or off. The first detection
    /// epoch starts at time zero.
    pub fn new(throttle_percent: u8, proactive_eviction: bool) -> Self {
        debug_assert!((1..=100).contains(&throttle_percent), "throttle {throttle_percent}%");
        Self {
            throttle_percent,
            proactive_eviction,
            phase: ThrottlePhase::Detection,
            phase_end: DETECTION_EPOCH,
            throttled: 0,
            seen: PageSet::new(),
            window_faults: 0,
            window_refaults: 0,
            detection_rate: 0.0,
            mt_disabled: false,
            engagements: 0,
        }
    }

    /// Whether the run evicts proactively (the spec's `:pe`).
    pub fn proactive_eviction(&self) -> bool {
        self.proactive_eviction
    }

    /// Effective device capacity in pages under compression.
    pub fn effective_capacity(&self, base_pages: u64) -> u64 {
        base_pages * COMPRESSION_CAPACITY_X100 / 100
    }

    /// Extra cycles every DRAM access pays for compression.
    pub fn access_penalty(&self) -> Cycle {
        COMPRESSED_ACCESS_PENALTY
    }

    /// Records a fault on `page` in the current epoch; a page that faulted
    /// before counts as a re-fault.
    pub fn on_fault(&mut self, page: PageId) {
        self.window_faults += 1;
        if !self.seen.insert(page) {
            self.window_refaults += 1;
        }
    }

    /// Advances the state machine at `now` on a GPU of `num_sms` SMs;
    /// returns `true` if the throttled-SM count changed (the engine must
    /// pause or resume SMs).
    pub fn tick(&mut self, now: Cycle, num_sms: u16) -> bool {
        if now < self.phase_end {
            return false;
        }
        let before = self.throttled;
        let rate = if self.window_faults == 0 {
            0.0
        } else {
            self.window_refaults as f64 / self.window_faults as f64
        };
        match self.phase {
            ThrottlePhase::Detection => {
                let thrashing = self.window_faults > 0
                    && self.window_refaults * 100 >= THRASH_THRESHOLD_PERCENT * self.window_faults;
                // A percent below one SM's share disables nothing: that is
                // no engagement, and there is nothing to judge afterwards.
                let disable = (u32::from(num_sms) * u32::from(self.throttle_percent) / 100) as u16;
                self.throttled = if thrashing && !self.mt_disabled && disable > 0 {
                    self.engagements += 1;
                    self.detection_rate = rate;
                    disable
                } else {
                    0
                };
                self.phase = ThrottlePhase::Execution;
                self.phase_end = now + EXECUTION_EPOCH;
            }
            ThrottlePhase::Execution => {
                // Did throttling actually reduce the refault rate? For
                // workloads whose pages are shared across SMs it cannot,
                // and MT backs off instead of strangling parallelism.
                if self.throttled > 0 && rate >= self.detection_rate * 0.9 {
                    self.mt_disabled = true;
                }
                self.throttled = 0;
                self.phase = ThrottlePhase::Detection;
                self.phase_end = now + DETECTION_EPOCH;
            }
        }
        self.window_faults = 0;
        self.window_refaults = 0;
        before != self.throttled
    }

    /// SMs currently disabled (the engine pauses the highest-numbered ones).
    pub fn throttled_sms(&self) -> u16 {
        self.throttled
    }

    /// Current phase.
    pub fn phase(&self) -> ThrottlePhase {
        self.phase
    }

    /// Next time [`Etc::tick`] should run.
    pub fn next_tick(&self) -> Cycle {
        self.phase_end
    }

    /// Times MT engaged throttling, disabling at least one SM.
    pub fn engagements(&self) -> u64 {
        self.engagements
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn irregular() -> Etc {
        Etc::new(DEFAULT_THROTTLE_PERCENT, false)
    }

    /// Faults on `n` pages, every other one a page that faulted before.
    fn half_refaults(t: &mut Etc, n: u64) {
        for i in 0..n {
            t.on_fault(PageId::new(i / 2));
        }
    }

    #[test]
    fn effective_capacity_boost() {
        assert_eq!(irregular().effective_capacity(100), 115);
        assert_eq!(irregular().access_penalty(), 25);
    }

    #[test]
    fn parameterized_throttle_preset() {
        let mut t = Etc::new(25, true);
        assert!(t.proactive_eviction());
        assert!(!irregular().proactive_eviction());
        half_refaults(&mut t, 100);
        assert!(t.tick(DETECTION_EPOCH, 16));
        assert_eq!(t.throttled_sms(), 4);
    }

    #[test]
    fn a_page_that_faulted_before_is_a_refault() {
        let mut t = irregular();
        // 19 first faults and one repeat: 5 %, under the threshold.
        for i in 0..19 {
            t.on_fault(PageId::new(i));
        }
        t.on_fault(PageId::new(0));
        assert!(!t.tick(DETECTION_EPOCH, 16));
        t.tick(DETECTION_EPOCH + EXECUTION_EPOCH, 16);
        // The same 20 pages again: all repeats.
        for i in 0..20 {
            t.on_fault(PageId::new(i));
        }
        assert!(t.tick(2 * DETECTION_EPOCH + EXECUTION_EPOCH, 16));
    }

    #[test]
    fn throttles_after_thrashy_detection_epoch() {
        let mut t = irregular();
        half_refaults(&mut t, 100); // 50% refault rate
        assert!(t.tick(100_000, 16));
        assert_eq!(t.throttled_sms(), 8);
        assert_eq!(t.phase(), ThrottlePhase::Execution);
        assert_eq!(t.engagements(), 1);
    }

    #[test]
    fn a_throttle_below_one_sm_never_engages() {
        // 5 % of 16 SMs rounds down to none: MT must not count an
        // engagement every detection epoch while disabling nothing.
        let mut t = Etc::new(5, false);
        let mut now = 0;
        for _ in 0..4 {
            now += DETECTION_EPOCH;
            half_refaults(&mut t, 100);
            assert!(!t.tick(now, 16));
            assert_eq!(t.throttled_sms(), 0);
            now += EXECUTION_EPOCH;
            t.tick(now, 16);
        }
        assert_eq!(t.engagements(), 0);
        // 7 % of 16 is one SM: that engages.
        let mut t = Etc::new(7, false);
        half_refaults(&mut t, 100);
        assert!(t.tick(DETECTION_EPOCH, 16));
        assert_eq!((t.throttled_sms(), t.engagements()), (1, 1));
    }

    #[test]
    fn quiet_detection_epoch_keeps_all_sms() {
        let mut t = irregular();
        for i in 0..100 {
            t.on_fault(PageId::new(i));
        }
        assert!(!t.tick(100_000, 16));
        assert_eq!(t.throttled_sms(), 0);
    }

    #[test]
    fn execution_epoch_returns_to_detection() {
        let mut t = irregular();
        half_refaults(&mut t, 10);
        t.tick(100_000, 16);
        assert_eq!(t.throttled_sms(), 8);
        // End of execution epoch: unthrottle and start measuring afresh.
        assert!(t.tick(300_000, 16));
        assert_eq!(t.throttled_sms(), 0);
        assert_eq!(t.phase(), ThrottlePhase::Detection);
    }

    #[test]
    fn early_tick_is_noop() {
        let mut t = irregular();
        assert!(!t.tick(100, 16));
        assert_eq!(t.phase(), ThrottlePhase::Detection);
    }

    #[test]
    fn disabled_controller_never_throttles() {
        let mut t = irregular();
        half_refaults(&mut t, 10);
        assert!(t.tick(100_000, 16));
        // Throttling left the refault rate where it was: MT gives up.
        half_refaults(&mut t, 10);
        assert!(t.tick(300_000, 16));
        for now in [400_000, 600_000, 700_000, 900_000] {
            for i in 0..100 {
                t.on_fault(PageId::new(i % 3));
            }
            assert!(!t.tick(now, 16));
            assert_eq!(t.throttled_sms(), 0);
        }
        assert_eq!(t.engagements(), 1);
    }
}
