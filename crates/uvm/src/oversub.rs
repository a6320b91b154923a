//! The oversubscription axis: what an oversubscription spec resolves to.
//!
//! One value per run, [`Oversubscription`], picks exactly one scheme:
//!
//! * [`Oversubscription::Off`] — `none`;
//! * [`Oversubscription::To`] — the paper's Thread Oversubscription (§4.1),
//!   `to[:fault|any]` and the closed-loop `adaptive[:window]`
//!   ([`crate::adaptive`]);
//! * [`Oversubscription::Etc`] — the ETC framework (`batmem-etc`),
//!   `etc[:<throttle_percent>[:pe]]`.
//!
//! The engine owns the value and asks it how many inactive blocks to hold,
//! whether a stalled block may switch out, how many SMs are throttled, and
//! when its periodic controller runs next. Adding a scheme means adding a
//! variant, and the engine code that acts on it.
//!
//! TO's degree controller ([`OversubController`]): the runtime starts with
//! one extra thread block per SM; every lifetime-sample period it compares
//! the running average page lifetime to the previous sample. A drop of at
//! least the threshold signals premature evictions, so the controller
//! decrements the allowed degree (disallowing further context switch-ins);
//! otherwise it incrementally allocates one more block per SM, up to the
//! cap.

use crate::adaptive::{AdaptiveProbe, AdaptiveSignals};
use crate::lifetime::LifetimeSample;
use crate::pipeline::UvmRuntime;
use batmem_etc::Etc;
use batmem_types::policy::SwitchTrigger;
use batmem_types::Cycle;

/// Extra (inactive) blocks allocated per SM at kernel launch.
pub const INITIAL_EXTRA_BLOCKS: u32 = 1;
/// Upper bound on the degree the dynamic controller may reach.
pub const MAX_EXTRA_BLOCKS: u32 = 3;
/// Period, in cycles, of the premature-eviction (page lifetime) monitoring
/// that drives the controller (paper: every 100k cycles).
pub const LIFETIME_SAMPLE_PERIOD: Cycle = 100_000;
/// If the running average page lifetime drops by at least this percent
/// between samples, the controller decrements the degree (paper: threshold
/// empirically set to 20 %).
pub const LIFETIME_DROP_THRESHOLD_PERCENT: u32 = 20;

/// A run's oversubscription scheme, with the state of its controller.
#[derive(Debug)]
pub enum Oversubscription {
    /// No oversubscription: no inactive blocks, no throttling.
    Off,
    /// Thread Oversubscription: inactive blocks switch in when an active
    /// block stalls.
    To {
        /// When a block becomes switchable.
        trigger: SwitchTrigger,
        /// The dynamic degree controller.
        controller: OversubController,
        /// For `adaptive`: the epoch length of its probe, and the signals
        /// the probe publishes. While they signal pressure, the degree is
        /// one lower and no block switches in.
        adaptive: Option<(Cycle, AdaptiveSignals)>,
    },
    /// The ETC framework: memory-aware throttling, capacity compression
    /// and, with `:pe`, proactive eviction.
    Etc(Etc),
}

impl Oversubscription {
    /// Static TO switching on `trigger` (the `to` spec).
    pub fn to(trigger: SwitchTrigger) -> Self {
        Self::To { trigger, controller: OversubController::new(), adaptive: None }
    }

    /// Closed-loop TO whose probe closes an epoch every `window` cycles
    /// (the `adaptive` spec).
    pub fn adaptive(window: Cycle) -> Self {
        Self::To {
            trigger: SwitchTrigger::FaultStall,
            controller: OversubController::new(),
            adaptive: Some((window, AdaptiveSignals::new())),
        }
    }

    /// Turns on what the scheme changes inside the UVM runtime: ETC's
    /// proactive eviction, and the adaptive signals batch formation reads.
    pub fn configure(&self, uvm: &mut UvmRuntime) {
        match self {
            Self::To { adaptive: Some((_, signals)), .. } => {
                uvm.set_adaptive_signals(signals.clone());
            }
            Self::Etc(etc) if etc.proactive_eviction() => uvm.enable_proactive_eviction(),
            _ => {}
        }
    }

    /// The sensor half of the `adaptive` loop, to attach to the run's
    /// probe hub; `None` for every other spec.
    pub fn adaptive_probe(&self) -> Option<AdaptiveProbe> {
        match self {
            Self::To { adaptive: Some((window, signals)), .. } => {
                Some(AdaptiveProbe::new(*window, signals.clone()))
            }
            _ => None,
        }
    }

    /// Device pages that `pages` frames hold: more under ETC's capacity
    /// compression.
    pub fn effective_capacity(&self, pages: u64) -> u64 {
        match self {
            Self::Etc(etc) => etc.effective_capacity(pages),
            _ => pages,
        }
    }

    /// The allowed number of extra (inactive) blocks per SM right now.
    pub fn degree(&self) -> u32 {
        match self {
            Self::To { controller, adaptive, .. } if pressure(adaptive) => {
                controller.degree().saturating_sub(1)
            }
            Self::To { controller, .. } => controller.degree(),
            _ => 0,
        }
    }

    /// What makes an active block switchable, when switch-ins are allowed
    /// right now.
    pub fn switch_trigger(&self) -> Option<SwitchTrigger> {
        match self {
            Self::To { trigger, controller, adaptive }
                if controller.degree() > 0 && !pressure(adaptive) =>
            {
                Some(*trigger)
            }
            _ => None,
        }
    }

    /// SMs that ETC's throttling has disabled (the highest-numbered ones).
    pub fn throttled_sms(&self) -> u16 {
        match self {
            Self::Etc(etc) => etc.throttled_sms(),
            _ => 0,
        }
    }

    /// Extra cycles every DRAM access pays (ETC's capacity compression).
    pub fn access_penalty(&self) -> Cycle {
        match self {
            Self::Etc(etc) => etc.access_penalty(),
            _ => 0,
        }
    }

    /// When the periodic controller runs next, asked at `now`: TO's
    /// lifetime sample or ETC's epoch tick. `None` when there is none.
    pub fn next_tick(&self, now: Cycle) -> Option<Cycle> {
        match self {
            Self::Off => None,
            Self::To { .. } => Some(now + LIFETIME_SAMPLE_PERIOD),
            Self::Etc(etc) => Some(etc.next_tick().max(now + 1)),
        }
    }

    /// Times TO's controller lowered the degree.
    pub fn decrements(&self) -> u64 {
        match self {
            Self::To { controller, .. } => controller.decrements(),
            _ => 0,
        }
    }

    /// Times ETC's memory-aware throttling engaged.
    pub fn engagements(&self) -> u64 {
        match self {
            Self::Etc(etc) => etc.engagements(),
            _ => 0,
        }
    }
}

/// Whether an adaptive loop currently signals pressure.
fn pressure(adaptive: &Option<(Cycle, AdaptiveSignals)>) -> bool {
    adaptive.as_ref().is_some_and(|(_, signals)| signals.pressure())
}

/// TO's dynamic degree controller: the current oversubscription degree.
#[derive(Debug, Clone)]
pub struct OversubController {
    degree: u32,
    decrements: u64,
}

impl Default for OversubController {
    fn default() -> Self {
        Self::new()
    }
}

impl OversubController {
    /// Creates the controller at [`INITIAL_EXTRA_BLOCKS`].
    pub fn new() -> Self {
        Self { degree: INITIAL_EXTRA_BLOCKS, decrements: 0 }
    }

    /// The allowed number of extra (inactive) blocks per SM right now.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Feeds one lifetime sample; adjusts the degree per the paper's rule.
    pub fn on_sample(&mut self, sample: LifetimeSample) {
        let threshold = f64::from(LIFETIME_DROP_THRESHOLD_PERCENT) / 100.0;
        match (sample.avg, sample.prev) {
            (Some(avg), Some(prev)) if prev > 0.0 && avg < prev * (1.0 - threshold) => {
                if self.degree > 0 {
                    self.degree -= 1;
                    self.decrements += 1;
                }
            }
            _ => {
                if self.degree < MAX_EXTRA_BLOCKS {
                    self.degree += 1;
                }
            }
        }
    }

    /// Times the controller lowered the degree.
    pub fn decrements(&self) -> u64 {
        self.decrements
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(avg: Option<f64>, prev: Option<f64>) -> LifetimeSample {
        LifetimeSample { avg, prev }
    }

    #[test]
    fn to_defaults_match_paper() {
        assert_eq!(OversubController::new().degree(), 1);
        assert_eq!((INITIAL_EXTRA_BLOCKS, MAX_EXTRA_BLOCKS), (1, 3));
        assert_eq!(LIFETIME_SAMPLE_PERIOD, 100_000);
        assert_eq!(LIFETIME_DROP_THRESHOLD_PERCENT, 20);
        let to = Oversubscription::to(SwitchTrigger::FaultStall);
        assert_eq!(to.switch_trigger(), Some(SwitchTrigger::FaultStall));
        assert_eq!(to.next_tick(0), Some(LIFETIME_SAMPLE_PERIOD));
    }

    #[test]
    fn disabled_controller_stays_at_zero() {
        for off in [Oversubscription::Off, Oversubscription::Etc(Etc::new(50, false))] {
            assert_eq!(off.degree(), 0);
            assert_eq!(off.switch_trigger(), None);
            assert_eq!(off.decrements(), 0);
        }
        assert_eq!(Oversubscription::Off.next_tick(0), None);
    }

    #[test]
    fn only_etc_throttles_and_compresses() {
        let etc = Oversubscription::Etc(Etc::new(50, false));
        assert_eq!(etc.effective_capacity(100), 115);
        assert_eq!(etc.access_penalty(), 25);
        assert_eq!(etc.next_tick(0), Some(batmem_etc::DETECTION_EPOCH));
        assert_eq!(etc.next_tick(batmem_etc::DETECTION_EPOCH), Some(100_001));
        for other in [Oversubscription::Off, Oversubscription::to(SwitchTrigger::AnyStall)] {
            assert_eq!(other.effective_capacity(100), 100);
            assert_eq!(other.access_penalty(), 0);
            assert_eq!(other.throttled_sms(), 0);
            assert_eq!(other.engagements(), 0);
        }
    }

    #[test]
    fn starts_at_initial_degree() {
        let c = OversubController::new();
        assert_eq!(c.degree(), 1);
        assert!(Oversubscription::to(SwitchTrigger::AnyStall).switch_trigger().is_some());
    }

    #[test]
    fn big_lifetime_drop_decrements() {
        let mut c = OversubController::new();
        // 50% drop > 20% threshold.
        c.on_sample(sample(Some(50.0), Some(100.0)));
        assert_eq!(c.degree(), 0);
        assert_eq!(c.decrements(), 1);
        let to = Oversubscription::To {
            trigger: SwitchTrigger::FaultStall,
            controller: c,
            adaptive: None,
        };
        assert_eq!(to.switch_trigger(), None);
    }

    #[test]
    fn small_drop_or_growth_increments_to_cap() {
        let mut c = OversubController::new();
        c.on_sample(sample(Some(90.0), Some(100.0))); // 10% drop: fine
        assert_eq!(c.degree(), 2);
        c.on_sample(sample(Some(95.0), Some(90.0))); // growth
        assert_eq!(c.degree(), 3);
        c.on_sample(sample(Some(95.0), Some(95.0))); // capped at 3
        assert_eq!(c.degree(), 3);
        assert_eq!(c.decrements(), 0);
    }

    #[test]
    fn missing_history_counts_as_healthy() {
        let mut c = OversubController::new();
        c.on_sample(sample(None, None));
        assert_eq!(c.degree(), 2);
        c.on_sample(sample(Some(10.0), None));
        assert_eq!(c.degree(), 3);
    }

    #[test]
    fn degree_recovers_after_decrement() {
        let mut c = OversubController::new();
        c.on_sample(sample(Some(10.0), Some(100.0)));
        assert_eq!(c.degree(), 0);
        c.on_sample(sample(Some(10.0), Some(10.0)));
        assert_eq!(c.degree(), 1);
    }
}
