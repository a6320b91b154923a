//! The adaptive closed-loop oversubscription policy
//! (`oversubscription=adaptive[:window]`).
//!
//! The first policy that *consumes* the probe stream as a sensor, in the
//! spirit of the intelligent-framework line of work (PAPERS.md, arXiv
//! 2204.02974). An [`AdaptiveProbe`] attaches to the run's probe hub and
//! maintains per-epoch counters — distinct faulted pages (a [`PageSet`],
//! cleared at each epoch roll), evictions, and premature refaults. At each
//! epoch boundary it publishes three boolean actuation signals through the
//! lock-free [`AdaptiveSignals`] handle:
//!
//! * **throttle-prefetch** (premature ≥ 25% of evictions): prefetched pages
//!   are being evicted before use, so the formation stage drops tree
//!   prefetches for the epoch (density → 0);
//! * **eager-eviction** (faults active, premature < 10%): evictions are
//!   healthy, so formation runs ETC-style proactive eviction ahead of batch
//!   demand even when the static policy did not ask for it;
//! * **pressure** (premature ≥ 50%): severe thrash — the TO value
//!   ([`Oversubscription::To`](crate::oversub::Oversubscription::To))
//!   lowers its effective degree by one and disallows context switch-ins
//!   until the epoch signals recover.
//!
//! # Determinism
//!
//! The loop reads only in-sim probe events, which are emitted in
//! deterministic order at deterministic cycles; the signals are plain
//! shared state flipped at epoch boundaries derived from those cycles. Two
//! runs of the same configuration therefore see identical signal
//! trajectories — `adaptive` is as reproducible as any static policy. With
//! an unreachable window (`adaptive:18446744073709551615`) no epoch ever
//! closes, no signal ever fires, and the run is byte-identical to the
//! static `to` baseline (pinned by `tests/adaptive.rs`).

use batmem_types::dense::PageSet;
use batmem_types::probe::{Probe, ProbeEvent};
use batmem_types::Cycle;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Default adaptive epoch length in cycles (two lifetime-sample periods).
pub const ADAPTIVE_DEFAULT_WINDOW: Cycle = 200_000;

#[derive(Debug, Default)]
struct AdaptiveShared {
    throttle_prefetch: AtomicBool,
    eager_eviction: AtomicBool,
    pressure: AtomicBool,
}

/// The cloneable signal handle shared between the [`AdaptiveProbe`]
/// (writer, lives in the probe hub) and the pipeline + TO value (readers).
/// Atomics because the runtime half must be `Send` while the probe half
/// lives behind the hub's `Rc`.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveSignals {
    shared: Arc<AdaptiveShared>,
}

impl AdaptiveSignals {
    /// A fresh handle with all signals quiet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the formation stage should drop prefetches this epoch.
    pub fn throttle_prefetch(&self) -> bool {
        self.shared.throttle_prefetch.load(Ordering::Relaxed)
    }

    /// Whether the formation stage should evict proactively this epoch.
    pub fn eager_eviction(&self) -> bool {
        self.shared.eager_eviction.load(Ordering::Relaxed)
    }

    /// Whether the controller should back off the TO degree this epoch.
    pub fn pressure(&self) -> bool {
        self.shared.pressure.load(Ordering::Relaxed)
    }

    /// Publishes one epoch's decisions (the probe's epoch-boundary write).
    pub fn publish(&self, throttle_prefetch: bool, eager_eviction: bool, pressure: bool) {
        self.shared.throttle_prefetch.store(throttle_prefetch, Ordering::Relaxed);
        self.shared.eager_eviction.store(eager_eviction, Ordering::Relaxed);
        self.shared.pressure.store(pressure, Ordering::Relaxed);
    }
}

/// The sensor half of the adaptive policy: counts faults, evictions and
/// premature refaults per epoch and publishes actuation signals at epoch
/// boundaries.
#[derive(Debug)]
pub struct AdaptiveProbe {
    signals: AdaptiveSignals,
    window: Cycle,
    epoch_end: Cycle,
    faulted: PageSet,
    premature: u64,
    evictions: u64,
}

impl AdaptiveProbe {
    /// A probe closing an epoch every `window` cycles (must be ≥ 1,
    /// enforced at the registry parse site).
    pub fn new(window: Cycle, signals: AdaptiveSignals) -> Self {
        Self {
            signals,
            window,
            epoch_end: window,
            faulted: PageSet::new(),
            premature: 0,
            evictions: 0,
        }
    }

    /// Closes every epoch that ended at or before `at`. The counters
    /// accumulated so far all belong to the epoch that just ended (events
    /// arrive in nondecreasing `at` order), so one publish covers it; fully
    /// quiet epochs after it decay the signals back to quiet without
    /// looping per window.
    fn close_epochs(&mut self, at: Cycle) {
        if at < self.epoch_end {
            return;
        }
        let faults = self.faulted.len() as u64;
        let ev = self.evictions;
        let pm = self.premature;
        let throttle = ev > 0 && pm * 4 >= ev;
        let pressure = ev > 0 && pm * 2 >= ev;
        let eager = faults > 0 && ev > 0 && pm * 10 <= ev;
        self.signals.publish(throttle, eager, pressure);
        let behind = at - self.epoch_end;
        if behind >= self.window {
            // At least one fully-empty epoch elapsed after the active one.
            self.signals.publish(false, false, false);
        }
        self.faulted.clear();
        self.premature = 0;
        self.evictions = 0;
        let skip = behind / self.window + 1;
        self.epoch_end = self.epoch_end.saturating_add(self.window.saturating_mul(skip));
    }
}

impl Probe for AdaptiveProbe {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        self.close_epochs(at);
        match event {
            ProbeEvent::FaultRaised { page } => {
                self.faulted.insert(*page);
            }
            ProbeEvent::PrematureEviction { .. } => self.premature += 1,
            ProbeEvent::EvictionBegun { .. } => self.evictions += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oversub::Oversubscription;
    use batmem_types::policy::SwitchTrigger;
    use batmem_types::PageId;

    fn fault(n: u64) -> ProbeEvent {
        ProbeEvent::FaultRaised { page: PageId::new(n) }
    }

    fn eviction(n: u64) -> ProbeEvent {
        ProbeEvent::EvictionBegun {
            page: PageId::new(n),
            cause: batmem_types::probe::EvictionCause::Demand,
            forced_pinned: false,
            start: 0,
        }
    }

    fn premature(n: u64) -> ProbeEvent {
        ProbeEvent::PrematureEviction { page: PageId::new(n) }
    }

    #[test]
    fn quiet_until_the_first_epoch_closes() {
        let signals = AdaptiveSignals::new();
        let mut probe = AdaptiveProbe::new(1_000, signals.clone());
        for i in 0..10 {
            probe.on_event(i, &fault(i));
            probe.on_event(i, &eviction(i));
            probe.on_event(i, &premature(i));
        }
        assert!(!signals.throttle_prefetch());
        assert!(!signals.pressure());
        // The event at cycle 1_000 closes the epoch: 100% premature.
        probe.on_event(1_000, &fault(99));
        assert!(signals.throttle_prefetch());
        assert!(signals.pressure());
        assert!(!signals.eager_eviction());
    }

    #[test]
    fn healthy_epoch_goes_eager_and_thrashy_epoch_backs_off() {
        let signals = AdaptiveSignals::new();
        let mut probe = AdaptiveProbe::new(1_000, signals.clone());
        // Epoch 1: 20 evictions, 1 premature (5%) with fault activity.
        for i in 0..20 {
            probe.on_event(i, &fault(i));
            probe.on_event(i, &eviction(i));
        }
        probe.on_event(30, &premature(0));
        probe.on_event(1_000, &fault(100));
        assert!(signals.eager_eviction());
        assert!(!signals.throttle_prefetch());
        assert!(!signals.pressure());
        // Epoch 2: 4 evictions, 3 premature (75%).
        for i in 0..4 {
            probe.on_event(1_100, &eviction(i));
        }
        for i in 0..3 {
            probe.on_event(1_200, &premature(i));
        }
        probe.on_event(2_000, &fault(101));
        assert!(!signals.eager_eviction());
        assert!(signals.throttle_prefetch());
        assert!(signals.pressure());
    }

    #[test]
    fn empty_epochs_decay_signals_without_looping() {
        let signals = AdaptiveSignals::new();
        let mut probe = AdaptiveProbe::new(10, signals.clone());
        probe.on_event(0, &eviction(0));
        probe.on_event(0, &premature(0));
        // A huge jump: the active epoch published, then decayed to quiet.
        probe.on_event(u64::MAX - 1, &fault(1));
        assert!(!signals.pressure());
        assert!(!signals.throttle_prefetch());
        // And the probe keeps accepting events without overflow.
        probe.on_event(u64::MAX, &fault(2));
    }

    #[test]
    fn infinite_window_never_publishes() {
        let signals = AdaptiveSignals::new();
        let mut probe = AdaptiveProbe::new(u64::MAX, signals.clone());
        for i in 0..100 {
            probe.on_event(i * 1_000_000, &eviction(i));
            probe.on_event(i * 1_000_000, &premature(i));
        }
        assert!(!signals.pressure());
        assert!(!signals.throttle_prefetch());
        assert!(!signals.eager_eviction());
    }

    #[test]
    fn controller_matches_static_to_when_quiet_and_backs_off_under_pressure() {
        let adaptive = Oversubscription::adaptive(ADAPTIVE_DEFAULT_WINDOW);
        let baseline = Oversubscription::to(SwitchTrigger::FaultStall);
        assert_eq!(adaptive.degree(), baseline.degree());
        assert_eq!(adaptive.switch_trigger(), baseline.switch_trigger());
        let Oversubscription::To { adaptive: Some((window, signals)), .. } = &adaptive else {
            panic!("adaptive carries its loop: {adaptive:?}");
        };
        assert_eq!(*window, ADAPTIVE_DEFAULT_WINDOW);
        assert!(adaptive.adaptive_probe().is_some() && baseline.adaptive_probe().is_none());
        signals.publish(false, false, true);
        assert_eq!(adaptive.degree(), 0);
        assert_eq!(adaptive.switch_trigger(), None);
        signals.publish(false, false, false);
        assert_eq!(adaptive.degree(), 1);
    }
}
