//! Page-lifetime tracking and premature-eviction detection.
//!
//! §4.1: "the GPU runtime monitors the premature eviction rates by
//! periodically estimating the running average of the lifetime of pages by
//! tracking when each page is allocated and evicted." A **premature
//! eviction** is an eviction of a page for which the GPU generates a fault
//! again later (§4.1, §6.1).
//!
//! Both per-page records are dense tables: birth cycles in a [`PageMap`],
//! evicted pages awaiting a refault in a [`PageSet`].

use batmem_types::dense::{PageMap, PageSet};
use batmem_types::{AuditLevel, Cycle, PageId, SimError};

/// A periodic lifetime sample handed to the oversubscription controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeSample {
    /// Running average page lifetime of the sampled window (cycles), or
    /// `None` if no eviction occurred in the window.
    pub avg: Option<f64>,
    /// The previous window's average.
    pub prev: Option<f64>,
}

/// Tracks page allocation/eviction times and re-fault-based premature
/// eviction counts.
#[derive(Debug, Clone, Default)]
pub struct LifetimeTracker {
    /// Birth cycle per live page.
    alloc_at: PageMap<Cycle>,
    evicted_awaiting_refault: PageSet,
    window_sum: u128,
    window_count: u64,
    last_avg: Option<f64>,
    prev_avg: Option<f64>,
    total_evictions: u64,
    premature_evictions: u64,
    lifetime_sum: u128,
}

impl LifetimeTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `page` became resident at `now`.
    pub fn on_install(&mut self, page: PageId, now: Cycle) {
        self.alloc_at.insert(page, now);
    }

    /// Records that `page` was evicted at `now`.
    ///
    /// A page evicted before its recorded install time means the pipeline's
    /// clock ran backwards — an invariant violation, not a zero-length
    /// lifetime. Under an enabled [`AuditLevel`] it is a typed error;
    /// otherwise it trips a debug assertion and the lifetime clamps to zero
    /// in release builds (the pre-audit behavior).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the page was never installed.
    pub fn on_evict(
        &mut self,
        page: PageId,
        now: Cycle,
        audit: AuditLevel,
    ) -> Result<(), SimError> {
        let born = self.alloc_at.remove(page);
        debug_assert!(born.is_some(), "evicting untracked page {page}");
        if let Some(born) = born {
            if born > now {
                if audit.enabled() {
                    return Err(SimError::InvariantViolated {
                        cycle: now,
                        invariant: "page lifetime is non-negative (clock must not run backwards)",
                        snapshot: format!("page {page} installed at {born}, evicted at {now}"),
                    });
                }
                debug_assert!(false, "page {page} evicted at {now} before its install at {born}");
            }
            let life = u128::from(now.saturating_sub(born));
            self.window_sum += life;
            self.lifetime_sum += life;
            self.window_count += 1;
        }
        self.total_evictions += 1;
        self.evicted_awaiting_refault.insert(page);
        Ok(())
    }

    /// Records a fault for `page`. Returns `true` when the fault re-touches
    /// an evicted page — i.e. exactly when it classifies that page's last
    /// eviction as premature.
    pub fn on_fault(&mut self, page: PageId) -> bool {
        let premature = self.evicted_awaiting_refault.remove(page);
        if premature {
            self.premature_evictions += 1;
        }
        premature
    }

    /// Closes the current sampling window and returns the running average
    /// alongside the previous one (the controller compares them).
    pub fn sample(&mut self) -> LifetimeSample {
        let avg = if self.window_count > 0 {
            Some(self.window_sum as f64 / self.window_count as f64)
        } else {
            self.last_avg // quiet window: carry the last estimate forward
        };
        let prev = self.last_avg;
        self.prev_avg = self.last_avg;
        self.last_avg = avg;
        self.window_sum = 0;
        self.window_count = 0;
        LifetimeSample { avg, prev }
    }

    /// Evictions recorded so far.
    pub fn total_evictions(&self) -> u64 {
        self.total_evictions
    }

    /// Evictions whose page was subsequently re-faulted.
    pub fn premature_evictions(&self) -> u64 {
        self.premature_evictions
    }

    /// Premature-eviction rate in [0, 1] (0 when nothing was evicted).
    pub fn premature_rate(&self) -> f64 {
        if self.total_evictions == 0 {
            0.0
        } else {
            self.premature_evictions as f64 / self.total_evictions as f64
        }
    }

    /// Mean lifetime over the whole run (cycles), if any eviction occurred.
    pub fn mean_lifetime(&self) -> Option<f64> {
        if self.total_evictions == 0 {
            None
        } else {
            Some(self.lifetime_sum as f64 / self.total_evictions as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> PageId {
        PageId::new(i)
    }

    #[test]
    fn lifetime_is_evict_minus_install() {
        let mut t = LifetimeTracker::new();
        t.on_install(p(1), 100);
        t.on_evict(p(1), 600, AuditLevel::Off).unwrap();
        let s = t.sample();
        assert_eq!(s.avg, Some(500.0));
        assert_eq!(s.prev, None);
    }

    #[test]
    fn windows_roll() {
        let mut t = LifetimeTracker::new();
        t.on_install(p(1), 0);
        t.on_evict(p(1), 1000, AuditLevel::Off).unwrap();
        let s1 = t.sample();
        t.on_install(p(2), 1000);
        t.on_evict(p(2), 1200, AuditLevel::Off).unwrap();
        let s2 = t.sample();
        assert_eq!(s1.avg, Some(1000.0));
        assert_eq!(s2.avg, Some(200.0));
        assert_eq!(s2.prev, Some(1000.0));
    }

    #[test]
    fn quiet_window_carries_last_average() {
        let mut t = LifetimeTracker::new();
        t.on_install(p(1), 0);
        t.on_evict(p(1), 100, AuditLevel::Off).unwrap();
        let _ = t.sample();
        let s = t.sample(); // no evictions this window
        assert_eq!(s.avg, Some(100.0));
        assert_eq!(s.prev, Some(100.0));
    }

    #[test]
    fn refault_counts_one_premature_per_eviction() {
        let mut t = LifetimeTracker::new();
        t.on_install(p(1), 0);
        t.on_evict(p(1), 10, AuditLevel::Off).unwrap();
        t.on_fault(p(1)); // premature
        t.on_fault(p(1)); // same page again: not double counted
        assert_eq!(t.premature_evictions(), 1);
        t.on_install(p(1), 20);
        t.on_evict(p(1), 30, AuditLevel::Off).unwrap();
        t.on_fault(p(1)); // second eviction also premature
        assert_eq!(t.premature_evictions(), 2);
        assert_eq!(t.total_evictions(), 2);
        assert_eq!(t.premature_rate(), 1.0);
    }

    #[test]
    fn non_refaulted_eviction_is_not_premature() {
        let mut t = LifetimeTracker::new();
        t.on_install(p(1), 0);
        t.on_evict(p(1), 10, AuditLevel::Off).unwrap();
        t.on_fault(p(2)); // unrelated page
        assert_eq!(t.premature_evictions(), 0);
        assert_eq!(t.premature_rate(), 0.0);
    }

    #[test]
    fn clock_backwards_is_a_typed_error_under_audit() {
        let mut t = LifetimeTracker::new();
        t.on_install(p(1), 100);
        let err = t.on_evict(p(1), 50, AuditLevel::Basic).unwrap_err();
        assert!(
            matches!(err, SimError::InvariantViolated { cycle: 50, .. }),
            "wrong error shape: {err:?}"
        );
    }

    #[test]
    fn mean_lifetime_over_run() {
        let mut t = LifetimeTracker::new();
        assert_eq!(t.mean_lifetime(), None);
        t.on_install(p(1), 0);
        t.on_evict(p(1), 100, AuditLevel::Off).unwrap();
        t.on_install(p(2), 0);
        t.on_evict(p(2), 300, AuditLevel::Off).unwrap();
        assert_eq!(t.mean_lifetime(), Some(200.0));
    }
}
