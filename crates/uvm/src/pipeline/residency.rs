//! Stage 3 — residency/eviction decision: where frames come from when
//! device memory is at capacity. Victim selection and transfer timing are
//! delegated to the configured [`EvictionStrategy`]; this module owns the
//! policy-independent bookkeeping (pinning, frame accounting, probes).
//!
//! [`EvictionStrategy`]: crate::strategies::EvictionStrategy

use super::{BatchPlan, UvmEvent, UvmOutput, UvmRuntime};
use crate::strategies::{unobtrusive, EvictionTiming};
use batmem_types::probe::{EvictionCause, ProbeEvent};
use batmem_types::{Cycle, FrameId, SimError};
use std::cmp::Reverse;

impl UvmRuntime {
    /// Schedules the eviction of one page, pushing its freed frame into
    /// `pending_free` tagged with its availability time.
    /// A [`EvictionCause::Proactive`] cause forces UE-style device-to-host
    /// scheduling regardless of the configured eviction strategy.
    pub(crate) fn schedule_eviction(
        &mut self,
        earliest: Cycle,
        plan: &mut BatchPlan,
        outputs: &mut Vec<UvmOutput>,
        cause: EvictionCause,
    ) -> Result<(), SimError> {
        let pinned_set = &self.batch_pages;
        let Some((victim, forced)) =
            self.eviction.pick_victim(&self.mem, &|p| pinned_set.contains(p))
        else {
            return Err(SimError::Accounting {
                cycle: earliest,
                detail:
                    "eviction required but nothing is resident (capacity too small for one batch?)"
                        .to_string(),
            });
        };
        // Pinned pages (the open batch's own) must never be selected unless
        // the batch itself overflows capacity (`forced`).
        if self.audit.enabled() && !forced && self.batch_pages.contains(victim) {
            return Err(SimError::InvariantViolated {
                cycle: earliest,
                invariant: "pinned pages are never victims unless forced",
                snapshot: format!(
                    "victim {victim} is pinned by open batch {} ({} pages)",
                    plan.record.id,
                    self.batch_pages.len()
                ),
            });
        }
        let page_bytes = self.cfg.page_bytes();
        // A same-batch victim only becomes evictable once it arrives — one
        // cycle later, so that waiters woken by the arrival observe the
        // page resident and make forward progress even when the eviction
        // is immediate.
        let avail = self.planned_arrival.get(victim).map(|t| t + 1).unwrap_or(0).max(earliest);
        let frame = self.mem.remove(victim, earliest)?;
        // Proactive eviction exists to overlap the handling window, so it
        // always uses the pipelined device-to-host timing; every other
        // cause defers to the configured strategy.
        let timing = if cause == EvictionCause::Proactive {
            unobtrusive::pipelined(&mut self.pipes, avail, page_bytes)
        } else {
            self.eviction.schedule(&mut self.pipes, avail, page_bytes)
        };
        let (start, ready) = match timing {
            EvictionTiming::Instant => {
                // The frame is usable immediately, and the page table entry
                // survives until the frame's consumer actually starts
                // transferring (the most favorable consistent schedule).
                self.ideal_evicts.push((victim, avail));
                (avail, avail)
            }
            EvictionTiming::Transfer { start, ready } => {
                outputs.push(UvmOutput::Schedule {
                    at: start,
                    event: UvmEvent::EvictionStarted { page: victim },
                });
                self.lifetime.on_evict(victim, start, self.audit)?;
                (start, ready)
            }
        };
        self.probes.emit_with(earliest, || ProbeEvent::EvictionBegun {
            page: victim,
            cause,
            forced_pinned: forced,
            start,
        });
        self.probes.emit_with(earliest, || ProbeEvent::EvictionFinished { page: victim, ready });
        self.pending_free.push(Reverse((ready, frame)));
        plan.record.evictions += 1;
        if forced {
            plan.record.forced_pinned_evictions += 1;
        }
        Ok(())
    }

    pub(crate) fn acquire_frame(
        &mut self,
        now: Cycle,
        plan: &mut BatchPlan,
        outputs: &mut Vec<UvmOutput>,
        preferred: Option<FrameId>,
    ) -> Result<(FrameId, Cycle), SimError> {
        let taken = match preferred {
            Some(pf) => self.mem.take_frame_near(pf),
            None => self.mem.take_frame(),
        };
        if let Some(f) = taken {
            return Ok((f, now));
        }
        if let Some(&Reverse((ready, frame))) = self.pending_free.peek() {
            self.pending_free.pop();
            return Ok((frame, ready));
        }
        self.schedule_eviction(now, plan, outputs, EvictionCause::Demand)?;
        match self.pending_free.pop() {
            Some(Reverse((ready, frame))) => Ok((frame, ready)),
            None => Err(SimError::Accounting {
                cycle: now,
                detail: "eviction was scheduled but yielded no frame".to_string(),
            }),
        }
    }
}
