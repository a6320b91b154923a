//! Warp execution state.

use crate::ops::{BoxedStream, EmptyStream, WarpOp};
use std::fmt;

/// What a warp is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpPhase {
    /// Eligible to issue; an issue event is (or is about to be) scheduled.
    Ready,
    /// Executing a compute delay; a wake event is scheduled.
    Computing,
    /// Waiting for a memory response; a wake event is scheduled.
    MemWait,
    /// Blocked on one or more page faults; woken by page arrivals.
    FaultBlocked,
    /// Became runnable while its block was context-switched out; will be
    /// scheduled when the block switches back in.
    ReadyInactive,
    /// Retired.
    Finished,
}

impl WarpPhase {
    /// Whether the warp counts as stalled for the
    /// [`SwitchTrigger::FaultStall`](batmem_types::policy::SwitchTrigger)
    /// policy (page-fault blocked).
    pub fn is_fault_stalled(self) -> bool {
        matches!(self, WarpPhase::FaultBlocked)
    }

    /// Whether the warp counts as stalled for the
    /// [`SwitchTrigger::AnyStall`](batmem_types::policy::SwitchTrigger)
    /// policy (any long-latency wait).
    pub fn is_any_stalled(self) -> bool {
        matches!(self, WarpPhase::FaultBlocked | WarpPhase::MemWait)
    }

    /// Whether the warp has retired.
    pub fn is_finished(self) -> bool {
        self == WarpPhase::Finished
    }
}

/// The execution context of one warp.
pub struct WarpContext {
    /// The warp's remaining instruction stream.
    pub stream: BoxedStream,
    /// Current phase.
    pub phase: WarpPhase,
    /// A memory op that faulted and must be retried once the pages arrive.
    pub pending_retry: Option<WarpOp>,
    /// Outstanding faulted pages this warp is waiting on.
    pub waiting_pages: u32,
}

impl fmt::Debug for WarpContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WarpContext")
            .field("phase", &self.phase)
            .field("waiting_pages", &self.waiting_pages)
            .field("has_retry", &self.pending_retry.is_some())
            .finish()
    }
}

impl WarpContext {
    /// Creates a ready warp over `stream`.
    pub fn new(stream: BoxedStream) -> Self {
        Self { stream, phase: WarpPhase::Ready, pending_retry: None, waiting_pages: 0 }
    }

    /// Takes the next op to execute: a pending faulted retry first,
    /// otherwise the next stream op.
    pub fn take_next_op(&mut self) -> Option<WarpOp> {
        self.pending_retry.take().or_else(|| self.stream.next_op())
    }

    /// Frees the stream of a warp that has retired, leaving an
    /// [`EmptyStream`] (which does not allocate) in its place.
    pub fn release_stream(&mut self) {
        self.stream = Box::new(EmptyStream);
    }

    /// Records that one awaited page arrived; returns `true` when the warp
    /// has no more outstanding pages and can be rescheduled.
    ///
    /// # Panics
    ///
    /// Panics if the warp was not waiting on any page.
    pub fn page_arrived(&mut self) -> bool {
        assert!(self.waiting_pages > 0, "page arrival for warp that awaits none");
        self.waiting_pages -= 1;
        self.waiting_pages == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::PackedStream;
    use batmem_types::VirtAddr;

    fn warp(ops: Vec<WarpOp>) -> WarpContext {
        WarpContext::new(Box::new(ops.into_iter().collect::<PackedStream>()))
    }

    #[test]
    fn released_stream_yields_nothing_but_a_pending_retry() {
        let mut w = warp(vec![WarpOp::Compute(1), WarpOp::Compute(2)]);
        w.pending_retry = Some(WarpOp::Compute(9));
        w.release_stream();
        assert_eq!(w.take_next_op(), Some(WarpOp::Compute(9)));
        assert_eq!(w.take_next_op(), None);
    }

    #[test]
    fn retry_takes_priority_over_stream() {
        let mut w = warp(vec![WarpOp::Compute(1)]);
        w.pending_retry = Some(WarpOp::Load(vec![VirtAddr::new(0)].into()));
        assert_eq!(w.take_next_op(), Some(WarpOp::Load(vec![VirtAddr::new(0)].into())));
        assert_eq!(w.take_next_op(), Some(WarpOp::Compute(1)));
        assert_eq!(w.take_next_op(), None);
    }

    #[test]
    fn page_arrival_counts_down() {
        let mut w = warp(vec![]);
        w.phase = WarpPhase::FaultBlocked;
        w.waiting_pages = 2;
        assert!(!w.page_arrived());
        assert!(w.page_arrived());
    }

    #[test]
    #[should_panic(expected = "awaits none")]
    fn unexpected_page_arrival_panics() {
        let mut w = warp(vec![]);
        w.page_arrived();
    }

    #[test]
    fn phase_predicates() {
        assert!(WarpPhase::FaultBlocked.is_fault_stalled());
        assert!(!WarpPhase::MemWait.is_fault_stalled());
        assert!(WarpPhase::MemWait.is_any_stalled());
        assert!(WarpPhase::FaultBlocked.is_any_stalled());
        assert!(!WarpPhase::Computing.is_any_stalled());
        assert!(WarpPhase::Finished.is_finished());
    }
}
