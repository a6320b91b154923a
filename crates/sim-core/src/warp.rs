//! Warp execution state.

use crate::ops::{BoxedStream, EmptyStream, OpKind};
use batmem_types::VirtAddr;
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
    /// Number of phases: the length of a per-phase count array indexed by
    /// `phase as usize`.
    pub const COUNT: usize = 6;

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
///
/// Its phase changes only through
/// [`BlockContext::set_phase`](crate::block::BlockContext::set_phase),
/// which keeps the block's per-phase counts.
pub struct WarpContext {
    /// The warp's remaining instruction stream.
    stream: BoxedStream,
    /// The faulted transactions of the warp's last memory op, in issue
    /// order, awaiting re-issue; empty when no retry is pending.
    retry: Vec<VirtAddr>,
    /// Outstanding faulted pages this warp is waiting on.
    pub waiting_pages: u32,
    /// Current phase.
    pub(crate) phase: WarpPhase,
    /// Whether the pending retry is a store.
    retry_store: bool,
}

impl fmt::Debug for WarpContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WarpContext")
            .field("phase", &self.phase)
            .field("waiting_pages", &self.waiting_pages)
            .field("retry", &self.retry)
            .finish()
    }
}

impl WarpContext {
    /// Creates a ready warp over `stream`.
    pub fn new(stream: BoxedStream) -> Self {
        Self {
            stream,
            retry: Vec::new(),
            waiting_pages: 0,
            phase: WarpPhase::Ready,
            retry_store: false,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> WarpPhase {
        self.phase
    }

    /// Whether a faulted op's lanes wait to re-issue.
    pub fn has_retry(&self) -> bool {
        !self.retry.is_empty()
    }

    /// Issues the next op into `txns`, as
    /// [`AccessStream::next_op_into`](crate::ops::AccessStream::next_op_into)
    /// does: a pending retry first, otherwise the next stream op. A retry's
    /// lanes are swapped into `txns`, not copied; the warp keeps the
    /// caller's old buffer, emptied, for its next retry.
    pub fn next_op_into(&mut self, txns: &mut Vec<VirtAddr>) -> Option<OpKind> {
        if self.retry.is_empty() {
            return self.stream.next_op_into(txns);
        }
        std::mem::swap(&mut self.retry, txns);
        self.retry.clear();
        Some(if self.retry_store { OpKind::Store } else { OpKind::Load })
    }

    /// Parks the lanes of a memory op that faulted: the transactions of
    /// `txns` for which `faulted` holds, in their original order, re-issue
    /// ahead of the stream (as a store if `store`).
    pub fn park_retry(
        &mut self,
        store: bool,
        txns: &[VirtAddr],
        mut faulted: impl FnMut(VirtAddr) -> bool,
    ) {
        debug_assert!(self.retry.is_empty(), "a retry is already pending");
        self.retry.extend(txns.iter().copied().filter(|&a| faulted(a)));
        self.retry_store = store;
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
    use crate::ops::{PackedStream, WarpOp};

    fn warp(ops: Vec<WarpOp>) -> WarpContext {
        WarpContext::new(Box::new(ops.into_iter().collect::<PackedStream>()))
    }

    fn addrs(lines: &[u64]) -> Vec<VirtAddr> {
        lines.iter().map(|&l| VirtAddr::new(l * 128)).collect()
    }

    #[test]
    fn warp_context_fits_in_a_cache_line() {
        assert!(std::mem::size_of::<WarpContext>() <= 64, "{}", std::mem::size_of::<WarpContext>());
    }

    #[test]
    fn released_stream_yields_nothing_but_a_pending_retry() {
        let mut w = warp(vec![WarpOp::Store(addrs(&[1, 2]).into()), WarpOp::Compute(2)]);
        let mut txns = Vec::new();
        assert_eq!(w.next_op_into(&mut txns), Some(OpKind::Store));
        w.park_retry(true, &txns, |_| true);
        w.release_stream();
        assert_eq!(w.next_op_into(&mut txns), Some(OpKind::Store));
        assert_eq!(txns, addrs(&[1, 2]));
        assert_eq!(w.next_op_into(&mut txns), None);
        assert!(txns.is_empty());
    }

    #[test]
    fn retry_takes_priority_over_stream() {
        let mut w = warp(vec![WarpOp::Load(addrs(&[0, 1, 2, 3]).into()), WarpOp::Compute(1)]);
        let mut txns = Vec::new();
        assert!(!w.has_retry());
        assert_eq!(w.next_op_into(&mut txns), Some(OpKind::Load));
        // Lanes 1 and 3 fault: only they re-issue, in their original order.
        w.park_retry(false, &txns, |a| a.raw() / 128 % 2 == 1);
        assert!(w.has_retry());
        assert_eq!(w.next_op_into(&mut txns), Some(OpKind::Load));
        assert_eq!(txns, addrs(&[1, 3]));
        assert!(!w.has_retry(), "a retry issues once");
        assert_eq!(w.next_op_into(&mut txns), Some(OpKind::Compute(1)));
        assert!(txns.is_empty());
        assert_eq!(w.next_op_into(&mut txns), None);
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
