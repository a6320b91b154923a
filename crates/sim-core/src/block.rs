//! Thread-block execution state.

use crate::warp::{WarpContext, WarpPhase};
use batmem_types::policy::SwitchTrigger;
use batmem_types::BlockId;
use std::fmt;

/// Where a dispatched block currently lives on its SM.
///
/// Under Thread Oversubscription an SM hosts more blocks than its scheduling
/// limit; only `Active` blocks issue work. Transitions through the
/// `Switching*` states charge the context-switch cost (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockResidency {
    /// Occupying an active slot; warps may issue.
    Active,
    /// Resident but descheduled (oversubscribed); warps hold state only.
    Inactive,
    /// Context being saved to global memory.
    SwitchingOut,
    /// Context being restored from global memory.
    SwitchingIn,
    /// All warps finished.
    Retired,
}

/// The execution context of one dispatched thread block.
pub struct BlockContext {
    /// Grid-wide block id.
    pub id: BlockId,
    /// Warp contexts: empty until the block first activates (its streams
    /// are built then, not at dispatch), and emptied again when the block
    /// retires so its warps' memory is freed at once.
    pub warps: Vec<WarpContext>,
    /// Residency state.
    pub residency: BlockResidency,
    /// Whether warp streams have been built yet.
    pub started: bool,
}

impl fmt::Debug for BlockContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockContext")
            .field("id", &self.id)
            .field("residency", &self.residency)
            .field("started", &self.started)
            .field("warps", &self.warps.len())
            .finish()
    }
}

impl BlockContext {
    /// Creates a not-yet-started block.
    pub fn new(id: BlockId) -> Self {
        Self { id, warps: Vec::new(), residency: BlockResidency::Inactive, started: false }
    }

    /// Whether every warp has retired (false before the block starts).
    pub fn all_finished(&self) -> bool {
        self.started && self.warps.iter().all(|w| w.phase.is_finished())
    }

    /// Whether the block is fully stalled under `trigger` and would benefit
    /// from being switched out: every warp is finished-or-stalled and at
    /// least one is stalled.
    pub fn is_fully_stalled(&self, trigger: SwitchTrigger) -> bool {
        if !self.started || self.warps.is_empty() {
            return false;
        }
        let stalled = |p: WarpPhase| match trigger {
            SwitchTrigger::FaultStall => p.is_fault_stalled(),
            SwitchTrigger::AnyStall => p.is_any_stalled(),
        };
        let mut any = false;
        for w in &self.warps {
            if stalled(w.phase) {
                any = true;
            } else if !w.phase.is_finished() {
                return false;
            }
        }
        any
    }

    /// Whether an inactive block has runnable work and is worth switching
    /// in: it either never started, or has warps that became ready while
    /// the block was out.
    pub fn is_switch_in_ready(&self) -> bool {
        !self.started || self.warps.iter().any(|w| w.phase == WarpPhase::ReadyInactive)
    }

    /// Warps currently in [`WarpPhase::ReadyInactive`], by index.
    pub fn ready_inactive_warps(&self) -> Vec<usize> {
        self.warps
            .iter()
            .enumerate()
            .filter(|(_, w)| w.phase == WarpPhase::ReadyInactive)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{PackedStream, WarpOp};

    fn block_with_phases(phases: &[WarpPhase]) -> BlockContext {
        let mut b = BlockContext::new(BlockId::new(0));
        b.started = true;
        for &p in phases {
            let stream: PackedStream = [WarpOp::Compute(1)].into_iter().collect();
            let mut w = WarpContext::new(Box::new(stream));
            w.phase = p;
            b.warps.push(w);
        }
        b
    }

    use WarpPhase::*;

    #[test]
    fn fully_stalled_fault_trigger() {
        let b = block_with_phases(&[FaultBlocked, Finished]);
        assert!(b.is_fully_stalled(SwitchTrigger::FaultStall));
        let b = block_with_phases(&[FaultBlocked, Computing]);
        assert!(!b.is_fully_stalled(SwitchTrigger::FaultStall));
        let b = block_with_phases(&[FaultBlocked, MemWait]);
        assert!(!b.is_fully_stalled(SwitchTrigger::FaultStall));
        let b = block_with_phases(&[Finished, Finished]);
        assert!(!b.is_fully_stalled(SwitchTrigger::FaultStall), "retired is not stalled");
    }

    #[test]
    fn fully_stalled_any_trigger() {
        let b = block_with_phases(&[FaultBlocked, MemWait]);
        assert!(b.is_fully_stalled(SwitchTrigger::AnyStall));
        let b = block_with_phases(&[MemWait, Ready]);
        assert!(!b.is_fully_stalled(SwitchTrigger::AnyStall));
    }

    #[test]
    fn unstarted_block_is_not_stalled_but_is_switch_in_ready() {
        let b = BlockContext::new(BlockId::new(3));
        assert!(!b.is_fully_stalled(SwitchTrigger::FaultStall));
        assert!(b.is_switch_in_ready());
        assert!(!b.all_finished());
    }

    #[test]
    fn ready_inactive_detection() {
        let b = block_with_phases(&[FaultBlocked, ReadyInactive, ReadyInactive]);
        assert!(b.is_switch_in_ready());
        assert_eq!(b.ready_inactive_warps(), vec![1, 2]);
        let b = block_with_phases(&[FaultBlocked]);
        assert!(!b.is_switch_in_ready());
    }

    #[test]
    fn all_finished() {
        let b = block_with_phases(&[Finished, Finished]);
        assert!(b.all_finished());
        let b = block_with_phases(&[Finished, FaultBlocked]);
        assert!(!b.all_finished());
    }
}
