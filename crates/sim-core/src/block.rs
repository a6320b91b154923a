//! Thread-block execution state.

use crate::warp::{WarpContext, WarpPhase};
use batmem_types::policy::SwitchTrigger;
use batmem_types::BlockId;
use std::fmt;

/// Where a dispatched block currently lives on its SM.
///
/// Under Thread Oversubscription an SM hosts more blocks than its scheduling
/// limit; only `Active` blocks issue work. A switch moves the outgoing
/// block straight to `Inactive` and holds the incoming one in
/// `SwitchingIn` while the context-switch cost (§4.1) is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockResidency {
    /// Occupying an active slot; warps may issue.
    Active,
    /// Resident but descheduled (oversubscribed); warps hold state only.
    Inactive,
    /// Context being restored from global memory.
    SwitchingIn,
    /// All warps finished.
    Retired,
}

/// The execution context of one dispatched thread block.
///
/// The block counts its warps by phase, so the context-switch questions
/// ([`is_fully_stalled`](Self::is_fully_stalled),
/// [`is_switch_in_ready`](Self::is_switch_in_ready),
/// [`all_finished`](Self::all_finished)) take constant time. To keep the
/// counts exact, warps enter only through [`start`](Self::start), leave
/// only through [`retire`](Self::retire), and change phase only through
/// [`set_phase`](Self::set_phase).
pub struct BlockContext {
    /// Grid-wide block id.
    pub id: BlockId,
    /// Residency state.
    pub residency: BlockResidency,
    /// Warp contexts: empty until the block starts (its streams are built
    /// at first activation, not at dispatch), and emptied again when the
    /// block retires so its warps' memory is freed at once.
    warps: Vec<WarpContext>,
    /// Warps per phase, indexed by `phase as usize`.
    counts: [u32; WarpPhase::COUNT],
    /// Whether warp streams have been built yet.
    started: bool,
}

impl fmt::Debug for BlockContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockContext")
            .field("id", &self.id)
            .field("residency", &self.residency)
            .field("started", &self.started)
            .field("warps", &self.warps.len())
            .field("counts", &self.counts)
            .finish()
    }
}

impl BlockContext {
    /// Creates a not-yet-started block.
    pub fn new(id: BlockId) -> Self {
        Self {
            id,
            residency: BlockResidency::Inactive,
            warps: Vec::new(),
            counts: [0; WarpPhase::COUNT],
            started: false,
        }
    }

    /// Starts the block with `warps`, counting them by phase.
    ///
    /// # Panics
    ///
    /// Panics if the block has already started.
    pub fn start(&mut self, warps: Vec<WarpContext>) {
        assert!(!self.started, "block {} started twice", self.id);
        for w in &warps {
            self.counts[w.phase as usize] += 1;
        }
        self.warps = warps;
        self.started = true;
    }

    /// Retires the block: drops its warp contexts and hands back their
    /// vector, emptied, for the next block to reuse.
    pub fn retire(&mut self) -> Vec<WarpContext> {
        self.residency = BlockResidency::Retired;
        self.counts = [0; WarpPhase::COUNT];
        let mut warps = std::mem::take(&mut self.warps);
        warps.clear();
        warps
    }

    /// Whether the block's warp streams have been built.
    pub fn started(&self) -> bool {
        self.started
    }

    /// The block's warps (empty before it starts and after it retires).
    pub fn warps(&self) -> &[WarpContext] {
        &self.warps
    }

    /// Warp `w`, for issuing and fault bookkeeping; its phase changes only
    /// through [`set_phase`](Self::set_phase).
    pub fn warp_mut(&mut self, w: usize) -> &mut WarpContext {
        &mut self.warps[w]
    }

    /// Moves warp `w` to `phase`, keeping the per-phase counts.
    pub fn set_phase(&mut self, w: usize, phase: WarpPhase) {
        let old = std::mem::replace(&mut self.warps[w].phase, phase);
        self.counts[old as usize] -= 1;
        self.counts[phase as usize] += 1;
    }

    /// Warps currently in `phase`.
    pub fn count(&self, phase: WarpPhase) -> u32 {
        self.counts[phase as usize]
    }

    /// Whether every warp has retired (false before the block starts).
    pub fn all_finished(&self) -> bool {
        self.started && self.count(WarpPhase::Finished) as usize == self.warps.len()
    }

    /// Whether the block is fully stalled under `trigger` and would benefit
    /// from being switched out: every warp is finished-or-stalled and at
    /// least one is stalled.
    pub fn is_fully_stalled(&self, trigger: SwitchTrigger) -> bool {
        let stalled = match trigger {
            SwitchTrigger::FaultStall => self.count(WarpPhase::FaultBlocked),
            SwitchTrigger::AnyStall => {
                self.count(WarpPhase::FaultBlocked) + self.count(WarpPhase::MemWait)
            }
        };
        self.started
            && stalled > 0
            && (stalled + self.count(WarpPhase::Finished)) as usize == self.warps.len()
    }

    /// Whether an inactive block has runnable work and is worth switching
    /// in: it either never started, or has warps that became ready while
    /// the block was out.
    pub fn is_switch_in_ready(&self) -> bool {
        !self.started || self.count(WarpPhase::ReadyInactive) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{PackedStream, WarpOp};

    fn block_with_phases(phases: &[WarpPhase]) -> BlockContext {
        let mut b = BlockContext::new(BlockId::new(0));
        let warps = phases
            .iter()
            .map(|_| {
                let stream: PackedStream = [WarpOp::Compute(1)].into_iter().collect();
                WarpContext::new(Box::new(stream))
            })
            .collect();
        b.start(warps);
        for (w, &p) in phases.iter().enumerate() {
            b.set_phase(w, p);
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
        let mut b = block_with_phases(&[FaultBlocked, ReadyInactive, ReadyInactive]);
        assert!(b.is_switch_in_ready());
        assert_eq!(b.count(ReadyInactive), 2);
        let ready: Vec<usize> =
            (0..b.warps().len()).filter(|&w| b.warps()[w].phase() == ReadyInactive).collect();
        assert_eq!(ready, vec![1, 2]);
        // Switching in reschedules them; the block is no longer waiting.
        for w in ready {
            b.set_phase(w, Ready);
        }
        assert!(!b.is_switch_in_ready());
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

    #[test]
    fn retire_hands_back_an_empty_vector_and_clears_the_counts() {
        let mut b = block_with_phases(&[Finished, Finished]);
        let warps = b.retire();
        assert!(warps.is_empty() && warps.capacity() >= 2);
        assert_eq!(b.residency, BlockResidency::Retired);
        assert!(b.warps().is_empty());
        assert_eq!(b.count(Finished), 0);
        assert!(b.all_finished() && !b.is_switch_in_ready());
        assert!(!b.is_fully_stalled(SwitchTrigger::AnyStall));
    }
}
