//! Streaming-multiprocessor occupancy and slot accounting.

use crate::ops::KernelSpec;
use batmem_types::config::GpuConfig;
use batmem_types::{Cycle, SimError};

/// How many blocks of a given kernel an SM can schedule and host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// Blocks that may be *active* simultaneously (the scheduling limit:
    /// thread count, register file, and hardware block cap).
    pub active_limit: u32,
    /// Warps per block.
    pub warps_per_block: u32,
}

/// Computes baseline occupancy for `spec` on the configured GPU, exactly as
/// the runtime does at kernel launch (§2.1 of the paper): the number of
/// thread blocks dispatched per SM is the minimum over the thread limit,
/// the register-file limit, and the hardware block cap, and never below 1.
pub fn occupancy(gpu: &GpuConfig, spec: &KernelSpec) -> Occupancy {
    let by_threads = gpu.threads_per_sm / spec.threads_per_block;
    let regs_per_block = spec.regs_per_thread * spec.threads_per_block;
    let by_regs = gpu.regs_per_sm.checked_div(regs_per_block).unwrap_or(u32::MAX);
    let active_limit = gpu.max_blocks_per_sm.min(by_threads).min(by_regs).max(1);
    Occupancy { active_limit, warps_per_block: spec.warps_per_block(gpu.warp_size) }
}

/// Per-SM slot accounting: which dispatched blocks (by arena index) are
/// active vs. inactive, plus the context-switch engine's busy time.
///
/// Blocks themselves live in the engine's arena, which gives a retired
/// block's slot to the next block it dispatches; the SM holds indices
/// only, in the order its blocks arrived on each list.
#[derive(Debug, Clone, Default)]
pub struct Sm {
    /// Arena indices of active blocks.
    pub active: Vec<usize>,
    /// Arena indices of resident but descheduled blocks.
    pub inactive: Vec<usize>,
    /// The context-switch engine is busy until this time (switches through
    /// global memory serialize per SM).
    pub switch_busy_until: Cycle,
}

impl Sm {
    /// Creates an empty SM.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total resident blocks (active + inactive).
    pub fn resident_blocks(&self) -> usize {
        self.active.len() + self.inactive.len()
    }

    /// Builds a [`SimError::StateMachine`] snapshotting the SM's lists.
    fn bad_transition(&self, now: Cycle, event: String, detail: &str) -> SimError {
        SimError::StateMachine {
            cycle: now,
            event,
            state: format!("active={:?} inactive={:?}", self.active, self.inactive),
            detail: detail.to_string(),
        }
    }

    /// Moves `arena_idx` from the active to the inactive list.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StateMachine`] stamped with `now` if the block
    /// is not active.
    pub fn deactivate(&mut self, arena_idx: usize, now: Cycle) -> Result<(), SimError> {
        let Some(pos) = self.active.iter().position(|&b| b == arena_idx) else {
            return Err(self.bad_transition(
                now,
                format!("Deactivate(slot:{arena_idx})"),
                "deactivating a block that is not active",
            ));
        };
        self.active.remove(pos);
        self.inactive.push(arena_idx);
        Ok(())
    }

    /// Moves `arena_idx` from the inactive to the active list.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StateMachine`] stamped with `now` if the block
    /// is not inactive.
    pub fn activate(&mut self, arena_idx: usize, now: Cycle) -> Result<(), SimError> {
        let Some(pos) = self.inactive.iter().position(|&b| b == arena_idx) else {
            return Err(self.bad_transition(
                now,
                format!("Activate(slot:{arena_idx})"),
                "activating a block that is not inactive",
            ));
        };
        self.inactive.remove(pos);
        self.active.push(arena_idx);
        Ok(())
    }

    /// Removes a retired block from whichever list holds it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StateMachine`] stamped with `now` if the block
    /// is not resident on this SM.
    pub fn remove(&mut self, arena_idx: usize, now: Cycle) -> Result<(), SimError> {
        if let Some(pos) = self.active.iter().position(|&b| b == arena_idx) {
            self.active.remove(pos);
            Ok(())
        } else if let Some(pos) = self.inactive.iter().position(|&b| b == arena_idx) {
            self.inactive.remove(pos);
            Ok(())
        } else {
            Err(self.bad_transition(
                now,
                format!("Retire(slot:{arena_idx})"),
                "removing a block that is not resident",
            ))
        }
    }

    /// Reserves the switch engine starting no earlier than `now` for
    /// `duration` cycles; returns the completion time.
    pub fn begin_switch(&mut self, now: Cycle, duration: Cycle) -> Cycle {
        let start = self.switch_busy_until.max(now);
        self.switch_busy_until = start + duration;
        self.switch_busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(tpb: u32, rpt: u32) -> KernelSpec {
        KernelSpec { num_blocks: 100, threads_per_block: tpb, regs_per_thread: rpt }
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let g = GpuConfig::default(); // 1024 threads/SM, 65536 regs
        let o = occupancy(&g, &spec(256, 16));
        // threads: 1024/256 = 4; regs: 65536/(16*256) = 16; cap 32 -> 4.
        assert_eq!(o.active_limit, 4);
        assert_eq!(o.warps_per_block, 8);
    }

    #[test]
    fn occupancy_limited_by_registers() {
        let g = GpuConfig::default();
        let o = occupancy(&g, &spec(256, 64));
        // regs: 65536/(64*256) = 4 -> still 4; raise rpt further:
        let o2 = occupancy(&g, &spec(256, 128));
        // 65536/(128*256) = 2.
        assert_eq!(o2.active_limit, 2);
        assert_eq!(o.active_limit, 4);
    }

    #[test]
    fn occupancy_never_below_one() {
        let g = GpuConfig::default();
        let o = occupancy(&g, &spec(1024, 255));
        assert_eq!(o.active_limit, 1);
    }

    #[test]
    fn paper_register_pressure_example() {
        // §4.1: with 2048 threads/SM and 65536 regs, >16 regs/thread leaves
        // no room for an extra block. Scale to our 1024-thread SMs: at the
        // thread limit (4 blocks of 256), each thread may use up to 64
        // registers before the register file becomes the binding limit.
        let g = GpuConfig::default();
        assert_eq!(occupancy(&g, &spec(256, 64)).active_limit, 4);
        assert!(occupancy(&g, &spec(256, 65)).active_limit < 4);
    }

    #[test]
    fn slot_transitions() {
        let mut sm = Sm::new();
        sm.active.push(7);
        sm.inactive.push(9);
        sm.deactivate(7, 0).unwrap();
        assert_eq!(sm.active, Vec::<usize>::new());
        assert_eq!(sm.inactive, vec![9, 7]);
        sm.activate(9, 0).unwrap();
        assert_eq!(sm.active, vec![9]);
        sm.remove(9, 0).unwrap();
        sm.remove(7, 0).unwrap();
        assert_eq!(sm.resident_blocks(), 0);
    }

    #[test]
    fn bad_transitions_are_state_machine_errors() {
        let mut sm = Sm::new();
        let err = sm.deactivate(0, 123).unwrap_err();
        assert!(matches!(err, SimError::StateMachine { .. }), "{err}");
        assert_eq!(err.cycle(), Some(123));
        assert!(err.to_string().contains("not active"));
        let err = sm.activate(0, 124).unwrap_err();
        assert!(err.to_string().contains("not inactive"));
        let err = sm.remove(0, 125).unwrap_err();
        assert!(err.to_string().contains("not resident"));
        assert_eq!(err.cycle(), Some(125));
    }

    #[test]
    fn switch_engine_serializes() {
        let mut sm = Sm::new();
        let a = sm.begin_switch(100, 50);
        assert_eq!(a, 150);
        let b = sm.begin_switch(120, 50); // must queue behind the first
        assert_eq!(b, 200);
        assert_eq!(sm.switch_busy_until, 200);
    }
}
