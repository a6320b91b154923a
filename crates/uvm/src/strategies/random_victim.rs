//! Random-victim eviction (`random[:seed]`), a victim-selection ablation.
//!
//! It is not part of the paper's evaluation, and it needed no change
//! inside the pipeline core: one strategy type and one row in the
//! eviction table of [`registry`](crate::registry).

use super::{EvictionStrategy, EvictionTiming};
use crate::memmgr::MemoryManager;
use crate::pcie::PciePipes;
use batmem_types::{Cycle, DetRng, PageId};

/// Evicts a uniformly random resident page instead of the LRU head, with
/// the baseline's serialized transfer timing — isolating the cost of
/// victim *selection* from the cost of eviction *scheduling*.
#[derive(Debug, Clone)]
pub struct RandomVictim {
    rng: DetRng,
}

impl RandomVictim {
    /// Creates the strategy with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self { rng: DetRng::new(seed) }
    }
}

impl EvictionStrategy for RandomVictim {
    fn name(&self) -> &'static str {
        "random"
    }

    fn pick_victim(
        &mut self,
        mem: &MemoryManager,
        pinned: &dyn Fn(PageId) -> bool,
    ) -> Option<(PageId, bool)> {
        let candidates: Vec<PageId> = mem.pages_in_lru_order().filter(|&p| !pinned(p)).collect();
        if candidates.is_empty() {
            // Everything resident is pinned by the open batch: fall back to
            // the LRU policy's forced-pinned handling.
            return mem.pick_victim(pinned);
        }
        let idx = self.rng.below(candidates.len() as u64) as usize;
        Some((candidates[idx], false))
    }

    fn schedule(&mut self, pipes: &mut PciePipes, avail: Cycle, page_bytes: u64) -> EvictionTiming {
        let tr = pipes.schedule_d2h(avail.max(pipes.h2d_free_at()), page_bytes);
        pipes.stall_h2d_until(tr.end);
        EvictionTiming::Transfer { start: tr.start, ready: tr.end }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u64) -> MemoryManager {
        let mut m = MemoryManager::new(Some(n));
        for i in 0..n {
            let f = m.take_frame().unwrap();
            m.mark_resident(PageId::new(i), f, i).unwrap();
        }
        m
    }

    #[test]
    fn picks_only_unpinned_residents() {
        let mem = filled(8);
        let mut s = RandomVictim::new(7);
        for _ in 0..64 {
            let (v, forced) = s.pick_victim(&mem, &|p| p.index() % 2 == 0).unwrap();
            assert!(!forced);
            assert_eq!(v.index() % 2, 1, "pinned page {v} selected");
        }
    }

    #[test]
    fn all_pinned_falls_back_to_forced_lru() {
        let mem = filled(4);
        let mut s = RandomVictim::new(7);
        let picked = s.pick_victim(&mem, &|_| true);
        assert!(picked.is_some_and(|(_, forced)| forced));
        assert_eq!(picked, mem.pick_victim(|_| true));
    }

    #[test]
    fn same_seed_same_choices() {
        let mem = filled(64);
        let picks = |seed: u64| -> Vec<PageId> {
            let mut s = RandomVictim::new(seed);
            (0..16).map(|_| s.pick_victim(&mem, &|_| false).unwrap().0).collect()
        };
        assert_eq!(picks(42), picks(42));
        assert_ne!(picks(42), picks(43));
    }

    #[test]
    fn schedule_serializes_behind_h2d() {
        let mut pipes = PciePipes::new(1_000_000_000, 1_000_000_000);
        let _ = pipes.schedule_h2d(0, 65_536);
        let busy_until = pipes.h2d_free_at();
        let mut s = RandomVictim::new(1);
        match s.schedule(&mut pipes, 0, 65_536) {
            EvictionTiming::Transfer { start, ready } => {
                assert_eq!(start, busy_until);
                assert!(ready > start);
                assert_eq!(pipes.h2d_free_at(), ready);
            }
            EvictionTiming::Instant => panic!("random victim schedules a real transfer"),
        }
    }
}
