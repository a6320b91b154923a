//! Hierarchical timing wheel: the near-future tier of [`EventQueue`].
//!
//! [`EventQueue`]: crate::events::EventQueue
//!
//! The wheel holds entries whose timestamps fall inside the top-level
//! *window* containing the wheel's current time `wt` (2^24 cycles with the
//! default geometry: 4 levels of 64 slots, 6 bits per level). Placement is
//! window-based rather than delta-based: an entry goes to the smallest
//! level `k` such that its timestamp shares `wt`'s level-`(k+1)` window
//! (they agree on all bits above `6·(k+1)`), in the slot named by its own
//! level-`k` window index. This keeps the slot-index → window mapping
//! bijective, so cascades never re-insert an entry into the slot it came
//! from and rollover cannot livelock.
//!
//! Two invariants carry the correctness argument (see DESIGN.md §9):
//!
//! 1. `wt` never exceeds the earliest pending timestamp, so no slot is
//!    skipped as the wheel advances.
//! 2. Levels are strictly ordered in time: every level-`k` entry shares
//!    `wt`'s level-`(k+1)` window but *not* its level-`k` window (cursor
//!    slots are cascaded down eagerly on every advance), hence any
//!    level-`k` entry precedes any level-`(k+1)` entry. The earliest
//!    pending timestamp therefore always lives in the lowest occupied
//!    level's first occupied slot at-or-after the cursor, found with one
//!    `trailing_zeros` on the occupancy bitmap.
//!
//! Determinism: slots collect entries from direct pushes *and* cascades,
//! which can arrive out of insertion order (a cascade can land an older
//! `seq` behind a newer direct push). [`TimingWheel::stage`] sorts the
//! front slot by `seq` exactly once before it is consumed, restoring the
//! global `(time, seq)` order bit-for-bit.

use batmem_types::Cycle;
use std::collections::VecDeque;

/// Bits per level: each level has `1 << SLOT_BITS` slots.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels.
const LEVELS: usize = 4;
/// Bits covered by the whole wheel; timestamps sharing the wheel time's
/// top-level window (equal above this bit) fit, everything else overflows.
const HORIZON_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// Low-6-bits mask for slot indexing.
const SLOT_MASK: u64 = SLOTS as u64 - 1;

/// A scheduled entry: absolute timestamp, global insertion sequence, payload.
#[derive(Debug, Clone)]
struct Entry<T> {
    time: Cycle,
    seq: u64,
    item: T,
}

/// One wheel level: 64 slots plus an occupancy bitmap (bit `i` set iff
/// `slots[i]` is non-empty) so the earliest occupied slot is a
/// `trailing_zeros` away.
#[derive(Debug, Clone)]
struct Level<T> {
    occupied: u64,
    slots: [Vec<Entry<T>>; SLOTS],
}

impl<T> Level<T> {
    fn new() -> Self {
        Self { occupied: 0, slots: std::array::from_fn(|_| Vec::new()) }
    }
}

/// The hierarchical timing wheel. Generic over the payload with no trait
/// bounds; ordering uses only `(time, seq)`.
#[derive(Debug, Clone)]
pub(crate) struct TimingWheel<T> {
    levels: Vec<Level<T>>,
    /// Wheel time: every entry satisfies `time >= wt`, and `wt` never
    /// exceeds the earliest pending entry's timestamp.
    wt: Cycle,
    count: usize,
}

impl<T> TimingWheel<T> {
    pub(crate) fn new() -> Self {
        Self { levels: (0..LEVELS).map(|_| Level::new()).collect(), wt: 0, count: 0 }
    }

    pub(crate) fn len(&self) -> usize {
        self.count
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether `time` can be placed: not behind the wheel, and inside the
    /// top-level window containing the wheel time.
    pub(crate) fn fits(&self, time: Cycle) -> bool {
        time >= self.wt && (time ^ self.wt) >> HORIZON_BITS == 0
    }

    /// Moves an *empty* wheel's time forward so `fits` covers as much of
    /// the future as possible. No-op if `wt` is already past `at`.
    pub(crate) fn rebase(&mut self, at: Cycle) {
        debug_assert!(self.count == 0, "rebase requires an empty wheel");
        self.wt = self.wt.max(at);
    }

    /// Inserts an entry; `time` must satisfy [`Self::fits`].
    pub(crate) fn push(&mut self, time: Cycle, seq: u64, item: T) {
        debug_assert!(self.fits(time), "push outside the wheel horizon");
        self.place(Entry { time, seq, item });
        self.count += 1;
    }

    /// Routes an entry to its level and slot relative to the current `wt`.
    fn place(&mut self, e: Entry<T>) {
        let x = e.time ^ self.wt;
        let level = if x == 0 { 0 } else { ((63 - x.leading_zeros()) / SLOT_BITS) as usize };
        debug_assert!(level < LEVELS);
        let idx = ((e.time >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.levels[level].occupied |= 1 << idx;
        self.levels[level].slots[idx].push(e);
    }

    /// Advances the wheel time and cascades down every slot the new time
    /// lands in. `at` must not exceed the earliest pending timestamp.
    fn advance(&mut self, at: Cycle) {
        debug_assert!(at >= self.wt, "wheel time is monotone");
        self.wt = at;
        for level in 1..LEVELS {
            let cursor = ((at >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
            if self.levels[level].occupied & (1 << cursor) == 0 {
                continue;
            }
            // The cursor slot's entries now share `wt`'s level-`level`
            // window, so `place` moves each strictly below this level.
            self.levels[level].occupied &= !(1 << cursor);
            let mut drained = std::mem::take(&mut self.levels[level].slots[cursor]);
            for e in drained.drain(..) {
                self.place(e);
            }
            // Hand the (now empty) buffer back so its capacity is reused.
            self.levels[level].slots[cursor] = drained;
        }
    }

    /// Cascades until the earliest pending entries sit in a level-0 slot,
    /// sorts that slot by `seq`, and returns its `(time, first seq)`.
    /// Leaves the wheel staged for [`Self::take_staged`]; idempotent.
    pub(crate) fn stage(&mut self) -> Option<(Cycle, u64)> {
        if self.count == 0 {
            return None;
        }
        loop {
            if self.levels[0].occupied != 0 {
                let idx = self.front_slot(0);
                let slot = &mut self.levels[0].slots[idx];
                // Direct pushes and cascades interleave out of seq order;
                // one sort on consumption restores FIFO within the tick.
                slot.sort_unstable_by_key(|e| e.seq);
                debug_assert!(
                    slot.windows(2).all(|w| w[0].time == w[1].time),
                    "a level-0 slot holds exactly one timestamp"
                );
                return Some((slot[0].time, slot[0].seq));
            }
            let level = (1..LEVELS)
                .find(|&k| self.levels[k].occupied != 0)
                .expect("count > 0 but every level is empty");
            let shift = SLOT_BITS * level as u32;
            let idx = self.front_slot(level);
            // Jump to the start of the earliest occupied window (still at
            // or before the earliest entry) and cascade it down a level.
            let window_start =
                (idx as u64) << shift | (self.wt >> (shift + SLOT_BITS)) << (shift + SLOT_BITS);
            self.advance(self.wt.max(window_start));
            if self.levels[level].occupied & (1 << idx) != 0 {
                // `advance` stopped short of the slot (same window as the
                // old cursor); drain it explicitly.
                self.levels[level].occupied &= !(1 << idx);
                let mut drained = std::mem::take(&mut self.levels[level].slots[idx]);
                for e in drained.drain(..) {
                    self.place(e);
                }
                self.levels[level].slots[idx] = drained;
            }
        }
    }

    /// Index of the first occupied slot at or after the cursor. All
    /// occupied slots sit at or after the cursor (invariant 1), so the
    /// shifted bitmap is never empty when the level is occupied.
    fn front_slot(&self, level: usize) -> usize {
        let cursor = ((self.wt >> (SLOT_BITS * level as u32)) & SLOT_MASK) as u32;
        let bits = self.levels[level].occupied >> cursor;
        debug_assert!(bits != 0, "occupied slot behind the cursor");
        (cursor + bits.trailing_zeros()) as usize
    }

    /// Drains the staged front slot (see [`Self::stage`]) into `out` as
    /// `(seq, item)` pairs in seq order, advances the wheel past its
    /// timestamp, and returns that timestamp.
    pub(crate) fn take_staged(&mut self, out: &mut VecDeque<(u64, T)>) -> Cycle {
        debug_assert!(self.levels[0].occupied != 0, "take_staged without stage");
        let idx = self.front_slot(0);
        self.levels[0].occupied &= !(1 << idx);
        let mut drained = std::mem::take(&mut self.levels[0].slots[idx]);
        let time = drained[0].time;
        self.count -= drained.len();
        for e in drained.drain(..) {
            out.push_back((e.seq, e.item));
        }
        self.levels[0].slots[idx] = drained;
        self.advance(time + 1);
        time
    }

    /// Earliest pending timestamp without mutating the wheel (`O(slot)`,
    /// for peeking only).
    pub(crate) fn peek_min_time(&self) -> Option<Cycle> {
        if self.count == 0 {
            return None;
        }
        let level = (0..LEVELS)
            .find(|&k| self.levels[k].occupied != 0)
            .expect("count > 0 but every level is empty");
        let idx = self.front_slot(level);
        self.levels[level].slots[idx].iter().map(|e| e.time).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(w: &mut TimingWheel<u32>) -> Vec<(Cycle, u64)> {
        let mut out = Vec::new();
        let mut ring = VecDeque::new();
        while w.stage().is_some() {
            let t = w.take_staged(&mut ring);
            for (seq, _) in ring.drain(..) {
                out.push((t, seq));
            }
        }
        out
    }

    #[test]
    fn orders_across_levels() {
        let mut w = TimingWheel::new();
        // One entry per level, pushed in reverse time order.
        for (i, t) in [300_000u64, 5_000, 70, 3].iter().enumerate() {
            w.push(*t, i as u64, 0u32);
        }
        let popped = drain_all(&mut w);
        assert_eq!(popped, vec![(3, 3), (70, 2), (5_000, 1), (300_000, 0)]);
        assert!(w.is_empty());
    }

    #[test]
    fn cascade_after_direct_push_restores_seq_order() {
        let mut w = TimingWheel::new();
        w.rebase(250);
        // seq 0 lands at a higher level; seq 1 is pushed later but, after
        // the wheel advances, a naive cascade would append seq 0 behind it.
        w.push(260, 0, 0u32);
        w.push(260, 1, 0u32);
        assert_eq!(drain_all(&mut w), vec![(260, 0), (260, 1)]);
    }

    #[test]
    fn window_boundary_entries_cascade_down() {
        let mut w = TimingWheel::new();
        w.rebase(4_095);
        // Delta 1 but across a level-1 and level-2 window boundary: placed
        // high, must cascade back down without livelocking.
        w.push(4_096, 0, 0u32);
        w.push(4_095, 1, 0u32);
        assert_eq!(drain_all(&mut w), vec![(4_095, 1), (4_096, 0)]);
    }

    #[test]
    fn fits_respects_horizon_and_past() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        w.rebase(100);
        assert!(w.fits(100));
        assert!(!w.fits(99));
        assert!(w.fits((1 << HORIZON_BITS) - 1));
        assert!(!w.fits(1 << HORIZON_BITS));
    }
}
