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
//! Storage: every entry is a node in one arena, and each slot is an
//! intrusive list (a head and a tail index) over it. A consumed node goes
//! on a free list that the next push takes from, so the arena holds at most
//! the peak number of pending entries, however large any one slot's burst
//! once was, and a cascade relinks nodes without moving a payload.
//!
//! Determinism: an entry's level and slot are a function of its timestamp
//! and `wt` alone, so all entries with one timestamp share a slot list and
//! cascade together, in list order, and a direct push appends behind them.
//! Entries are pushed in increasing `seq` (the queue's push counter), so a
//! level-0 slot drains in `seq` order and the global `(time, seq)` order
//! holds bit-for-bit with no sort; [`TimingWheel::take_staged`] checks it
//! in debug builds.

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
/// The end of a node list.
const NIL: usize = usize::MAX;

/// One arena node: absolute timestamp, global insertion sequence, the next
/// node of its slot's list (stale at the slot's tail) or of the free list,
/// and the payload, which is `None` only while the node is free.
#[derive(Debug, Clone)]
struct Node<T> {
    time: Cycle,
    seq: u64,
    next: usize,
    item: Option<T>,
}

/// A slot's node list: first and last node. A walk stops at `tail`, so
/// placing a node never writes its own link. Read only while the slot's
/// occupancy bit is set.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: usize,
    tail: usize,
}

/// One wheel level: 64 slot lists plus an occupancy bitmap (bit `i` set
/// iff `slots[i]` is non-empty) so the earliest occupied slot is a
/// `trailing_zeros` away.
#[derive(Debug, Clone)]
struct Level {
    occupied: u64,
    slots: [Slot; SLOTS],
}

impl Level {
    fn new() -> Self {
        Self { occupied: 0, slots: [Slot { head: NIL, tail: NIL }; SLOTS] }
    }
}

/// The hierarchical timing wheel. Generic over the payload with no trait
/// bounds; ordering uses only `(time, seq)`.
#[derive(Debug, Clone)]
pub(crate) struct TimingWheel<T> {
    /// Every node ever needed at once: linked into a slot while pending,
    /// into the free list after it is consumed.
    nodes: Vec<Node<T>>,
    /// Head of the free list, which ends in `NIL`.
    free: usize,
    levels: [Level; LEVELS],
    /// Wheel time: every entry satisfies `time >= wt`, and `wt` never
    /// exceeds the earliest pending entry's timestamp.
    wt: Cycle,
    count: usize,
}

impl<T> TimingWheel<T> {
    pub(crate) fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: NIL,
            levels: std::array::from_fn(|_| Level::new()),
            wt: 0,
            count: 0,
        }
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

    /// Inserts an entry; `time` must satisfy [`Self::fits`], and `seq` must
    /// exceed every seq pushed before.
    pub(crate) fn push(&mut self, time: Cycle, seq: u64, item: T) {
        debug_assert!(self.fits(time), "push outside the wheel horizon");
        let node = Node { time, seq, next: NIL, item: Some(item) };
        let n = if self.free == NIL {
            self.nodes.push(node);
            self.nodes.len() - 1
        } else {
            let n = self.free;
            self.free = self.nodes[n].next;
            self.nodes[n] = node;
            n
        };
        self.place(n);
        self.count += 1;
    }

    /// Links node `n` at the tail of its slot relative to the current `wt`.
    fn place(&mut self, n: usize) {
        let time = self.nodes[n].time;
        let x = time ^ self.wt;
        let level = if x == 0 { 0 } else { ((63 - x.leading_zeros()) / SLOT_BITS) as usize };
        debug_assert!(level < LEVELS);
        let idx = ((time >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        let lv = &mut self.levels[level];
        if lv.occupied & (1 << idx) == 0 {
            lv.occupied |= 1 << idx;
            lv.slots[idx].head = n;
        } else {
            self.nodes[lv.slots[idx].tail].next = n;
        }
        lv.slots[idx].tail = n;
    }

    /// Empties slot `idx` of `level`, if occupied, and places each of its
    /// nodes again, in list order, relative to the current `wt`. Callers
    /// move `wt` into the slot's window first, so every node lands on a
    /// lower level.
    fn cascade(&mut self, level: usize, idx: usize) {
        if self.levels[level].occupied & (1 << idx) == 0 {
            return;
        }
        self.levels[level].occupied &= !(1 << idx);
        let Slot { head: mut n, tail } = self.levels[level].slots[idx];
        loop {
            let next = self.nodes[n].next;
            self.place(n);
            if n == tail {
                break;
            }
            n = next;
        }
    }

    /// Advances the wheel time and cascades down every slot the new time
    /// lands in. `at` must not exceed the earliest pending timestamp.
    fn advance(&mut self, at: Cycle) {
        debug_assert!(at >= self.wt, "wheel time is monotone");
        self.wt = at;
        for level in 1..LEVELS {
            // The cursor slot's entries now share `wt`'s level-`level`
            // window, so `place` moves each strictly below this level.
            self.cascade(level, ((at >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize);
        }
    }

    /// Cascades until the earliest pending entries sit in a level-0 slot
    /// and returns their timestamp. Leaves the wheel staged for
    /// [`Self::take_staged`]; idempotent.
    pub(crate) fn stage(&mut self) -> Option<Cycle> {
        if self.count == 0 {
            return None;
        }
        loop {
            if self.levels[0].occupied != 0 {
                let head = self.levels[0].slots[self.front_slot(0)].head;
                return Some(self.nodes[head].time);
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
            // `advance` stops short of the slot when it shares the old
            // cursor's window; then this drains it.
            self.cascade(level, idx);
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

    /// Moves the staged front slot (see [`Self::stage`]) into the empty
    /// `out` as `(seq, item)` pairs in seq order, frees its nodes, advances
    /// the wheel past its timestamp, and returns that timestamp.
    pub(crate) fn take_staged(&mut self, out: &mut VecDeque<(u64, T)>) -> Cycle {
        debug_assert!(self.levels[0].occupied != 0, "take_staged without stage");
        debug_assert!(out.is_empty(), "`out` must start empty: the slot's size is read off it");
        let idx = self.front_slot(0);
        self.levels[0].occupied &= !(1 << idx);
        let Slot { head, tail } = self.levels[0].slots[idx];
        let time = self.nodes[head].time;
        let mut n = head;
        loop {
            let node = &mut self.nodes[n];
            debug_assert_eq!(node.time, time, "a level-0 slot holds exactly one timestamp");
            debug_assert!(out.back().is_none_or(|&(s, _)| s < node.seq), "slot out of seq order");
            out.push_back((node.seq, node.item.take().expect("a linked node holds its item")));
            if n == tail {
                break;
            }
            n = node.next;
        }
        // The slot's whole list joins the free list at once.
        self.nodes[tail].next = self.free;
        self.free = head;
        self.count -= out.len();
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
        let Slot { head: mut n, tail } = self.levels[level].slots[self.front_slot(level)];
        let mut min = self.nodes[n].time;
        while n != tail {
            n = self.nodes[n].next;
            min = min.min(self.nodes[n].time);
        }
        Some(min)
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
    fn arena_holds_at_most_the_pending_peak() {
        // Each round pushes K entries spread over all four levels, then
        // drains them: freed nodes must be reused, not appended.
        const K: u64 = 64;
        let mut w = TimingWheel::new();
        let mut ring = VecDeque::new();
        let mut seq = 0;
        for round in 0..300u64 {
            // Advancing wheel times whose four slot digits are each below
            // 32, so adding `32 << (6 * level)` to the time flips a bit of
            // exactly that digit and lands the entry on that level.
            let digits = round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let low = (0..LEVELS as u32).map(|l| (digits >> (5 * l) & 31) << (SLOT_BITS * l));
            w.rebase(round << HORIZON_BITS | low.sum::<u64>());
            let now = w.wt;
            for i in 0..K {
                let level = (i % LEVELS as u64) as u32;
                let delta = match level {
                    0 => i % 32,
                    _ => (32 << (SLOT_BITS * level)) + i * 997 % (1 << (SLOT_BITS * level - 1)),
                };
                w.push(now + delta, seq, i);
                seq += 1;
            }
            assert!(w.levels.iter().all(|l| l.occupied != 0), "round {round} missed a level");
            let mut last = now;
            while w.stage().is_some() {
                let t = w.take_staged(&mut ring);
                assert!(t >= last);
                last = t;
                ring.clear();
            }
            assert!(w.is_empty());
            assert!(w.nodes.len() <= K as usize, "round {round}: {} nodes", w.nodes.len());
        }
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
