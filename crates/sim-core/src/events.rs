//! A deterministic three-tier discrete-event scheduler.
//!
//! [`EventQueue`] keeps the `(time, insertion-seq)` min-queue contract of a
//! binary heap but routes events to the cheapest structure that can hold
//! them (see DESIGN.md §9 for the full cost model):
//!
//! 1. **Same-cycle ring** — events pushed at the time of the last pop (the
//!    warp-wake fast path) go to a FIFO `VecDeque`: no ordering work at
//!    all, since FIFO *is* `(time, seq)` order within one cycle.
//! 2. **Timing wheel** — near-future events (within 2^24 cycles of the
//!    wheel time) go to a hierarchical timing wheel (the private `wheel`
//!    module): O(1) insert, O(1) amortised cascade, and storage for the
//!    pending events only.
//! 3. **Overflow heap** — far-future timestamps, and pushes behind the
//!    last pop, fall back to the old `BinaryHeap`.
//!
//! Every pop compares the front of each tier by `(time, seq)`, so the
//! merged order is exactly what the single heap produced — whole runs stay
//! bit-for-bit identical (property-tested against a heap oracle in
//! `tests/props.rs`).

use crate::wheel::TimingWheel;
use batmem_types::Cycle;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Per-tier entry counts, for scheduler observability (watchdog reports,
/// [`EventQueue::occupancy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerOccupancy {
    /// Events in the same-cycle FIFO ring.
    pub ring: usize,
    /// Events in the hierarchical timing wheel.
    pub wheel: usize,
    /// Events in the far-future overflow heap.
    pub overflow: usize,
}

/// A min event queue ordered by `(time, insertion sequence)`.
///
/// Two events scheduled for the same cycle pop in insertion order, which
/// makes whole-simulation runs bit-for-bit reproducible.
///
/// # Examples
///
/// ```
/// use batmem_sim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(10, "b");
/// q.push(5, "a");
/// q.push(10, "c");
/// assert_eq!(q.pop(), Some((5, "a")));
/// assert_eq!(q.pop(), Some((10, "b")));
/// assert_eq!(q.pop(), Some((10, "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// Events at exactly `cur`: popped FIFO, pushed without ordering work.
    ring: VecDeque<(u64, T)>,
    /// Near-future events, strictly after `cur` whenever the ring is
    /// non-empty.
    wheel: TimingWheel<T>,
    /// Far-future and behind-`cur` events.
    overflow: BinaryHeap<Reverse<(Cycle, u64, WrapOrd<T>)>>,
    /// The timestamp of the ring (the latest pop time, monotone under
    /// future-only pushes).
    cur: Cycle,
    /// Next insertion sequence number.
    seq: u64,
    /// Total pending events across all three tiers.
    len: usize,
}

/// Wrapper granting `Ord` to the payload without requiring `T: Ord`;
/// ordering between payloads is never consulted because `(time, seq)` is
/// unique.
#[derive(Debug, Clone)]
struct WrapOrd<T>(T);

impl<T> PartialEq for WrapOrd<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<T> Eq for WrapOrd<T> {}
impl<T> PartialOrd for WrapOrd<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for WrapOrd<T> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with `capacity` pre-allocated same-cycle
    /// slots, so a warm-up burst of pushes does not reallocate.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            ring: VecDeque::with_capacity(capacity),
            wheel: TimingWheel::new(),
            overflow: BinaryHeap::new(),
            cur: 0,
            seq: 0,
            len: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: Cycle, event: T) {
        let s = self.seq;
        self.seq += 1;
        self.len += 1;
        if time == self.cur {
            // FIFO order within one cycle is (time, seq) order: seq is
            // monotone, so appending preserves it with zero compares.
            self.ring.push_back((s, event));
        } else if time > self.cur {
            if self.wheel.is_empty() {
                // An empty wheel can be rebased for free; anchoring it just
                // past `cur` maximises the horizon `fits` accepts.
                self.wheel.rebase(self.cur + 1);
            }
            if self.wheel.fits(time) {
                self.wheel.push(time, s, event);
            } else {
                self.overflow.push(Reverse((time, s, WrapOrd(event))));
            }
        } else {
            // Behind the last pop: outside the engine's usage, but kept
            // correct for arbitrary callers via the heap tier.
            self.overflow.push(Reverse((time, s, WrapOrd(event))));
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        if self.ring.is_empty() {
            let Some(wt) = self.wheel.stage() else { return self.pop_overflow() };
            if self.overflow.peek().is_some_and(|Reverse((t, _, _))| *t < wt) {
                return self.pop_overflow();
            }
            // The whole slot moves to the ring, so later pushes at `cur`
            // cannot overtake it, and a heap entry tying its timestamp
            // interleaves with it by seq below.
            self.cur = self.wheel.take_staged(&mut self.ring);
        }
        // Invariant: the wheel holds only times > cur while the ring is
        // non-empty, so only the overflow heap can precede it.
        let &(rs, _) = self.ring.front().expect("the ring or the staged slot is non-empty");
        if self.overflow_wins(self.cur, rs) {
            return self.pop_overflow();
        }
        let (_, e) = self.ring.pop_front().expect("front was checked");
        self.len -= 1;
        Some((self.cur, e))
    }

    /// Whether the overflow heap's front precedes `(time, seq)`.
    fn overflow_wins(&self, time: Cycle, seq: u64) -> bool {
        match self.overflow.peek() {
            Some(&Reverse((t, s, _))) => (t, s) < (time, seq),
            None => false,
        }
    }

    /// Pops from the overflow heap, keeping `cur` at the latest pop time.
    fn pop_overflow(&mut self) -> Option<(Cycle, T)> {
        self.overflow.pop().map(|Reverse((t, _, WrapOrd(e)))| {
            self.len -= 1;
            self.cur = self.cur.max(t);
            (t, e)
        })
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Cycle> {
        let mut min: Option<Cycle> = None;
        let mut fold = |t: Cycle| min = Some(min.map_or(t, |m| m.min(t)));
        if !self.ring.is_empty() {
            fold(self.cur);
        }
        if let Some(t) = self.wheel.peek_min_time() {
            fold(t);
        }
        if let Some(&Reverse((t, _, _))) = self.overflow.peek() {
            fold(t);
        }
        min
    }

    /// Number of pending events (`O(1)`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending (`O(1)`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pending events per scheduler tier.
    pub fn occupancy(&self) -> SchedulerOccupancy {
        SchedulerOccupancy {
            ring: self.ring.len(),
            wheel: self.wheel.len(),
            overflow: self.overflow.len(),
        }
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.push(3, 'x');
        q.push(1, 'y');
        q.push(3, 'z');
        q.push(2, 'w');
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(1, 'y'), (2, 'w'), (3, 'x'), (3, 'z')]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(9, ());
        q.push(4, ());
        assert_eq!(q.peek_time(), Some(4));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn works_with_non_ord_payloads() {
        #[derive(Debug)]
        struct NotOrd(#[allow(dead_code)] f64);
        let mut q = EventQueue::new();
        q.push(1, NotOrd(1.0));
        q.push(0, NotOrd(0.5));
        assert_eq!(q.pop().unwrap().0, 0);
    }

    #[test]
    fn same_cycle_pushes_after_pop_stay_fifo() {
        // Ring fast path: re-enqueues at the popped cycle mixed with
        // earlier wheel/heap entries at the same timestamp.
        let mut q = EventQueue::new();
        q.push(100, 'a');
        q.push(100, 'b');
        assert_eq!(q.pop(), Some((100, 'a')));
        q.push(100, 'c'); // lands in the ring at cur == 100
        q.push(100, 'd');
        assert_eq!(q.pop(), Some((100, 'b')));
        assert_eq!(q.pop(), Some((100, 'c')));
        assert_eq!(q.pop(), Some((100, 'd')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_behind_last_pop_still_sorts() {
        let mut q = EventQueue::new();
        q.push(50, 'a');
        assert_eq!(q.pop(), Some((50, 'a')));
        q.push(10, 'b'); // behind cur: overflow tier
        q.push(50, 'c'); // at cur: ring tier
        q.push(60, 'd'); // ahead: wheel tier
        assert_eq!(q.pop(), Some((10, 'b')));
        assert_eq!(q.pop(), Some((50, 'c')));
        assert_eq!(q.pop(), Some((60, 'd')));
    }

    #[test]
    fn overflow_ties_interleave_with_wheel_by_seq() {
        // Land the same timestamp in the overflow heap (pushed while out
        // of the wheel's window) and in the wheel (pushed after the wheel
        // rolled into that window); the heap entry has the smaller seq and
        // must pop first.
        let mut q = EventQueue::new();
        let t = (1u64 << 24) + 100; // outside the wheel's initial window
        q.push(t, 'h'); // seq 0 -> overflow
        q.push(10, 'x'); // seq 1 -> wheel
        assert_eq!(q.pop(), Some((10, 'x')));
        q.push(t - 50, 'w'); // seq 2 -> overflow (still out of window)
        assert_eq!(q.pop(), Some((t - 50, 'w')));
        q.push(t, 'y'); // seq 3 -> wheel (rebased past t - 50)
        assert_eq!(q.occupancy().wheel, 1);
        assert_eq!(q.occupancy().overflow, 1);
        assert_eq!(q.pop(), Some((t, 'h')));
        assert_eq!(q.pop(), Some((t, 'y')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn occupancy_reports_each_tier() {
        let mut q = EventQueue::new();
        q.push(0, 'r'); // cur == 0: ring
        q.push(7, 'w'); // near future: wheel
        q.push(1 << 40, 'o'); // far future: overflow
        let occ = q.occupancy();
        assert_eq!(occ, SchedulerOccupancy { ring: 1, wheel: 1, overflow: 1 });
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let q: EventQueue<u8> = EventQueue::with_capacity(256);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
