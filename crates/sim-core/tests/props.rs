//! Property-based tests for the event queue and cache models.

use batmem_sim::cache::{CacheStats, DataCache};
use batmem_sim::EventQueue;
use batmem_types::config::CacheGeometry;
use batmem_types::VirtAddr;
use proptest::prelude::*;

/// The data cache as it was before its flat stamp-LRU layout, kept as the
/// reference model: one LRU stack per set, most recently used at the back.
struct StackCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
    line_shift: u32,
    stats: Vec<CacheStats>,
    bank_mask: u64,
}

impl StackCache {
    fn new(geom: CacheGeometry, banks: usize) -> Self {
        Self {
            sets: vec![Vec::new(); geom.num_sets() as usize],
            ways: geom.ways as usize,
            line_shift: geom.line_shift,
            stats: vec![CacheStats::default(); banks],
            bank_mask: banks as u64 - 1,
        }
    }

    fn access(&mut self, addr: VirtAddr) -> bool {
        let line = addr.line(self.line_shift);
        let set = (line % self.sets.len() as u64) as usize;
        let entries = &mut self.sets[set];
        let stats = &mut self.stats[(line & self.bank_mask) as usize];
        if let Some(pos) = entries.iter().position(|&l| l == line) {
            let l = entries.remove(pos);
            entries.push(l);
            stats.hits += 1;
            true
        } else {
            if entries.len() == self.ways {
                entries.remove(0);
                stats.conflict_evictions += 1;
            }
            entries.push(line);
            stats.misses += 1;
            false
        }
    }
}

/// Associativities for the reference-model tests: any width in 1..=64,
/// with the widths `DataCache` special-cases (1, and Table 1's 4 and 16)
/// drawn more often.
fn cache_ways() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..=64, 1u32..=64, Just(1u32), Just(4u32), Just(16u32)]
}

/// The `i`-th line of a stream of shape `kind` over a cache of `entries`
/// lines, drawn from `r`: uniform over about twice the capacity, cycling
/// through exactly `entries` lines (all hits once warm), cycling through
/// `entries + 1` (LRU's worst case), or mostly reusing a few hot lines.
fn stream_line(kind: u8, i: u64, r: u64, entries: u64) -> u64 {
    match kind {
        0 => r % (2 * entries + 1),
        1 => i % entries,
        2 => i % (entries + 1),
        _ if !r.is_multiple_of(4) => r % 3,
        _ => r % (4 * entries),
    }
}

proptest! {
    #[test]
    fn event_queue_pops_sorted_and_stable(
        events in prop::collection::vec((0u64..100, 0u32..1000), 0..300),
    ) {
        let mut q = EventQueue::new();
        for &(t, tag) in &events {
            q.push(t, tag);
        }
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len(), events.len());
        // Sorted by time.
        prop_assert!(popped.windows(2).all(|w| w[0].0 <= w[1].0));
        // Stable: equal-time events keep insertion order.
        for t in popped.iter().map(|&(t, _)| t) {
            let at_t: Vec<u32> =
                popped.iter().filter(|&&(pt, _)| pt == t).map(|&(_, x)| x).collect();
            let inserted: Vec<u32> =
                events.iter().filter(|&&(et, _)| et == t).map(|&(_, x)| x).collect();
            prop_assert_eq!(at_t, inserted);
        }
    }

    #[test]
    fn event_queue_matches_heap_oracle_under_interleaved_ops(
        // (op selector, time operand). Times deliberately cluster in a
        // small range to force duplicate timestamps, with occasional huge
        // jumps so pushes land in every tier (ring / wheel / overflow) and
        // pops interleave with pushes — including pushes at or behind the
        // last popped time, which the overflow tier must absorb.
        ops in prop::collection::vec(
            (0u8..8, prop_oneof![
                0u64..50,
                0u64..50,
                0u64..50,
                0u64..20_000,
                0u64..20_000,
                0u64..200_000_000,
            ]),
            0..400,
        ),
    ) {
        // Oracle: the pre-rewrite scheduler — a plain (time, seq) min-heap.
        let mut oracle: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>> =
            std::collections::BinaryHeap::new();
        let mut oracle_seq = 0u64;
        let mut oracle_cur = 0u64;

        let mut q = EventQueue::new();
        let mut tag = 0u32;
        for &(op, t) in &ops {
            if op < 6 {
                // Bias pushes toward the last popped time (op 4/5) to
                // exercise the same-cycle ring against heap-held ties.
                let time = if op >= 4 { oracle_cur.saturating_add(t % 3) } else { t };
                q.push(time, tag);
                oracle.push(std::cmp::Reverse((time, oracle_seq)));
                oracle_seq += 1;
                tag += 1;
            } else {
                let expected = oracle.pop().map(|std::cmp::Reverse((time, seq))| {
                    oracle_cur = oracle_cur.max(time);
                    (time, seq)
                });
                let got = q.pop();
                prop_assert_eq!(got.map(|(time, _)| time), expected.map(|(time, _)| time));
                // seq == tag by construction, so payload identity pins the
                // full (time, seq) order, not just the timestamps.
                prop_assert_eq!(
                    got.map(|(_, x)| u64::from(x)),
                    expected.map(|(_, seq)| seq)
                );
                prop_assert_eq!(q.peek_time(), oracle.peek().map(|&std::cmp::Reverse((time, _))| time));
            }
        }
        // Drain both: every remaining event must agree too.
        while let Some(std::cmp::Reverse((time, seq))) = oracle.pop() {
            let got = q.pop();
            prop_assert_eq!(got.map(|(x, _)| x), Some(time));
            prop_assert_eq!(got.map(|(_, x)| u64::from(x)), Some(seq));
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert!(q.is_empty());
    }

    #[test]
    fn cache_repeat_access_within_line_always_hits(
        base in 0u64..1_000_000,
        offsets in prop::collection::vec(0u64..128, 1..20),
    ) {
        let mut c = DataCache::new(CacheGeometry {
            capacity_bytes: 4096,
            ways: 4,
            line_shift: 7,
            hit_latency: 4,
        });
        let line_base = base & !127;
        c.access(VirtAddr::new(line_base));
        for &off in &offsets {
            prop_assert!(c.access(VirtAddr::new(line_base + off)));
        }
    }

    #[test]
    fn cache_hits_plus_misses_equals_accesses(
        addrs in prop::collection::vec(0u64..100_000, 1..500),
    ) {
        let mut c = DataCache::new(CacheGeometry {
            capacity_bytes: 2048,
            ways: 2,
            line_shift: 7,
            hit_latency: 4,
        });
        for &a in &addrs {
            c.access(VirtAddr::new(a));
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, addrs.len() as u64);
    }

    #[test]
    fn working_set_smaller_than_cache_converges_to_hits(
        lines in prop::collection::vec(0u64..4, 1..10),
    ) {
        // 4 distinct lines in a 2 KB (16-line) cache: a second pass over the
        // same addresses must hit every time.
        let mut c = DataCache::new(CacheGeometry {
            capacity_bytes: 2048,
            ways: 16,
            line_shift: 7,
            hit_latency: 4,
        });
        for &l in &lines {
            c.access(VirtAddr::new(l * 128));
        }
        for &l in &lines {
            prop_assert!(c.access(VirtAddr::new(l * 128)));
        }
    }

    /// The flat stamp-LRU cache against the stack model, on every access:
    /// the same hit or miss, the same summed and per-bank statistics, and
    /// so the same conflict evictions. Set counts run 1..=12, so both the
    /// mask and the modulo set index are covered.
    #[test]
    fn data_cache_matches_the_lru_stack_model(
        ways in cache_ways(),
        sets in 1u32..=12,
        banks_log in 0u32..4,
        kind in 0u8..4,
        draws in prop::collection::vec(0u64..1_000_000, 1..400),
    ) {
        let geom = CacheGeometry {
            capacity_bytes: sets * ways * 128,
            ways,
            line_shift: 7,
            hit_latency: 4,
        };
        let banks = 1usize << banks_log;
        let mut cache = DataCache::with_banks(geom, banks);
        let mut model = StackCache::new(geom, banks);
        let entries = u64::from(sets * ways);
        for (i, &r) in draws.iter().enumerate() {
            let line = stream_line(kind, i as u64, r, entries);
            // Any byte of the line: the offset must not matter.
            let addr = VirtAddr::new((line << 7) | (r % 128));
            prop_assert_eq!(cache.access(addr), model.access(addr), "access {} to line {}", i, line);
            prop_assert_eq!(cache.bank_stats(), model.stats);
        }
        let mut summed = CacheStats::default();
        for b in &model.stats {
            summed.hits += b.hits;
            summed.misses += b.misses;
            summed.conflict_evictions += b.conflict_evictions;
        }
        prop_assert_eq!(cache.stats(), summed);
    }
}
