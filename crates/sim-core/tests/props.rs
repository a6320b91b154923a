//! Property-based tests for the event queue, the cache models, the warp
//! issue path and the block phase counts.

use batmem_sim::block::BlockContext;
use batmem_sim::cache::{CacheStats, DataCache};
use batmem_sim::ops::{AccessStream, EmptyStream, OpKind, PackedHeader, PackedStream, WarpOp};
use batmem_sim::warp::{WarpContext, WarpPhase};
use batmem_sim::EventQueue;
use batmem_types::config::CacheGeometry;
use batmem_types::policy::SwitchTrigger;
use batmem_types::{BlockId, VirtAddr};
use proptest::prelude::*;

/// The data cache as it was before its flat stamp-LRU layout, kept as the
/// reference model: one LRU stack per set, most recently used at the back.
struct StackCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
    line_shift: u32,
    stats: CacheStats,
}

impl StackCache {
    fn new(geom: CacheGeometry) -> Self {
        Self {
            sets: vec![Vec::new(); geom.num_sets() as usize],
            ways: geom.ways as usize,
            line_shift: geom.line_shift,
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, addr: VirtAddr) -> bool {
        let line = addr.line(self.line_shift);
        let set = (line % self.sets.len() as u64) as usize;
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|&l| l == line) {
            let l = entries.remove(pos);
            entries.push(l);
            self.stats.hits += 1;
            true
        } else {
            if entries.len() == self.ways {
                entries.remove(0);
                self.stats.conflict_evictions += 1;
            }
            entries.push(line);
            self.stats.misses += 1;
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
    /// the same hit or miss and the same statistics, and so the same
    /// conflict evictions. Set counts run 1..=12, so both the mask and the
    /// modulo set index are covered.
    #[test]
    fn data_cache_matches_the_lru_stack_model(
        ways in cache_ways(),
        sets in 1u32..=12,
        kind in 0u8..4,
        draws in prop::collection::vec(0u64..1_000_000, 1..400),
    ) {
        let geom = CacheGeometry {
            capacity_bytes: sets * ways * 128,
            ways,
            line_shift: 7,
            hit_latency: 4,
        };
        let mut cache = DataCache::new(geom);
        let mut model = StackCache::new(geom);
        let entries = u64::from(sets * ways);
        for (i, &r) in draws.iter().enumerate() {
            let line = stream_line(kind, i as u64, r, entries);
            // Any byte of the line: the offset must not matter.
            let addr = VirtAddr::new((line << 7) | (r % 128));
            prop_assert_eq!(cache.access(addr), model.access(addr), "access {} to line {}", i, line);
            prop_assert_eq!(cache.stats(), model.stats);
        }
    }
}

// ---- the issue path --------------------------------------------------------

/// One op to pack: compute cycles, or a load/store of `txns` transactions
/// (0, warp-sized, or wider than a warp) drawn from `seed`.
fn warp_op() -> impl Strategy<Value = WarpOp> {
    let compute =
        prop_oneof![0u32..3, 3u32..1_000, (u32::MAX - 2)..=u32::MAX].prop_map(WarpOp::Compute);
    let mem = (0u8..2, prop_oneof![Just(0usize), 1usize..=32, 33usize..80], 0u64..u64::MAX)
        .prop_map(|(store, txns, seed)| {
            let addrs: Vec<VirtAddr> = (0..txns as u64)
                .map(|i| VirtAddr::new(seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))))
                .collect();
            if store == 1 {
                WarpOp::Store(addrs.into())
            } else {
                WarpOp::Load(addrs.into())
            }
        });
    prop_oneof![compute, mem]
}

/// The packed encoding of `ops`, written word by word from the header
/// format rather than through `PackedStream`'s own packer.
fn pack(ops: &[WarpOp]) -> Vec<u64> {
    let mut words = Vec::new();
    for op in ops {
        let header = match op {
            WarpOp::Compute(c) => PackedHeader::Compute(*c),
            WarpOp::Load(a) => PackedHeader::Load(a.len() as u32),
            WarpOp::Store(a) => PackedHeader::Store(a.len() as u32),
        };
        words.push(header.encode());
        words.extend(op.addrs().iter().map(|a| a.raw()));
    }
    words
}

/// A stream that implements only `next_op`, as a wrapper that records or
/// times ops does, so it issues through the default `next_op_into`.
struct OpsOnly(std::vec::IntoIter<WarpOp>);

impl AccessStream for OpsOnly {
    fn next_op(&mut self) -> Option<WarpOp> {
        self.0.next()
    }
}

/// Drains `by_value` through `next_op` and `into` through `next_op_into`
/// side by side: the same op at every step (the buffer holding exactly the
/// op's transactions, whatever it held before), the same end, and both
/// still ended on a second call. Returns the ops drained.
fn assert_issue_paths_agree(by_value: &mut dyn AccessStream, into: &mut dyn AccessStream) -> usize {
    let mut txns = vec![VirtAddr::new(0xdead_beef); 7];
    let mut n = 0;
    loop {
        let op = by_value.next_op();
        let kind = into.next_op_into(&mut txns);
        match op {
            Some(op) => {
                assert_eq!(kind, Some(op.kind()), "op {n}");
                assert_eq!(txns, op.addrs(), "op {n}");
            }
            None => {
                assert_eq!(kind, None, "op {n}: next_op_into kept going");
                assert!(txns.is_empty(), "the end leaves the buffer empty");
                break;
            }
        }
        n += 1;
    }
    assert_eq!(by_value.next_op(), None);
    assert_eq!(into.next_op_into(&mut txns), None);
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `PackedStream`'s own `next_op_into` against its `next_op`, over
    /// whole and truncated encodings: a cut inside an op's address words
    /// ends both paths at that op.
    #[test]
    fn packed_next_op_into_matches_next_op(
        ops in prop::collection::vec(warp_op(), 0..24),
        cut in 0u64..u64::MAX,
        truncate in 0u8..2,
    ) {
        let mut words = pack(&ops);
        if truncate == 1 {
            words.truncate((cut % (words.len() as u64 + 1)) as usize);
        }
        let whole = words.len() == pack(&ops).len();
        let mut by_value = PackedStream::new(words.clone());
        let mut into = PackedStream::new(words);
        let n = assert_issue_paths_agree(&mut by_value, &mut into);
        if whole {
            prop_assert_eq!(n, ops.len());
        }
        prop_assert!(n <= ops.len());
    }

    /// The provided `next_op_into` of a stream that implements only
    /// `next_op` decodes exactly the ops it returns.
    #[test]
    fn default_next_op_into_decodes_next_op(ops in prop::collection::vec(warp_op(), 0..24)) {
        let mut by_value = OpsOnly(ops.clone().into_iter());
        let mut into = OpsOnly(ops.clone().into_iter());
        prop_assert_eq!(assert_issue_paths_agree(&mut by_value, &mut into), ops.len());
    }
}

#[test]
fn default_next_op_into_clears_a_stale_buffer() {
    let addr = |l: u64| VirtAddr::new(l << 7);
    let mut s = OpsOnly(
        vec![
            WarpOp::Load(vec![addr(1), addr(2)].into()),
            WarpOp::Compute(5),
            WarpOp::Store(vec![addr(3)].into()),
        ]
        .into_iter(),
    );
    let mut txns = vec![addr(9); 40];
    assert_eq!(s.next_op_into(&mut txns), Some(OpKind::Load));
    assert_eq!(txns, [addr(1), addr(2)]);
    assert_eq!(s.next_op_into(&mut txns), Some(OpKind::Compute(5)));
    assert!(txns.is_empty());
    assert_eq!(s.next_op_into(&mut txns), Some(OpKind::Store));
    assert_eq!(txns, [addr(3)]);
    assert_eq!(s.next_op_into(&mut txns), None);
    assert!(txns.is_empty());
}

// ---- block phase counts ----------------------------------------------------

/// The warp-scanning predicates the counted ones replaced, kept as the
/// reference models.
fn scan_is_fully_stalled(b: &BlockContext, trigger: SwitchTrigger) -> bool {
    if !b.started() || b.warps().is_empty() {
        return false;
    }
    let stalled = |p: WarpPhase| match trigger {
        SwitchTrigger::FaultStall => p.is_fault_stalled(),
        SwitchTrigger::AnyStall => p.is_any_stalled(),
    };
    let mut any = false;
    for w in b.warps() {
        if stalled(w.phase()) {
            any = true;
        } else if !w.phase().is_finished() {
            return false;
        }
    }
    any
}

fn scan_is_switch_in_ready(b: &BlockContext) -> bool {
    !b.started() || b.warps().iter().any(|w| w.phase() == WarpPhase::ReadyInactive)
}

fn scan_all_finished(b: &BlockContext) -> bool {
    b.started() && b.warps().iter().all(|w| w.phase().is_finished())
}

const PHASES: [WarpPhase; WarpPhase::COUNT] = [
    WarpPhase::Ready,
    WarpPhase::Computing,
    WarpPhase::MemWait,
    WarpPhase::FaultBlocked,
    WarpPhase::ReadyInactive,
    WarpPhase::Finished,
];

fn assert_counts_match_a_scan(b: &BlockContext) {
    for trigger in [SwitchTrigger::FaultStall, SwitchTrigger::AnyStall] {
        assert_eq!(
            b.is_fully_stalled(trigger),
            scan_is_fully_stalled(b, trigger),
            "{trigger:?} {b:?}"
        );
    }
    assert_eq!(b.is_switch_in_ready(), scan_is_switch_in_ready(b), "{b:?}");
    assert_eq!(b.all_finished(), scan_all_finished(b), "{b:?}");
    for p in PHASES {
        let scanned = b.warps().iter().filter(|w| w.phase() == p).count();
        assert_eq!(b.count(p) as usize, scanned, "{p:?} {b:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random phase walks: before the block starts, after every
    /// `set_phase`, and after it retires, the counted predicates equal the
    /// warp scans. Walks are biased toward the stalled and finished phases
    /// so fully-stalled blocks actually occur.
    #[test]
    fn counted_predicates_match_the_warp_scans(
        warps in 0usize..10,
        moves in prop::collection::vec((0usize..64, prop_oneof![0usize..6, 2usize..4, Just(5usize)]), 0..80),
        retire in 0u8..2,
    ) {
        let mut b = BlockContext::new(BlockId::new(1));
        assert_counts_match_a_scan(&b);
        b.start((0..warps).map(|_| WarpContext::new(Box::new(EmptyStream))).collect());
        assert_counts_match_a_scan(&b);
        for &(w, p) in &moves {
            if warps == 0 {
                break;
            }
            b.set_phase(w % warps, PHASES[p]);
            assert_counts_match_a_scan(&b);
        }
        if retire == 1 {
            let emptied = b.retire();
            prop_assert!(emptied.is_empty());
            assert_counts_match_a_scan(&b);
        }
    }
}
