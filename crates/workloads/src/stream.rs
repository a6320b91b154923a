//! Warp-level stream construction helpers.
//!
//! Kernels build a warp's operation stream through a [`StreamBuilder`], which
//! performs the coalescing a GPU's load/store unit would: consecutive
//! per-lane accesses to the same 128-byte line merge into one transaction,
//! and scattered (divergent) accesses are deduplicated by line and split
//! into at most warp-size transactions per operation.
//!
//! The builder writes the [`PackedStream`] encoding directly: one header
//! word per op, followed by that op's transaction addresses. A finished
//! warp stream is therefore one `Vec<u64>` sized by its transactions, not
//! a vector of full-size [`WarpOp`]s. The builder encodes into a scratch
//! vector shared by the thread's builders, so a finished stream is one
//! allocation of exactly its length.

use crate::layout::ArrayRef;
use batmem_sim::ops::{AccessStream, BoxedStream, PackedHeader, PackedStream, WarpOp};
use batmem_types::VirtAddr;
use std::cell::Cell;

/// Default log2 of the transaction (cache line) size: 128 bytes.
pub const LINE_SHIFT: u32 = 7;

/// Gathers of fewer indices than this always sort-dedup their lines.
const BITMAP_MIN_INDICES: usize = 32;

/// A gather of at least [`BITMAP_MIN_INDICES`] indices coalesces through
/// the line bitmap when its lines span at most this many 64-line bitmap
/// words per index; a sparser gather sort-dedups.
const BITMAP_WORDS_PER_INDEX: u64 = 2;

thread_local! {
    /// Line-id scratch for gathers, shared by every builder on the thread.
    /// A stream is built per warp on the engine's hot path, so the
    /// coalescing working set must not allocate per warp.
    static LINES: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
    /// Line bitmap for wide gathers, one bit per line from the gather's
    /// lowest line. Every word is zero between gathers: the read-back
    /// clears each word as it reads it.
    static BITS: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
    /// Encoding scratch: a builder takes it at creation and puts it back
    /// when dropped. (Two live builders on one thread work; the second
    /// just starts from an empty vector.)
    static WORDS: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

/// Builds one warp's coalesced operation stream.
#[derive(Debug, Clone)]
pub struct StreamBuilder {
    /// The stream so far, in [`PackedStream`] encoding, in the thread's
    /// scratch vector.
    words: Vec<u64>,
    /// Ops encoded so far.
    ops: usize,
    /// Index in `words` of the last op's header while that op is a compute:
    /// the header a following compute merges into.
    last_compute: Option<usize>,
    line_shift: u32,
    warp_size: usize,
}

impl StreamBuilder {
    /// Creates a builder with the default 128-byte line and 32-lane warp.
    pub fn new() -> Self {
        let mut words = WORDS.take();
        words.clear();
        Self { words, ops: 0, last_compute: None, line_shift: LINE_SHIFT, warp_size: 32 }
    }

    /// Appends `cycles` of computation (no-op when zero).
    pub fn compute(&mut self, cycles: u32) -> &mut Self {
        if cycles == 0 {
            return self;
        }
        // Merge adjacent compute ops to keep streams compact.
        if let Some(i) = self.last_compute {
            if let PackedHeader::Compute(c) = PackedHeader::decode(self.words[i]) {
                self.words[i] = PackedHeader::Compute(c.saturating_add(cycles)).encode();
                return self;
            }
        }
        self.last_compute = Some(self.words.len());
        self.words.push(PackedHeader::Compute(cycles).encode());
        self.ops += 1;
        self
    }

    /// Appends one memory op whose transactions are the line ids `lines`.
    fn push_mem(&mut self, store: bool, lines: impl IntoIterator<Item = u64>) {
        let at = self.words.len();
        self.words.push(0); // the header, once the count is known
        let shift = self.line_shift;
        self.words.extend(lines.into_iter().map(|l| l << shift));
        let n = (self.words.len() - at - 1) as u32;
        let header = if store { PackedHeader::Store(n) } else { PackedHeader::Load(n) };
        self.words[at] = header.encode();
        self.ops += 1;
        self.last_compute = None;
    }

    /// Coalesces `addrs` into per-line transactions and appends them as
    /// `store`-or-load ops: one transaction per distinct line, in ascending
    /// order, at most a warp-size of them per op. Hub vertices in power-law
    /// graphs gather tens of thousands of addresses per operation, and
    /// their lines are dense over a narrow span, so a wide gather whose
    /// lines span few bitmap words per index ([`takes_bitmap`]) dedups
    /// through the line bitmap in O(k + span/64); any other gather
    /// sort-dedups in O(k log k). Both give the same lines. The scratch
    /// vectors are thread-locals reused across calls and builders, so the
    /// only allocation is the stream's own word vector. An empty `addrs`
    /// appends nothing (and so does not split adjacent computes).
    fn push_coalesced(&mut self, addrs: impl Iterator<Item = VirtAddr>, store: bool) {
        let mut lines = LINES.take();
        lines.clear();
        let shift = self.line_shift;
        lines.extend(addrs.map(|a| a.line(shift)));
        match bitmap_span(&lines) {
            Some((lo, hi)) => dedup_through_bitmap(&mut lines, lo, hi),
            None => {
                lines.sort_unstable();
                lines.dedup();
            }
        }
        self.words.reserve(lines.len() + lines.len().div_ceil(self.warp_size));
        for chunk in lines.chunks(self.warp_size) {
            self.push_mem(store, chunk.iter().copied());
        }
        LINES.set(lines);
    }

    /// Coalesces `count` consecutive elements starting at `start`
    /// arithmetically: contiguous elements no wider than a line touch every
    /// line from the first element's to the last element's, in ascending
    /// order, so the sort-dedup pass (and its per-element materialization)
    /// can be skipped outright.
    fn push_seq(&mut self, array: &ArrayRef, start: u64, count: u64, store: bool) {
        if count == 0 {
            return;
        }
        let shift = self.line_shift;
        if u64::from(array.elem_bytes()) > (1u64 << shift) {
            // An element wider than a line can skip lines between
            // consecutive element starts; use the general path.
            self.push_coalesced((start..start + count).map(|i| array.addr(i)), store);
            return;
        }
        let first = array.addr(start).line(shift);
        let last = array.addr(start + count - 1).line(shift);
        let warp = self.warp_size as u64;
        let span = last - first + 1;
        self.words.reserve((span + span.div_ceil(warp)) as usize);
        let mut line = first;
        while line <= last {
            let n = (last - line + 1).min(warp);
            self.push_mem(store, line..line + n);
            line += n;
        }
    }

    /// Loads `count` consecutive elements of `array` starting at `start`
    /// (the fully coalesced pattern: one transaction per touched line).
    pub fn load_seq(&mut self, array: &ArrayRef, start: u64, count: u64) -> &mut Self {
        self.push_seq(array, start, count, false);
        self
    }

    /// Stores `count` consecutive elements of `array` starting at `start`.
    pub fn store_seq(&mut self, array: &ArrayRef, start: u64, count: u64) -> &mut Self {
        self.push_seq(array, start, count, true);
        self
    }

    /// Gathers `array[indices]` (the divergent pattern: one transaction per
    /// distinct line, at most a warp-size of transactions per op).
    pub fn load_gather<I>(&mut self, array: &ArrayRef, indices: I) -> &mut Self
    where
        I: IntoIterator<Item = u64>,
    {
        self.push_coalesced(indices.into_iter().map(|i| array.addr(i)), false);
        self
    }

    /// Scatters to `array[indices]`.
    pub fn store_gather<I>(&mut self, array: &ArrayRef, indices: I) -> &mut Self
    where
        I: IntoIterator<Item = u64>,
    {
        self.push_coalesced(indices.into_iter().map(|i| array.addr(i)), true);
        self
    }

    /// Number of ops queued so far.
    pub fn len(&self) -> usize {
        self.ops
    }

    /// Whether no ops are queued.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    /// Finishes the stream, copied out of the scratch at its exact size.
    pub fn build(self) -> BoxedStream {
        Box::new(PackedStream::new(self.words.to_vec()))
    }

    /// Decodes the queued ops (testing).
    pub fn into_ops(self) -> Vec<WarpOp> {
        let mut stream = PackedStream::new(self.words.to_vec());
        std::iter::from_fn(|| stream.next_op()).collect()
    }
}

/// The lowest and highest of a gather's `lines` when the gather coalesces
/// through the line bitmap. Gathers too short for it skip the min-max
/// pass, and so do lines already in order (a symmetrized graph's neighbour
/// runs), which the sort path checks and dedups in one linear pass.
fn bitmap_span(lines: &[u64]) -> Option<(u64, u64)> {
    if lines.len() < BITMAP_MIN_INDICES || lines.is_sorted() {
        return None;
    }
    let (lo, hi) = lines.iter().fold((u64::MAX, 0), |(lo, hi), &l| (lo.min(l), hi.max(l)));
    takes_bitmap(lines.len(), lo, hi).then_some((lo, hi))
}

/// Whether a gather of `k` indices whose lines lie in `lo..=hi` coalesces
/// through the line bitmap: it needs [`BITMAP_MIN_INDICES`] indices and a
/// span of at most [`BITMAP_WORDS_PER_INDEX`] bitmap words per index.
/// The bitmap costs a pass over its words, the sort a log k factor per
/// index, so a short or sparse gather sorts faster (DESIGN.md §9).
fn takes_bitmap(k: usize, lo: u64, hi: u64) -> bool {
    k >= BITMAP_MIN_INDICES && (hi - lo) / 64 < BITMAP_WORDS_PER_INDEX * k as u64
}

/// Leaves the distinct `lines`, all in `lo..=hi`, in ascending order:
/// sets one bit per line in the thread's bitmap scratch, then reads the
/// set bits back over `lines`. Each word is zeroed as it is read, so the
/// scratch is clear again afterwards without a separate pass. The bitmap
/// covers only the gather's own span, so no index can land outside it.
fn dedup_through_bitmap(lines: &mut Vec<u64>, lo: u64, hi: u64) {
    let mut bits = BITS.take();
    let span_words = ((hi - lo) / 64 + 1) as usize;
    if bits.len() < span_words {
        bits.resize(span_words, 0);
    }
    let bits_in_span = &mut bits[..span_words];
    for &line in lines.iter() {
        let off = line - lo;
        bits_in_span[(off / 64) as usize] |= 1 << (off % 64);
    }
    let mut n = 0;
    for (w, word) in bits_in_span.iter_mut().enumerate() {
        let mut set = std::mem::take(word);
        let base = lo + 64 * w as u64;
        while set != 0 {
            lines[n] = base + u64::from(set.trailing_zeros());
            set &= set - 1;
            n += 1;
        }
    }
    lines.truncate(n);
    BITS.set(bits);
}

impl Drop for StreamBuilder {
    fn drop(&mut self) {
        // `try_with`: a builder dropped while the thread's locals are torn
        // down just frees its vector.
        let words = std::mem::take(&mut self.words);
        let _ = WORDS.try_with(|w| w.set(words));
    }
}

impl Default for StreamBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutBuilder;
    use batmem_sim::ops::AddrList;
    use proptest::prelude::*;

    fn array(elem: u32, len: u64) -> ArrayRef {
        LayoutBuilder::new(65_536).array(elem, len)
    }

    #[test]
    fn sequential_u32_loads_coalesce_per_line() {
        let a = array(4, 1000);
        let mut b = StreamBuilder::new();
        b.load_seq(&a, 0, 32); // 32 * 4 B = 128 B = exactly one line
        let ops = b.into_ops();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].addrs().len(), 1);
    }

    #[test]
    fn sequential_u64_loads_take_two_lines() {
        let a = array(8, 1000);
        let mut b = StreamBuilder::new();
        b.load_seq(&a, 0, 32); // 256 B = two lines -> one op, two transactions
        let ops = b.into_ops();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].addrs().len(), 2);
    }

    #[test]
    fn divergent_gather_dedupes_lines_and_chunks() {
        let a = array(4, 100_000);
        let mut b = StreamBuilder::new();
        // 64 indices, 1024 elements apart: 64 distinct lines -> 2 ops of 32.
        b.load_gather(&a, (0..64).map(|i| i * 1024));
        let ops = b.into_ops();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].addrs().len(), 32);
        assert_eq!(ops[1].addrs().len(), 32);
    }

    #[test]
    fn gather_of_same_line_is_one_transaction() {
        let a = array(4, 100);
        let mut b = StreamBuilder::new();
        b.load_gather(&a, [0, 1, 2, 5, 7]);
        let ops = b.into_ops();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].addrs().len(), 1);
    }

    #[test]
    fn compute_merges() {
        let mut b = StreamBuilder::new();
        b.compute(3).compute(4).compute(0);
        let ops = b.into_ops();
        assert_eq!(ops, vec![WarpOp::Compute(7)]);
    }

    #[test]
    fn compute_merges_across_empty_accesses() {
        let a = array(4, 100);
        let mut b = StreamBuilder::new();
        b.compute(3);
        b.load_gather(&a, []).store_seq(&a, 0, 0);
        b.compute(4);
        assert_eq!(b.len(), 1);
        assert_eq!(b.into_ops(), vec![WarpOp::Compute(7)]);
    }

    #[test]
    fn stores_are_stores() {
        let a = array(4, 100);
        let mut b = StreamBuilder::new();
        b.store_seq(&a, 0, 4);
        let ops = b.into_ops();
        assert!(matches!(ops[0], WarpOp::Store(_)));
    }

    #[test]
    fn builder_reports_length() {
        let a = array(4, 100);
        let mut b = StreamBuilder::new();
        assert!(b.is_empty());
        b.load_seq(&a, 0, 1).compute(1);
        assert_eq!(b.len(), 2);
    }

    /// The builder as it was before packing: every op a full [`WarpOp`]
    /// pushed into a `Vec`. Kept as the encoding oracle.
    struct VecBuilder {
        ops: Vec<WarpOp>,
        lines: Vec<u64>,
        line_shift: u32,
        warp_size: usize,
    }

    impl VecBuilder {
        fn new() -> Self {
            Self { ops: Vec::new(), lines: Vec::new(), line_shift: LINE_SHIFT, warp_size: 32 }
        }

        fn compute(&mut self, cycles: u32) {
            if cycles > 0 {
                if let Some(WarpOp::Compute(c)) = self.ops.last_mut() {
                    *c = c.saturating_add(cycles);
                } else {
                    self.ops.push(WarpOp::Compute(cycles));
                }
            }
        }

        fn push_coalesced(&mut self, addrs: impl Iterator<Item = VirtAddr>, store: bool) {
            let mut lines = std::mem::take(&mut self.lines);
            lines.clear();
            let shift = self.line_shift;
            lines.extend(addrs.map(|a| a.line(shift)));
            lines.sort_unstable();
            lines.dedup();
            for chunk in lines.chunks(self.warp_size) {
                let txns: AddrList = chunk.iter().map(|&l| VirtAddr::new(l << shift)).collect();
                self.ops.push(if store { WarpOp::Store(txns) } else { WarpOp::Load(txns) });
            }
            self.lines = lines;
        }

        fn push_seq(&mut self, array: &ArrayRef, start: u64, count: u64, store: bool) {
            if count == 0 {
                return;
            }
            let shift = self.line_shift;
            if u64::from(array.elem_bytes()) > (1u64 << shift) {
                self.push_coalesced((start..start + count).map(|i| array.addr(i)), store);
                return;
            }
            let first = array.addr(start).line(shift);
            let last = array.addr(start + count - 1).line(shift);
            let mut line = first;
            while line <= last {
                let n = (last - line + 1).min(self.warp_size as u64);
                let txns: AddrList = (line..line + n).map(|l| VirtAddr::new(l << shift)).collect();
                self.ops.push(if store { WarpOp::Store(txns) } else { WarpOp::Load(txns) });
                line += n;
            }
        }
    }

    /// Element sizes of the oracle's arrays: sub-line, exactly a line, and
    /// wider than a line (which takes the general coalescing path).
    const ELEM_BYTES: [u32; 5] = [4, 8, 128, 200, 1024];
    const ARRAY_LEN: u64 = 50_000;

    /// One builder call. Gathers carry a seed rather than their indices so
    /// hub-sized cases stay readable when a failure prints them.
    #[derive(Debug, Clone, Copy)]
    enum Call {
        Compute(u32),
        Seq {
            store: bool,
            array: usize,
            start: u64,
            count: u64,
        },
        Gather {
            store: bool,
            array: usize,
            count: u64,
            spread: u64,
            seed: u64,
        },
        /// A gather at the bitmap crossover: `k` indices whose lines span
        /// the widest span [`takes_bitmap`] accepts for `k` (`inside`) or
        /// one line more, or that all sit on one line (`repeat`).
        /// `filtered` hides the index count from the builder.
        Crossover {
            store: bool,
            array: usize,
            k: usize,
            inside: bool,
            repeat: bool,
            filtered: bool,
            first_line: u64,
            seed: u64,
        },
    }

    fn gather_indices(count: u64, spread: u64, seed: u64) -> impl Iterator<Item = u64> {
        (0..count).map(move |i| mix(seed, i) % spread)
    }

    /// Mixes `seed` and `i` into a well-spread 64-bit value.
    fn mix(seed: u64, i: u64) -> u64 {
        let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 29)
    }

    /// The largest index count [`Call::Crossover`] draws.
    const CROSS_MAX_K: usize = BITMAP_MIN_INDICES + 64;
    /// The first line of a crossover gather is below this.
    const CROSS_FIRST_LINES: u64 = 4096;

    /// Arrays large enough for every crossover gather: its lines reach
    /// `CROSS_FIRST_LINES` plus the widest span the rule tests.
    fn crossover_arrays() -> Vec<ArrayRef> {
        let lines = CROSS_FIRST_LINES + 64 * BITMAP_WORDS_PER_INDEX * CROSS_MAX_K as u64 + 1;
        let mut layout = LayoutBuilder::new(65_536);
        ELEM_BYTES.iter().map(|&e| layout.array(e, lines * 128 / u64::from(e) + 2)).collect()
    }

    /// The indices of a crossover gather over `array`, and whether the
    /// rule must send it to the bitmap (`None` where elements wider than a
    /// line cannot land on every line, so its span is only near the
    /// crossover).
    fn crossover_indices(array: &ArrayRef, c: &Call) -> (Vec<u64>, Option<bool>) {
        let Call::Crossover { k, inside, repeat, first_line, seed, .. } = *c else {
            unreachable!("crossover_indices takes a crossover call")
        };
        let widest = 64 * BITMAP_WORDS_PER_INDEX * k as u64 - 1;
        let span = if repeat { 0 } else { widest + u64::from(!inside) };
        let elem = u64::from(array.elem_bytes());
        let idx: Vec<u64> = (0..k as u64)
            .map(|j| {
                let line = first_line
                    + match j {
                        0 => 0,
                        1 => span,
                        _ => mix(seed, j) % (span + 1),
                    };
                // An element on `line`: any sub-line element that starts
                // in it, or the first wider element starting at or after it.
                let first = (line * 128).div_ceil(elem);
                first + mix(seed, !j) % (128 / elem).max(1)
            })
            .collect();
        let exact = 128 % elem == 0;
        (idx, exact.then_some(k >= BITMAP_MIN_INDICES && (repeat || inside)))
    }

    fn call() -> impl Strategy<Value = Call> {
        let compute =
            prop_oneof![Just(0u32), 1u32..100, (u32::MAX - 8)..=u32::MAX].prop_map(Call::Compute);
        let seq = ((0u8..2, 0..ELEM_BYTES.len()), (0..ARRAY_LEN, 0u64..3_000)).prop_map(
            |((store, array), (start, count))| Call::Seq {
                store: store == 1,
                array,
                start,
                count: count.min(ARRAY_LEN - start),
            },
        );
        // Empty, warp-sized and hub-sized gathers, over a few lines or the
        // whole array.
        let gather = (
            (0u8..2, 0..ELEM_BYTES.len()),
            prop_oneof![0u64..3, 3u64..100, 10_000u64..12_000],
            prop_oneof![1u64..64, 1u64..=ARRAY_LEN],
            0u64..u64::MAX,
        )
            .prop_map(|((store, array), count, spread, seed)| Call::Gather {
                store: store == 1,
                array,
                count,
                spread,
                seed,
            });
        // Index counts at the rule's minimum, one either side, and wider.
        let crossover = (
            (0u8..2, 0..ELEM_BYTES.len()),
            prop_oneof![(BITMAP_MIN_INDICES - 1)..=(BITMAP_MIN_INDICES + 1), 2..=CROSS_MAX_K],
            (0u8..2, 0u8..8, 0u8..2),
            (0..CROSS_FIRST_LINES, 0u64..u64::MAX),
        )
            .prop_map(
                |((store, array), k, (inside, repeat, filtered), (first_line, seed))| {
                    Call::Crossover {
                        store: store == 1,
                        array,
                        k,
                        inside: inside == 1,
                        repeat: repeat == 0,
                        filtered: filtered == 1,
                        first_line,
                        seed,
                    }
                },
            );
        prop_oneof![compute, seq, gather, crossover]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn packed_builder_matches_the_vec_builder(
            calls in prop::collection::vec(call(), 0..48)
        ) {
            let mut layout = LayoutBuilder::new(65_536);
            let arrays: Vec<ArrayRef> =
                ELEM_BYTES.iter().map(|&e| layout.array(e, ARRAY_LEN)).collect();
            let wide = crossover_arrays();
            let mut packed = StreamBuilder::new();
            let mut reference = VecBuilder::new();
            for c in &calls {
                match *c {
                    Call::Compute(n) => {
                        packed.compute(n);
                        reference.compute(n);
                    }
                    Call::Seq { store, array, start, count } => {
                        let a = &arrays[array];
                        if store {
                            packed.store_seq(a, start, count);
                        } else {
                            packed.load_seq(a, start, count);
                        }
                        reference.push_seq(a, start, count, store);
                    }
                    Call::Gather { store, array, count, spread, seed } => {
                        let a = &arrays[array];
                        let idx = gather_indices(count, spread, seed);
                        if store {
                            packed.store_gather(a, idx);
                        } else {
                            packed.load_gather(a, idx);
                        }
                        let idx = gather_indices(count, spread, seed);
                        reference.push_coalesced(idx.map(|i| a.addr(i)), store);
                    }
                    Call::Crossover { store, array, filtered, .. } => {
                        let a = &wide[array];
                        let (idx, bitmap) = crossover_indices(a, c);
                        if let Some(bitmap) = bitmap {
                            let lines = idx.iter().map(|&i| a.addr(i).line(LINE_SHIFT));
                            let lo = lines.clone().min().expect("k >= 2");
                            let hi = lines.max().expect("k >= 2");
                            prop_assert_eq!(takes_bitmap(idx.len(), lo, hi), bitmap);
                        }
                        let indices = idx.iter().copied();
                        match (store, filtered) {
                            (false, false) => packed.load_gather(a, indices),
                            (true, false) => packed.store_gather(a, indices),
                            (false, true) => packed.load_gather(a, indices.filter(|_| true)),
                            (true, true) => packed.store_gather(a, indices.filter(|_| true)),
                        };
                        reference.push_coalesced(idx.iter().map(|&i| a.addr(i)), store);
                    }
                }
                prop_assert_eq!(packed.len(), reference.ops.len());
            }
            let mut built = packed.clone().build();
            let drained: Vec<WarpOp> = std::iter::from_fn(|| built.next_op()).collect();
            prop_assert_eq!(&drained, &reference.ops);
            prop_assert_eq!(packed.into_ops(), reference.ops);
        }
    }
}
