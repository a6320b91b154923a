//! Warp-level stream construction helpers.
//!
//! Kernels build a warp's operation stream through a [`StreamBuilder`], which
//! performs the coalescing a GPU's load/store unit would: consecutive
//! per-lane accesses to the same 128-byte line merge into one transaction,
//! and scattered (divergent) accesses are deduplicated by line and split
//! into at most warp-size transactions per operation.
//!
//! The builder writes the [`PackedStream`] layout directly, through a
//! [`PackedWriter`] in units of one line: each op opens with a byte or a
//! few, its first line is a small delta from the previous op's, and every
//! further transaction is a one- or two-byte offset from that first line.
//! A finished warp stream is therefore one byte vector sized by its
//! transactions, not a vector of full-size [`WarpOp`]s. The builder
//! encodes into the thread's scratch writer ([`PackedWriter::scratch`]),
//! so a finished stream is one allocation of exactly its length.
//!
//! A warp that owns many work items (a vertex or a worklist entry per
//! thread) finishes its builder with [`StreamBuilder::each_item`]: the
//! stream then holds the warp's prologue and fabricates one item at a time
//! as the warp issues, so a live stream holds what its warp is issuing
//! rather than all it will do.
//!
//! [`PackedStream`]: batmem_sim::ops::PackedStream
//! [`WarpOp`]: batmem_sim::ops::WarpOp

use crate::layout::ArrayRef;
use batmem_sim::ops::{BoxedStream, Items, PackedWriter};
use batmem_types::VirtAddr;
use std::borrow::BorrowMut;
use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;

/// Default log2 of the transaction (cache line) size: 128 bytes.
pub const LINE_SHIFT: u32 = 7;

/// Lanes per warp: the most transactions one coalesced op carries.
const WARP_SIZE: usize = 32;

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
}

/// Builds one warp's coalesced operation stream.
///
/// A builder owns its writer (`StreamBuilder`, over the thread's scratch),
/// or borrows the writer of a stream that is fabricating a work item
/// ([`ItemBuilder`], what [`StreamBuilder::each_item`]'s closure gets).
/// Both append the same ops.
#[derive(Debug, Clone)]
pub struct StreamBuilder<W = PackedWriter> {
    /// The stream so far, in line units.
    out: W,
}

/// A builder over the writer of a stream fabricating a work item.
pub type ItemBuilder<'a> = StreamBuilder<&'a mut PackedWriter>;

impl StreamBuilder {
    /// Creates a builder with the default 128-byte line and 32-lane warp,
    /// over the thread's scratch writer. [`StreamBuilder::build`] and
    /// [`StreamBuilder::each_item`] hand the scratch back; a builder
    /// dropped unfinished just frees it.
    pub fn new() -> Self {
        Self { out: PackedWriter::scratch(LINE_SHIFT) }
    }

    /// Finishes the stream, copied out of the scratch at its exact size.
    pub fn build(self) -> BoxedStream {
        let stream = self.out.to_stream();
        self.out.recycle();
        Box::new(stream)
    }

    /// Finishes the stream as the ops so far (the warp's prologue) and
    /// one work item per index in `items`: `item(shared, b, i, last)`
    /// appends item `i`'s ops to `b`, where `last` marks the warp's final
    /// item (a kernel appends its epilogue there). The first item is built
    /// here with the prologue, and both are copied out at their exact
    /// size; the stream fabricates each later item only once the warp has
    /// issued every op before it, into the same bytes, which grow when an
    /// item does not fit. It issues exactly the ops that building every
    /// item here and calling [`StreamBuilder::build`] would: a trailing
    /// compute merges with the next item's first, and the delta base
    /// carries across items. With at most one item the stream is whole;
    /// otherwise it holds a clone of `shared` until its last item is
    /// written. Like a warp stream, `item` must be a pure function of its
    /// arguments and of what it owns.
    pub fn each_item<S, F>(
        mut self,
        shared: &Arc<S>,
        mut items: Range<u64>,
        mut item: F,
    ) -> BoxedStream
    where
        S: Send + Sync + 'static,
        F: FnMut(&S, &mut ItemBuilder<'_>, u64, bool) + Send + 'static,
    {
        let Some(first) = items.next() else { return self.build() };
        item(shared, &mut StreamBuilder { out: &mut self.out }, first, items.is_empty());
        if items.is_empty() {
            return self.build();
        }
        let stream = self.out.to_stream_with(EachItem { shared: Arc::clone(shared), items, item });
        self.out.recycle();
        Box::new(stream)
    }
}

impl<W: BorrowMut<PackedWriter>> StreamBuilder<W> {
    /// Appends `cycles` of computation (no-op when zero).
    pub fn compute(&mut self, cycles: u32) -> &mut Self {
        // Merge adjacent compute ops to keep streams compact.
        if cycles > 0 {
            self.out.borrow_mut().merge_compute(cycles);
        }
        self
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
    /// only allocation is the stream's own byte vector. An empty `addrs`
    /// appends nothing (and so does not split adjacent computes).
    fn push_coalesced(&mut self, addrs: impl Iterator<Item = VirtAddr>, store: bool) {
        let mut lines = LINES.take();
        lines.clear();
        lines.extend(addrs.map(|a| a.line(LINE_SHIFT)));
        match bitmap_span(&lines) {
            Some((lo, hi)) => dedup_through_bitmap(&mut lines, lo, hi),
            None => {
                lines.sort_unstable();
                lines.dedup();
            }
        }
        for chunk in lines.chunks(WARP_SIZE) {
            // Sorted, so the first line is the lowest and the last the
            // highest.
            let (first, last) = (chunk[0], chunk[chunk.len() - 1]);
            let offsets = chunk[1..].iter().map(|&l| l - first);
            self.out.borrow_mut().mem(store, first, last - first, offsets);
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
        if u64::from(array.elem_bytes()) > (1u64 << LINE_SHIFT) {
            // An element wider than a line can skip lines between
            // consecutive element starts; use the general path.
            self.push_coalesced((start..start + count).map(|i| array.addr(i)), store);
            return;
        }
        let first = array.addr(start).line(LINE_SHIFT);
        let last = array.addr(start + count - 1).line(LINE_SHIFT);
        let mut line = first;
        while line <= last {
            // The op's lines are `line..=line + span`, so its offsets are
            // 1 to `span`: no scan needed.
            let span = (last - line).min(WARP_SIZE as u64 - 1);
            let offsets = (0..span as usize).map(|o| o as u64 + 1);
            self.out.borrow_mut().mem(store, line, span, offsets);
            line += span + 1;
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
        self.out.borrow().len()
    }

    /// Whether no ops are queued.
    pub fn is_empty(&self) -> bool {
        self.out.borrow().is_empty()
    }
}

/// The items of a stream finished by [`StreamBuilder::each_item`].
struct EachItem<S, F> {
    shared: Arc<S>,
    items: Range<u64>,
    item: F,
}

impl<S, F: FnMut(&S, &mut ItemBuilder<'_>, u64, bool)> Items for EachItem<S, F> {
    #[inline]
    fn write_next(&mut self, out: &mut PackedWriter) -> bool {
        let Some(i) = self.items.next() else { return false };
        (self.item)(&self.shared, &mut StreamBuilder { out }, i, self.items.is_empty());
        true
    }
}

/// The span of `items` from the first for which `active` holds to the
/// last (empty when it holds for none). A kernel whose other items append
/// no ops fabricates only this span, so a warp with no active item is
/// whole at its prologue.
pub(crate) fn active_span(items: Range<u64>, active: impl Fn(u64) -> bool) -> Range<u64> {
    let Some(first) = items.clone().find(|&i| active(i)) else { return items.end..items.end };
    let last = items.rev().find(|&i| active(i)).unwrap_or(first);
    first..last + 1
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

impl Default for StreamBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutBuilder;
    use batmem_sim::ops::{AddrList, OpKind, WarpOp};
    use proptest::prelude::*;

    fn array(elem: u32, len: u64) -> ArrayRef {
        LayoutBuilder::new(65_536).array(elem, len)
    }

    /// The ops `b` built, drained by value.
    fn ops(b: StreamBuilder) -> Vec<WarpOp> {
        let mut stream = b.build();
        std::iter::from_fn(|| stream.next_op()).collect()
    }

    #[test]
    fn sequential_u32_loads_coalesce_per_line() {
        let a = array(4, 1000);
        let mut b = StreamBuilder::new();
        b.load_seq(&a, 0, 32); // 32 * 4 B = 128 B = exactly one line
        let ops = ops(b);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].addrs().len(), 1);
    }

    #[test]
    fn sequential_u64_loads_take_two_lines() {
        let a = array(8, 1000);
        let mut b = StreamBuilder::new();
        b.load_seq(&a, 0, 32); // 256 B = two lines -> one op, two transactions
        let ops = ops(b);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].addrs().len(), 2);
    }

    #[test]
    fn divergent_gather_dedupes_lines_and_chunks() {
        let a = array(4, 100_000);
        let mut b = StreamBuilder::new();
        // 64 indices, 1024 elements apart: 64 distinct lines -> 2 ops of 32.
        b.load_gather(&a, (0..64).map(|i| i * 1024));
        let ops = ops(b);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].addrs().len(), 32);
        assert_eq!(ops[1].addrs().len(), 32);
    }

    #[test]
    fn gather_of_same_line_is_one_transaction() {
        let a = array(4, 100);
        let mut b = StreamBuilder::new();
        b.load_gather(&a, [0, 1, 2, 5, 7]);
        let ops = ops(b);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].addrs().len(), 1);
    }

    #[test]
    fn compute_merges() {
        let mut b = StreamBuilder::new();
        b.compute(3).compute(4).compute(0);
        let ops = ops(b);
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
        assert_eq!(ops(b), vec![WarpOp::Compute(7)]);
    }

    #[test]
    fn stores_are_stores() {
        let a = array(4, 100);
        let mut b = StreamBuilder::new();
        b.store_seq(&a, 0, 4);
        let ops = ops(b);
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

    /// Encoded lengths of canonical shapes, pinned where streams are
    /// built, so a layout that spends a word per transaction fails here
    /// first. Every stream opens with its one-byte unit shift; the array
    /// starts at address 0, so its first line's delta is one byte.
    #[test]
    fn canonical_shapes_pin_their_encoded_length() {
        fn len(shape: impl Fn(&mut StreamBuilder) -> &mut StreamBuilder) -> usize {
            let mut b = StreamBuilder::new();
            shape(&mut b);
            b.out.to_stream().as_bytes().len()
        }
        let a = array(4, 40_000);
        assert_eq!(len(|b| b.compute(4)), 1 + 1, "cycles in the header byte");
        assert_eq!(
            len(|b| b.compute(u32::MAX - 1).compute(5)),
            1 + 1 + 4,
            "merged computes saturate, and their cycles follow as a u32"
        );
        assert_eq!(len(|b| b.load_seq(&a, 0, 1)), 1 + 2, "a header and a delta");
        // Header, count and delta, then a one-byte offset per further line.
        assert_eq!(len(|b| b.load_seq(&a, 0, 32 * 32)), 1 + 3 + 31);
        assert_eq!(len(|b| b.load_gather(&a, (0..32).map(|i| i * 8 * 32))), 1 + 3 + 31);
        // A hub: 10,000 indices on 938 lines, 29 ops of 32 and one of 10.
        let hub = len(|b| b.load_gather(&a, (0..10_000).map(|i| i * 3)));
        assert_eq!(hub, 1 + 29 * (3 + 31) + (3 + 9));
    }

    /// The builder as it was before packing: every op a full [`WarpOp`]
    /// pushed into a `Vec`. Kept as the encoding oracle.
    struct VecBuilder {
        ops: Vec<WarpOp>,
        lines: Vec<u64>,
    }

    impl VecBuilder {
        fn new() -> Self {
            Self { ops: Vec::new(), lines: Vec::new() }
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
            lines.extend(addrs.map(|a| a.line(LINE_SHIFT)));
            lines.sort_unstable();
            lines.dedup();
            for chunk in lines.chunks(WARP_SIZE) {
                let txns: AddrList =
                    chunk.iter().map(|&l| VirtAddr::new(l << LINE_SHIFT)).collect();
                self.ops.push(if store { WarpOp::Store(txns) } else { WarpOp::Load(txns) });
            }
            self.lines = lines;
        }

        fn push_seq(&mut self, array: &ArrayRef, start: u64, count: u64, store: bool) {
            if count == 0 {
                return;
            }
            if u64::from(array.elem_bytes()) > (1u64 << LINE_SHIFT) {
                self.push_coalesced((start..start + count).map(|i| array.addr(i)), store);
                return;
            }
            let first = array.addr(start).line(LINE_SHIFT);
            let last = array.addr(start + count - 1).line(LINE_SHIFT);
            let mut line = first;
            while line <= last {
                let n = (last - line + 1).min(WARP_SIZE as u64);
                let txns: AddrList =
                    (line..line + n).map(|l| VirtAddr::new(l << LINE_SHIFT)).collect();
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

    fn compute_call() -> impl Strategy<Value = Call> {
        prop_oneof![Just(0u32), 1u32..100, (u32::MAX - 8)..=u32::MAX].prop_map(Call::Compute)
    }

    fn seq_call() -> impl Strategy<Value = Call> {
        ((0u8..2, 0..ELEM_BYTES.len()), (0..ARRAY_LEN, 0u64..3_000)).prop_map(
            |((store, array), (start, count))| Call::Seq {
                store: store == 1,
                array,
                start,
                count: count.min(ARRAY_LEN - start),
            },
        )
    }

    /// Empty, warp-sized and hub-sized gathers, over a few lines or the
    /// whole array.
    fn gather_call() -> impl Strategy<Value = Call> {
        (
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
            })
    }

    fn call() -> impl Strategy<Value = Call> {
        let (compute, seq, gather) = (compute_call(), seq_call(), gather_call());
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
            prop_assert_eq!(ops(packed), reference.ops);
        }
    }

    /// Appends `call`, a compute, sequential or gather call over `arrays`.
    fn apply<W: BorrowMut<PackedWriter>>(
        b: &mut StreamBuilder<W>,
        arrays: &[ArrayRef],
        call: &Call,
    ) {
        match *call {
            Call::Compute(n) => {
                b.compute(n);
            }
            Call::Seq { store: false, array, start, count } => {
                b.load_seq(&arrays[array], start, count);
            }
            Call::Seq { store: true, array, start, count } => {
                b.store_seq(&arrays[array], start, count);
            }
            Call::Gather { store, array, count, spread, seed } => {
                let idx = gather_indices(count, spread, seed);
                if store {
                    b.store_gather(&arrays[array], idx);
                } else {
                    b.load_gather(&arrays[array], idx);
                }
            }
            Call::Crossover { .. } => unreachable!("items take no crossover calls"),
        }
    }

    fn item_arrays() -> Vec<ArrayRef> {
        let mut layout = LayoutBuilder::new(65_536);
        ELEM_BYTES.iter().map(|&e| layout.array(e, ARRAY_LEN)).collect()
    }

    /// A warp whose `prologue` is built up front and whose `items` are
    /// fabricated one at a time, and the same calls built whole. The last
    /// item also appends `epilogue`, as a kernel's closing stores do.
    fn item_and_whole(
        prologue: &[Call],
        items: &[Vec<Call>],
        epilogue: &[Call],
    ) -> (BoxedStream, BoxedStream) {
        let arrays = item_arrays();
        let mut whole = StreamBuilder::new();
        let closing = if items.is_empty() { &[] } else { epilogue };
        for c in prologue.iter().chain(items.iter().flatten()).chain(closing) {
            apply(&mut whole, &arrays, c);
        }
        let whole = whole.build();
        // A kernel's epilogue rides on its last item: no items, no epilogue.
        let epilogue = if items.is_empty() { &[] } else { epilogue };
        let mut lazy = StreamBuilder::new();
        for c in prologue {
            apply(&mut lazy, &arrays, c);
        }
        let calls = Arc::new((items.to_vec(), epilogue.to_vec(), arrays));
        let lazy = lazy.each_item(&calls, 0..items.len() as u64, |calls, b, i, last| {
            let (items, epilogue, arrays) = calls;
            for c in &items[i as usize] {
                apply(b, arrays, c);
            }
            if last {
                for c in epilogue {
                    apply(b, arrays, c);
                }
            }
        });
        (lazy, whole)
    }

    /// The ops `s` issues through `next_op`.
    fn drain(mut s: BoxedStream) -> Vec<WarpOp> {
        std::iter::from_fn(|| s.next_op()).collect()
    }

    /// The ops `s` issues through `next_op_into`, each with its
    /// transactions.
    fn drain_into(mut s: BoxedStream) -> Vec<(OpKind, Vec<VirtAddr>)> {
        let mut txns = vec![VirtAddr::new(1)];
        let mut ops = Vec::new();
        while let Some(kind) = s.next_op_into(&mut txns) {
            ops.push((kind, txns.clone()));
        }
        assert!(txns.is_empty(), "the end leaves the buffer empty");
        assert_eq!(s.next_op_into(&mut txns), None, "the end is final");
        ops
    }

    /// Fabricating per item issues exactly the whole-built ops, through
    /// both issue paths; returns them.
    fn assert_items_match_whole(
        prologue: &[Call],
        items: &[Vec<Call>],
        epilogue: &[Call],
    ) -> Vec<WarpOp> {
        let (lazy, whole) = item_and_whole(prologue, items, epilogue);
        let want = drain(whole);
        assert_eq!(drain(lazy), want, "next_op");
        let (lazy, _) = item_and_whole(prologue, items, epilogue);
        let by_kind: Vec<_> = want.iter().map(|op| (op.kind(), op.addrs().to_vec())).collect();
        assert_eq!(drain_into(lazy), by_kind, "next_op_into");
        want
    }

    fn load(array: usize, start: u64, count: u64) -> Call {
        Call::Seq { store: false, array, start, count }
    }

    #[test]
    fn computes_merge_across_item_boundaries() {
        // GC's degree-0 vertices that are not colored this round append
        // only a compute, so a run of them is one op.
        let ops = assert_items_match_whole(
            &[load(0, 0, 32), Call::Compute(4)],
            &[
                vec![Call::Compute(4)],
                vec![Call::Compute(4)],
                vec![load(0, 4096, 1), Call::Compute(3)],
                vec![Call::Compute(2)],
                vec![load(1, 64, 8)],
            ],
            &[],
        );
        let kinds: Vec<OpKind> = ops.iter().map(WarpOp::kind).collect();
        assert_eq!(
            kinds,
            [OpKind::Load, OpKind::Compute(12), OpKind::Load, OpKind::Compute(5), OpKind::Load]
        );
    }

    #[test]
    fn items_that_append_nothing_are_skipped() {
        let ops = assert_items_match_whole(
            &[],
            &[
                vec![],
                vec![load(0, 0, 1), Call::Compute(2)],
                vec![],
                vec![Call::Compute(0)],
                vec![],
                vec![load(0, 40_000, 1)],
                vec![],
            ],
            &[],
        );
        assert_eq!(ops.len(), 3);
    }

    #[test]
    fn a_warp_without_item_ops_issues_its_prologue() {
        assert!(assert_items_match_whole(&[], &[], &[]).is_empty());
        assert!(assert_items_match_whole(&[], &[vec![], vec![]], &[]).is_empty());
        let ops = assert_items_match_whole(&[load(2, 0, 1)], &[], &[]);
        assert_eq!(ops.len(), 1);
    }

    #[test]
    fn a_stream_may_end_in_a_compute() {
        // The last item's compute closes the stream, after a trailing empty
        // item, and merges with an epilogue's.
        let ops = assert_items_match_whole(
            &[load(0, 0, 1)],
            &[vec![Call::Compute(7)], vec![load(0, 9_000, 1), Call::Compute(1)], vec![]],
            &[Call::Compute(u32::MAX - 2), Call::Compute(5)],
        );
        assert_eq!(ops.last(), Some(&WarpOp::Compute(u32::MAX)), "merged computes saturate");
        let ops = assert_items_match_whole(&[Call::Compute(3)], &[vec![Call::Compute(4)]], &[]);
        assert_eq!(ops, [WarpOp::Compute(7)]);
    }

    #[test]
    fn the_last_item_appends_the_epilogue() {
        let store = Call::Seq { store: true, array: 3, start: 0, count: 1 };
        let ops = assert_items_match_whole(
            &[load(0, 0, 1)],
            &[vec![load(1, 0, 1)], vec![], vec![load(1, 500, 1)]],
            &[store],
        );
        assert!(matches!(ops.last(), Some(WarpOp::Store(_))));
        assert_eq!(ops.len(), 4);
    }

    fn item_call() -> impl Strategy<Value = Call> {
        // Mostly computes, so that items often append only a compute.
        prop_oneof![compute_call(), compute_call(), compute_call(), seq_call(), gather_call()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Any prologue, items and epilogue: the ops issued per item, by
        /// value and into a buffer, are the whole-built ops.
        #[test]
        fn items_issue_the_whole_built_ops(
            prologue in prop::collection::vec(item_call(), 0..4),
            items in prop::collection::vec(prop::collection::vec(item_call(), 0..4), 0..12),
            epilogue in prop::collection::vec(item_call(), 0..3),
        ) {
            assert_items_match_whole(&prologue, &items, &epilogue);
        }
    }
}
