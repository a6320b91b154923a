//! The warp-level operation vocabulary and workload description traits.
//!
//! Workloads are modeled as **access streams**: each warp executes a lazy
//! sequence of [`WarpOp`]s — compute delays and coalesced memory operations.
//! This captures exactly the behaviour demand paging responds to (which
//! addresses are touched, in what order, with what divergence) while
//! abstracting per-instruction pipeline details (see DESIGN.md,
//! "Substitutions"). Streams are stored packed ([`PackedStream`]: a
//! header of one to six bytes per op, and each transaction after an op's
//! first as a one- or two-byte offset from it), and a warp that owns many
//! work items fabricates them one at a time as it issues ([`Items`]).
//! The engine issues each op
//! through [`AccessStream::next_op_into`], which writes its transactions
//! into a buffer the caller owns; a [`WarpOp`] is built only where a
//! caller asks for one by value ([`AccessStream::next_op`]).

use batmem_types::{BlockId, KernelId, VirtAddr};
use std::cell::Cell;

/// Transactions an [`AddrList`] stores without heap allocation: one warp's
/// worth, which is the most a 32-lane coalescer emits per operation.
pub const INLINE_TXNS: usize = 32;

/// A coalesced memory operation's transaction addresses, as a by-value
/// [`WarpOp`] carries them.
///
/// Up to [`INLINE_TXNS`] entries live inline — the stream builders chunk
/// coalesced transactions at warp size, so every op they emit takes the
/// inline path and decoding one through [`AccessStream::next_op`] does not
/// allocate. Wider lists (hand-built streams) spill to a heap vector
/// transparently. The engine does not use this type: it issues through
/// [`AccessStream::next_op_into`] into a recycled buffer.
#[derive(Clone)]
pub struct AddrList(Repr);

// The size asymmetry is the point: the inline variant IS the intended
// storage. An op of this size exists only transiently, at the `next_op`
// boundary (tests, stream wrappers), so it is never stored in bulk; the
// malloc/free pair a heap list would cost per decode is what it saves.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [VirtAddr; INLINE_TXNS] },
    Heap(Vec<VirtAddr>),
}

impl AddrList {
    /// The transactions as a slice.
    pub fn as_slice(&self) -> &[VirtAddr] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }
}

impl std::ops::Deref for AddrList {
    type Target = [VirtAddr];

    fn deref(&self) -> &[VirtAddr] {
        self.as_slice()
    }
}

impl PartialEq for AddrList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for AddrList {}

impl std::fmt::Debug for AddrList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl FromIterator<VirtAddr> for AddrList {
    fn from_iter<I: IntoIterator<Item = VirtAddr>>(iter: I) -> Self {
        let mut buf = [VirtAddr::default(); INLINE_TXNS];
        let mut len = 0usize;
        let mut iter = iter.into_iter();
        for a in iter.by_ref() {
            if len == INLINE_TXNS {
                // Spill: keep what's inline, then extend on the heap.
                let mut v = Vec::with_capacity(INLINE_TXNS * 2);
                v.extend_from_slice(&buf);
                v.push(a);
                v.extend(iter);
                return Self(Repr::Heap(v));
            }
            buf[len] = a;
            len += 1;
        }
        Self(Repr::Inline { len: len as u8, buf })
    }
}

impl From<Vec<VirtAddr>> for AddrList {
    fn from(v: Vec<VirtAddr>) -> Self {
        if v.len() <= INLINE_TXNS {
            let mut buf = [VirtAddr::default(); INLINE_TXNS];
            buf[..v.len()].copy_from_slice(&v);
            Self(Repr::Inline { len: v.len() as u8, buf })
        } else {
            Self(Repr::Heap(v))
        }
    }
}

/// One warp-level operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarpOp {
    /// `cycles` of computation before the next operation can issue.
    Compute(u32),
    /// A coalesced load: one entry per distinct memory transaction the
    /// warp's 32 lanes generate (1 for a fully coalesced access, up to 32
    /// for fully divergent scatter/gather).
    Load(AddrList),
    /// A coalesced store; timing-wise identical to a load in this model
    /// (write-allocate), tracked separately for statistics.
    Store(AddrList),
}

impl WarpOp {
    /// The addresses this op touches (empty for compute).
    pub fn addrs(&self) -> &[VirtAddr] {
        match self {
            WarpOp::Compute(_) => &[],
            WarpOp::Load(a) | WarpOp::Store(a) => a.as_slice(),
        }
    }

    /// Whether this is a memory operation.
    pub fn is_mem(&self) -> bool {
        !matches!(self, WarpOp::Compute(_))
    }

    /// The op without its addresses.
    pub fn kind(&self) -> OpKind {
        match self {
            WarpOp::Compute(c) => OpKind::Compute(*c),
            WarpOp::Load(_) => OpKind::Load,
            WarpOp::Store(_) => OpKind::Store,
        }
    }
}

/// What [`AccessStream::next_op_into`] issued: a [`WarpOp`] whose
/// transactions went to the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `cycles` of computation; the buffer is left empty.
    Compute(u32),
    /// A load of the buffer's transactions.
    Load,
    /// A store to the buffer's transactions.
    Store,
}

/// A lazy per-warp instruction stream.
///
/// Implementations are single-pass iterators. The engine calls
/// [`AccessStream::next_op_into`] each time the warp is ready to issue;
/// a stream that implements only [`AccessStream::next_op`] gets it by
/// decoding that op. A stream may fabricate its ops as they are asked for
/// (a [`PackedStream`] with [`Items`] writes the warp's next work item at
/// issue), so either method may do the work of building ops; the ops
/// themselves must still depend only on the warp, never on when or in
/// what order the calls come.
pub trait AccessStream {
    /// Produces the warp's next operation, or `None` when the warp has
    /// retired all its work.
    fn next_op(&mut self) -> Option<WarpOp>;

    /// Produces the same op as [`AccessStream::next_op`] without building
    /// it by value: clears `txns`, writes a memory op's transactions into
    /// it in order, and returns the op's kind (`None` at the end, with
    /// `txns` empty).
    fn next_op_into(&mut self, txns: &mut Vec<VirtAddr>) -> Option<OpKind> {
        txns.clear();
        let op = self.next_op()?;
        txns.extend_from_slice(op.addrs());
        Some(op.kind())
    }
}

/// A boxed access stream, as returned by [`Kernel::warp_stream`].
pub type BoxedStream = Box<dyn AccessStream + Send>;

/// The launch geometry of one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSpec {
    /// Thread blocks in the grid.
    pub num_blocks: u32,
    /// Threads per block (a multiple of the warp size).
    pub threads_per_block: u32,
    /// Registers each thread uses (drives occupancy and context-switch
    /// cost; most GraphBIG kernels use more than 16, which is what makes
    /// baseline VT inapplicable without full context switching — §4.1).
    pub regs_per_thread: u32,
}

impl KernelSpec {
    /// Warps per block for the given warp size.
    ///
    /// # Panics
    ///
    /// Panics if `threads_per_block` is not a positive multiple of
    /// `warp_size`.
    pub fn warps_per_block(&self, warp_size: u32) -> u32 {
        assert!(
            self.threads_per_block > 0 && self.threads_per_block.is_multiple_of(warp_size),
            "threads_per_block {} must be a positive multiple of warp size {}",
            self.threads_per_block,
            warp_size
        );
        self.threads_per_block / warp_size
    }
}

/// One kernel of a workload: geometry plus per-warp stream construction.
///
/// The `Send + Sync` bound lets callers share a kernel across threads; the
/// engine itself builds and consumes every stream on its one event-loop
/// thread.
pub trait Kernel: Send + Sync {
    /// The kernel's launch geometry.
    fn spec(&self) -> KernelSpec;

    /// Builds the access stream of warp `warp_in_block` of `block`.
    ///
    /// The engine calls this exactly once per warp, when the block is
    /// first activated. The stream may defer fabricating ops until they
    /// issue (see [`AccessStream`]). Implementations must be pure functions
    /// of `(block, warp_in_block)`: the stream's contents, whenever they
    /// are fabricated, may not depend on call order or timing.
    fn warp_stream(&self, block: BlockId, warp_in_block: u16) -> BoxedStream;
}

/// A complete workload: an ordered sequence of kernel launches over a fixed
/// virtual-memory layout.
pub trait Workload: Send {
    /// Short display name (e.g. `"BFS-TTC"`).
    fn name(&self) -> String;

    /// Total bytes of device-visible data the workload touches (its memory
    /// footprint, used to size GPU memory for oversubscription ratios).
    fn footprint_bytes(&self) -> u64;

    /// Number of kernels launched, in order.
    fn num_kernels(&self) -> u32;

    /// Builds kernel `k`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `k >= num_kernels()`.
    fn kernel(&self, k: KernelId) -> Box<dyn Kernel>;
}

/// The kind of an op, in the low two bits of its first byte.
const COMPUTE: u8 = 0;
const LOAD: u8 = 1;
const STORE: u8 = 2;

/// A compute byte's cycle field (its upper six bits) that says the cycles
/// follow as a `u32`; any smaller field is the cycle count itself.
const CYCLES_FOLLOW: u8 = 63;

/// A memory op's count class, in the top two bits of its first byte: one
/// transaction, or a count in the next byte or in the next four.
const ONE_TXN: u8 = 0;
const COUNT_U8: u8 = 1;
const COUNT_U32: u8 = 2;

/// The code of the narrowest width that holds `v`: a delta or an offset
/// of code `c` takes `1 << c` bytes, so 1, 2, 4 or 8.
fn width_code(v: u64) -> u8 {
    match v {
        0..=0xff => 0,
        0x100..=0xffff => 1,
        0x1_0000..=0xffff_ffff => 2,
        _ => 3,
    }
}

/// Appends the low `W` bytes of `v`, little-endian.
fn put_le<const W: usize>(out: &mut Vec<u8>, v: u64) {
    debug_assert!(W == 8 || v >> (8 * W) == 0, "{v} does not fit {W} bytes");
    out.extend_from_slice(&v.to_le_bytes()[..W]);
}

/// Reads `W` little-endian bytes.
fn le<const W: usize>(bytes: &[u8; W]) -> u64 {
    let mut word = [0; 8];
    word[..W].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// A signed delta, `v` read as an `i64`, with its sign in the low bit, so
/// that small deltas of either sign are small numbers.
fn zigzag(v: u64) -> u64 {
    let d = v as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// The inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// A warp's access stream packed into one byte vector.
///
/// Addresses are stored in units of `1 << shift` bytes, where `shift` is
/// the stream's first byte (7, one 128-byte line, in the streams the
/// workloads build). Each op then starts with one byte whose low two bits
/// give its kind. A compute keeps its cycles in that byte's other six bits,
/// or in the four bytes after it. A memory op stores its first
/// transaction as a zigzag delta from the previous memory op's first (0
/// before the first one), then each further transaction as an offset from
/// its own first, in the narrowest of 1, 2, 4 or 8 bytes that holds the
/// op's largest offset:
///
/// ```text
/// stream   = [shift] op*
/// compute  = [c << 2 | 0]                              cycles c < 63
///          | [63 << 2 | 0] [cycles: 4]
/// memory   = [class << 6 | w << 4 | d << 2 | kind]     kind 1 load, 2 store
///            [n: 1 if class 1, 4 if class 2]           class 0: n = 1
///            [zigzag(first - previous first): W(d)]
///            [unit - first: W(w)] x (n - 1)            W(0..=3) = 1, 2, 4, 8
/// ```
///
/// Multi-byte fields are little-endian, and unit arithmetic wraps, so any
/// addresses round-trip. A warp's lines ascend within an op and its ops
/// walk a few arrays, so a transaction takes a byte or two and an op's
/// header two to six, where a `u64` word each would take eight.
/// [`PackedWriter`] writes this layout. Both [`AccessStream`] methods read
/// it through one decoder. A stream that starts with a shift of 64 or
/// more is empty, and a truncated or malformed op ends the stream: that
/// call and every later one return `None`.
///
/// A whole stream (`PackedStream<NoItems>`, the default) holds every op of
/// its warp from the start, at its exact size. A stream with [`Items`]
/// holds only its pending ops, and once every pending op has issued it
/// writes the warp's next work item into the same byte vector, which
/// grows (as a `Vec` grows) only when an item does not fit. An item's
/// trailing compute stays open until the next item is written, since that
/// item's first compute merges into it, and the delta base carries across
/// items: the ops a stream issues are the ops of its items written one
/// after another by one [`PackedWriter`].
#[derive(Debug, Clone)]
pub struct PackedStream<I = NoItems> {
    /// The shift byte, then the pending ops.
    bytes: Vec<u8>,
    /// The next op's first byte.
    pos: usize,
    /// The previous memory op's first transaction, in units.
    base: u64,
    /// The items not yet fabricated; `None` once every item has been
    /// (always, for a whole stream).
    items: Option<I>,
}

/// The work items of a warp whose [`PackedStream`] fabricates them one at
/// a time, as the warp issues its ops.
pub trait Items {
    /// Writes the ops of the next item into `out` and returns `true`, or
    /// returns `false`, writing nothing, when every item has been written.
    /// An item may write no ops at all.
    fn write_next(&mut self, out: &mut PackedWriter) -> bool;
}

/// The items of a whole stream: the type has no values, so a whole stream
/// stores no source (`Option<NoItems>` takes no space) and never refills.
#[derive(Debug, Clone, Copy)]
pub enum NoItems {}

impl Items for NoItems {
    fn write_next(&mut self, _: &mut PackedWriter) -> bool {
        match *self {}
    }
}

impl PackedStream {
    /// Creates a whole stream over already-packed `bytes`.
    #[inline]
    pub fn new(bytes: Vec<u8>) -> Self {
        let pos = match bytes.first() {
            Some(&shift) if shift < 64 => 1,
            _ => bytes.len(),
        };
        Self { bytes, pos, base: 0, items: None }
    }
}

impl<I: Items> PackedStream<I> {
    /// The packed bytes, from the shift byte to the end of the pending
    /// ops (read or not).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Decodes the next op that may issue and moves past it; at the end,
    /// or at an op it cannot read whole, it returns `None` and moves to
    /// the end. A stream with items first writes the next ones when its
    /// pending ops are used up, or when only an item's trailing compute is
    /// left: that compute issues only once the next item has had the
    /// chance to merge into it, or once no item is left.
    #[inline(always)]
    fn decode_next(&mut self) -> Option<Decoded<'_>> {
        while self.items.is_some() {
            match self.pending() {
                Pending::Ops => break,
                Pending::Used => self.refill(None),
                Pending::Open(cycles) => self.refill(Some(cycles)),
            }
        }
        let mut rest = Reader(self.bytes.get(self.pos..).unwrap_or_default());
        // `new` starts a stream without a valid shift byte at its end, so
        // any op read here follows one.
        let shift = self.bytes.first().map_or(0, |&s| u32::from(s));
        let Some(op) = rest.op(self.base, shift) else {
            self.pos = self.bytes.len();
            return None;
        };
        self.pos = self.bytes.len() - rest.0.len();
        self.base = op.first;
        Some(op)
    }

    /// What is left of the pending ops, read without decoding them: an op
    /// longer than a compute, or several ops, are more than a trailing
    /// compute.
    #[inline(always)]
    fn pending(&self) -> Pending {
        match self.bytes.get(self.pos..).unwrap_or_default() {
            [] => Pending::Used,
            &[head] if head & 3 == COMPUTE && head >> 2 != CYCLES_FOLLOW => {
                Pending::Open(u32::from(head >> 2))
            }
            &[head, a, b, c, d] if head == CYCLES_FOLLOW << 2 | COMPUTE => {
                Pending::Open(u32::from_le_bytes([a, b, c, d]))
            }
            _ => Pending::Ops,
        }
    }

    /// Fabricates the next items, once every pending op has issued but an
    /// `open` trailing compute, into the stream's own bytes: a writer that
    /// continues from the pending delta base and the open compute writes
    /// items until it holds an op besides a trailing compute, or until no
    /// item is left.
    #[inline(never)]
    fn refill(&mut self, open: Option<u32>) {
        let Some(items) = &mut self.items else { return };
        let mut bytes = std::mem::take(&mut self.bytes);
        bytes.truncate(1);
        let mut out = PackedWriter { bytes, base: self.base, last_compute: None, ops: 0 };
        if let Some(cycles) = open {
            out.merge_compute(cycles);
        }
        while !out.may_issue() {
            if !items.write_next(&mut out) {
                self.items = None;
                break;
            }
        }
        self.bytes = out.bytes;
        self.pos = 1;
    }
}

/// The pending ops of a [`PackedStream`] with items, as its decoder sees
/// them before reading the next op.
enum Pending {
    /// An op that may issue.
    Ops,
    /// Nothing: every pending op has issued.
    Used,
    /// Only a trailing compute of this many cycles.
    Open(u32),
}

/// The unread bytes of a [`PackedStream`]. Every read checks its length
/// first, so a short tail fails the read instead of panicking.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    #[inline(always)]
    fn array<const N: usize>(&mut self) -> Option<&'a [u8; N]> {
        let (head, tail) = self.0.split_first_chunk()?;
        self.0 = tail;
        Some(head)
    }

    #[inline(always)]
    fn slice(&mut self, len: usize) -> Option<&'a [u8]> {
        let (head, tail) = self.0.split_at_checked(len)?;
        self.0 = tail;
        Some(head)
    }

    /// An unsigned number of the width `code` names.
    #[inline(always)]
    fn uint(&mut self, code: u8) -> Option<u64> {
        Some(match code {
            0 => le(self.array::<1>()?),
            1 => le(self.array::<2>()?),
            2 => le(self.array::<4>()?),
            _ => le(self.array::<8>()?),
        })
    }

    /// Reads one op, given the previous memory op's first unit.
    #[inline(always)]
    fn op(&mut self, base: u64, shift: u32) -> Option<Decoded<'a>> {
        let [head] = *self.array()?;
        let kind = match head & 3 {
            COMPUTE => {
                let cycles = match head >> 2 {
                    CYCLES_FOLLOW => u32::from_le_bytes(*self.array()?),
                    c => u32::from(c),
                };
                let kind = OpKind::Compute(cycles);
                return Some(Decoded {
                    kind,
                    count: 0,
                    first: base,
                    width: 0,
                    offsets: &[],
                    shift,
                });
            }
            LOAD => OpKind::Load,
            STORE => OpKind::Store,
            _ => return None,
        };
        let count = match head >> 6 {
            ONE_TXN => 1,
            COUNT_U8 => usize::from(self.array::<1>()?[0]),
            COUNT_U32 => usize::try_from(u32::from_le_bytes(*self.array()?)).ok()?,
            _ => return None,
        };
        let first = base.wrapping_add(unzigzag(self.uint(head >> 2 & 3)?));
        let width = head >> 4 & 3;
        let len = (count.saturating_sub(1) as u64) << width;
        let offsets = self.slice(usize::try_from(len).ok()?)?;
        Some(Decoded { kind, count, first, width, offsets, shift })
    }
}

/// One op as [`PackedStream`]'s decoder read it.
struct Decoded<'a> {
    kind: OpKind,
    /// Its transaction count: 0 for a compute.
    count: usize,
    /// Its first transaction in units (a compute passes the previous one on).
    first: u64,
    /// The width code of each of `offsets`.
    width: u8,
    /// The other transactions, as offsets from `first`.
    offsets: &'a [u8],
    shift: u32,
}

impl<'a> Decoded<'a> {
    /// The op's first transaction, if it has any.
    fn head(&self) -> Option<VirtAddr> {
        (self.count > 0).then(|| VirtAddr::new(self.first << self.shift))
    }

    /// The op's other transactions, in order, for offsets `W` bytes wide.
    fn rest<const W: usize>(&self) -> impl Iterator<Item = VirtAddr> + 'a {
        let (first, shift) = (self.first, self.shift);
        let offsets = self.offsets.as_chunks::<W>().0.iter();
        offsets.map(move |o| VirtAddr::new(first.wrapping_add(le(o)) << shift))
    }
}

impl<I: Items> AccessStream for PackedStream<I> {
    fn next_op(&mut self) -> Option<WarpOp> {
        let op = self.decode_next()?;
        let addrs = || -> AddrList {
            let head = op.head().into_iter();
            match op.width {
                0 => head.chain(op.rest::<1>()).collect(),
                1 => head.chain(op.rest::<2>()).collect(),
                2 => head.chain(op.rest::<4>()).collect(),
                _ => head.chain(op.rest::<8>()).collect(),
            }
        };
        Some(match op.kind {
            OpKind::Compute(c) => WarpOp::Compute(c),
            OpKind::Load => WarpOp::Load(addrs()),
            OpKind::Store => WarpOp::Store(addrs()),
        })
    }

    fn next_op_into(&mut self, txns: &mut Vec<VirtAddr>) -> Option<OpKind> {
        txns.clear();
        let op = self.decode_next()?;
        txns.extend(op.head());
        match op.width {
            0 => txns.extend(op.rest::<1>()),
            1 => txns.extend(op.rest::<2>()),
            2 => txns.extend(op.rest::<4>()),
            _ => txns.extend(op.rest::<8>()),
        }
        Some(op.kind)
    }
}

thread_local! {
    /// Encoding scratch: [`PackedWriter::scratch`] takes it and
    /// [`PackedWriter::recycle`] puts it back, so building a warp's stream
    /// allocates no writer buffer of its own.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Writes ops in [`PackedStream`]'s layout into a reusable buffer.
#[derive(Debug, Clone, Default)]
pub struct PackedWriter {
    /// The shift byte, then the ops so far.
    bytes: Vec<u8>,
    /// The last memory op's first transaction, in units.
    base: u64,
    /// Where the last op starts, and its cycles, while it is a compute.
    last_compute: Option<(usize, u32)>,
    ops: usize,
}

impl PackedWriter {
    /// A writer of addresses in units of `1 << shift` bytes. It writes
    /// into `bytes`, cleared first.
    ///
    /// # Panics
    ///
    /// Panics if `shift` is 64 or more.
    #[inline]
    pub fn new(mut bytes: Vec<u8>, shift: u32) -> Self {
        assert!(shift < 64, "a unit of 2^{shift} bytes is wider than an address");
        bytes.clear();
        bytes.push(shift as u8);
        Self { bytes, base: 0, last_compute: None, ops: 0 }
    }

    /// Adds `cycles` to the last op if that is a compute, saturating at
    /// `u32::MAX`; otherwise appends a compute.
    #[inline]
    pub fn merge_compute(&mut self, cycles: u32) {
        match self.last_compute {
            Some((at, c)) => {
                self.bytes.truncate(at);
                self.put_compute(c.saturating_add(cycles));
            }
            None => {
                self.ops += 1;
                self.put_compute(cycles);
            }
        }
    }

    /// Writes a compute at the end of the buffer, as the last op.
    #[inline]
    fn put_compute(&mut self, cycles: u32) {
        self.last_compute = Some((self.bytes.len(), cycles));
        match u8::try_from(cycles) {
            Ok(c) if c < CYCLES_FOLLOW => self.bytes.push(c << 2 | COMPUTE),
            _ => {
                self.bytes.push(CYCLES_FOLLOW << 2 | COMPUTE);
                self.bytes.extend_from_slice(&cycles.to_le_bytes());
            }
        }
    }

    /// Appends a load (or, if `store`, a store) of the units `first` and
    /// then `first + offset` for each of `offsets`, in order (an address is
    /// its unit shifted left by the writer's shift). `span` must be at
    /// least every offset: it sets their width. An op whose units ascend
    /// passes its last unit less its first.
    #[inline]
    pub fn mem(
        &mut self,
        store: bool,
        first: u64,
        span: u64,
        offsets: impl ExactSizeIterator<Item = u64>,
    ) {
        self.put_mem(store, offsets.len() + 1, first, span, offsets);
    }

    /// Appends a memory op of `txns` transactions: `first` (unless `txns`
    /// is 0), then `offsets`.
    #[inline]
    fn put_mem(
        &mut self,
        store: bool,
        txns: usize,
        first: u64,
        span: u64,
        offsets: impl Iterator<Item = u64>,
    ) {
        let delta = zigzag(first.wrapping_sub(self.base));
        let d = width_code(delta);
        let w = if txns > 1 { width_code(span) } else { 0 };
        let class = match txns {
            1 => ONE_TXN,
            0..=0xff => COUNT_U8,
            _ => COUNT_U32,
        };
        let kind = if store { STORE } else { LOAD };
        self.bytes.push(class << 6 | w << 4 | d << 2 | kind);
        match class {
            ONE_TXN => {}
            COUNT_U8 => self.bytes.push(txns as u8),
            _ => {
                let n = u32::try_from(txns).expect("an op has at most u32::MAX transactions");
                self.bytes.extend_from_slice(&n.to_le_bytes());
            }
        }
        match d {
            0 => put_le::<1>(&mut self.bytes, delta),
            1 => put_le::<2>(&mut self.bytes, delta),
            2 => put_le::<4>(&mut self.bytes, delta),
            _ => put_le::<8>(&mut self.bytes, delta),
        }
        self.bytes.reserve(txns.saturating_sub(1) << w);
        let out = &mut self.bytes;
        match w {
            0 => out.extend(offsets.map(|o| {
                debug_assert!(o <= 0xff, "offset {o} does not fit a byte");
                o as u8
            })),
            1 => offsets.for_each(|o| put_le::<2>(out, o)),
            2 => offsets.for_each(|o| put_le::<4>(out, o)),
            _ => offsets.for_each(|o| put_le::<8>(out, o)),
        }
        self.base = first;
        self.last_compute = None;
        self.ops += 1;
    }

    /// Whether an op besides a trailing compute has been written: one
    /// that may issue before the next op is written, which a trailing
    /// compute may merge into.
    #[inline]
    fn may_issue(&self) -> bool {
        self.ops > usize::from(self.last_compute.is_some())
    }

    /// Ops written so far (a merged compute counts once).
    pub fn len(&self) -> usize {
        self.ops
    }

    /// Whether no op has been written.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    /// The ops so far as a whole stream, copied out at its exact size.
    #[inline]
    pub fn to_stream(&self) -> PackedStream {
        PackedStream::new(self.bytes.to_vec())
    }

    /// The ops so far, copied out at their exact size, as a stream that
    /// goes on to fabricate `items` one at a time as its warp issues them
    /// (see [`PackedStream`]).
    #[inline]
    pub fn to_stream_with<I: Items>(&self, items: I) -> PackedStream<I> {
        let PackedStream { bytes, pos, base, items: _ } = self.to_stream();
        PackedStream { bytes, pos, base, items: Some(items) }
    }

    /// A writer of units of `1 << shift` bytes into this thread's encoding
    /// scratch, which [`PackedWriter::recycle`] hands back.
    ///
    /// # Panics
    ///
    /// Panics if `shift` is 64 or more.
    #[inline]
    pub fn scratch(shift: u32) -> Self {
        Self::new(SCRATCH.take(), shift)
    }

    /// Hands the writer's buffer back as this thread's encoding scratch.
    #[inline]
    pub fn recycle(self) {
        // `try_with`: a writer recycled while the thread's locals are torn
        // down just frees its buffer.
        let _ = SCRATCH.try_with(|s| s.set(self.bytes));
    }
}

impl FromIterator<WarpOp> for PackedStream {
    /// Packs `ops` as given (adjacent computes are not merged), in units of
    /// the largest power of two that divides every address.
    fn from_iter<I: IntoIterator<Item = WarpOp>>(ops: I) -> Self {
        let ops: Vec<WarpOp> = ops.into_iter().collect();
        let all = ops.iter().flat_map(WarpOp::addrs).fold(0, |acc, a| acc | a.raw());
        let shift = all.trailing_zeros().min(63);
        let mut w = PackedWriter::new(Vec::new(), shift);
        for op in &ops {
            let store = matches!(op, WarpOp::Store(_));
            let mut units = op.addrs().iter().map(|a| a.raw() >> shift);
            match (op, units.next()) {
                (WarpOp::Compute(c), _) => {
                    w.ops += 1;
                    w.put_compute(*c);
                }
                (_, None) => w.put_mem(store, 0, w.base, 0, std::iter::empty()),
                (_, Some(first)) => {
                    let offsets = units.map(|u| u.wrapping_sub(first));
                    let span = offsets.clone().max().unwrap_or(0);
                    w.mem(store, first, span, offsets);
                }
            }
        }
        w.to_stream()
    }
}

/// The stream a retired warp keeps. It yields nothing, and being
/// zero-sized it boxes without allocating, so swapping it in frees the
/// warp's real stream at retirement.
#[derive(Debug, Clone, Copy)]
pub struct EmptyStream;

impl AccessStream for EmptyStream {
    fn next_op(&mut self) -> Option<WarpOp> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_op_addr_views() {
        let c = WarpOp::Compute(5);
        assert!(c.addrs().is_empty());
        assert!(!c.is_mem());
        let l = WarpOp::Load(vec![VirtAddr::new(64)].into());
        assert_eq!(l.addrs(), &[VirtAddr::new(64)]);
        assert!(l.is_mem());
    }

    #[test]
    fn warps_per_block() {
        let s = KernelSpec { num_blocks: 10, threads_per_block: 256, regs_per_thread: 32 };
        assert_eq!(s.warps_per_block(32), 8);
    }

    #[test]
    #[should_panic(expected = "multiple of warp size")]
    fn bad_block_shape_panics() {
        let s = KernelSpec { num_blocks: 1, threads_per_block: 100, regs_per_thread: 32 };
        let _ = s.warps_per_block(32);
    }

    #[test]
    fn packed_stream_yields_in_order() {
        let wide: Vec<VirtAddr> = (0..40).map(|i| VirtAddr::new(i * 128)).collect();
        let ops = vec![
            WarpOp::Compute(1),
            WarpOp::Load(vec![VirtAddr::new(64), VirtAddr::new(256)].into()),
            WarpOp::Compute(2),
            WarpOp::Store(wide.into()),
            WarpOp::Load(Vec::new().into()),
        ];
        let mut s: PackedStream = ops.iter().cloned().collect();
        for op in ops {
            assert_eq!(s.next_op(), Some(op));
        }
        assert_eq!(s.next_op(), None);
        assert_eq!(s.next_op(), None);
    }

    #[test]
    fn packed_headers_round_trip() {
        let at = |units: &[u64]| -> WarpOp {
            WarpOp::Load(units.iter().map(|&u| VirtAddr::new(u << 7)).collect())
        };
        let wide: Vec<u64> = (0..300).map(|i| 1000 + i).collect();
        let ops = vec![
            WarpOp::Compute(62),
            WarpOp::Compute(63),
            WarpOp::Compute(u32::MAX),
            at(&[5, 5 + 0xff]),
            at(&[5, 5 + 0x100]),
            at(&[1 << 20, (1 << 20) + 0x1_0000]),
            at(&[0, 1 << 40]),
            at(&[1 << 40, 0]),
            at(&wide),
            WarpOp::Store(vec![VirtAddr::new(u64::MAX), VirtAddr::new(1)].into()),
        ];
        let mut s: PackedStream = ops.iter().cloned().collect();
        for op in ops {
            assert_eq!(s.next_op(), Some(op));
        }
        assert_eq!(s.next_op(), None);
    }

    #[test]
    fn a_merged_compute_is_rewritten_in_place() {
        let mut w = PackedWriter::new(vec![9; 4], 7);
        w.merge_compute(60);
        w.merge_compute(10);
        w.merge_compute(u32::MAX);
        w.mem(false, 3, 0, std::iter::empty());
        w.merge_compute(1);
        assert_eq!(w.len(), 3);
        let mut s = w.to_stream();
        assert_eq!(s.next_op(), Some(WarpOp::Compute(u32::MAX)));
        assert_eq!(s.next_op(), Some(WarpOp::Load(vec![VirtAddr::new(3 << 7)].into())));
        assert_eq!(s.next_op(), Some(WarpOp::Compute(1)));
        assert_eq!(s.next_op(), None);
    }

    #[test]
    fn truncated_packed_stream_ends_instead_of_panicking() {
        // Shift 7, a 3-cycle compute, then a load promising two
        // transactions (count byte 2, delta byte 2) whose offset is cut off.
        let mut s = PackedStream::new(vec![7, 3 << 2, 1 << 6 | 1, 2, 2]);
        let mut txns = vec![VirtAddr::new(64)];
        assert_eq!(s.next_op(), Some(WarpOp::Compute(3)));
        assert_eq!(s.next_op_into(&mut txns), None);
        assert!(txns.is_empty());
        assert_eq!(s.next_op(), None, "the truncated op is not re-read");
        // A missing or oversized shift byte leaves nothing to decode.
        assert_eq!(PackedStream::new(Vec::new()).next_op(), None);
        assert_eq!(PackedStream::new(vec![64, 3 << 2]).next_op(), None);
    }

    #[test]
    fn empty_stream_is_zero_sized_and_empty() {
        assert_eq!(std::mem::size_of::<EmptyStream>(), 0);
        assert_eq!(EmptyStream.next_op(), None);
    }
}
