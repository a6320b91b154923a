//! The warp-level operation vocabulary and workload description traits.
//!
//! Workloads are modeled as **access streams**: each warp executes a lazy
//! sequence of [`WarpOp`]s — compute delays and coalesced memory operations.
//! This captures exactly the behaviour demand paging responds to (which
//! addresses are touched, in what order, with what divergence) while
//! abstracting per-instruction pipeline details (see DESIGN.md,
//! "Substitutions"). Streams are stored packed ([`PackedStream`]: one
//! word per op header and per transaction). The engine issues each op
//! through [`AccessStream::next_op_into`], which writes its transactions
//! into a buffer the caller owns; a [`WarpOp`] is built only where a
//! caller asks for one by value ([`AccessStream::next_op`]).

use batmem_types::{BlockId, KernelId, VirtAddr};

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
/// decoding that op.
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
    /// first activated. Implementations must be pure functions of
    /// `(block, warp_in_block)`: the stream's contents may not depend on
    /// call order or timing.
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

/// The word that opens each op of a [`PackedStream`]: the op's kind in the
/// low two bits, its compute cycles or transaction count above them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedHeader {
    /// `cycles` of computation; no address words follow.
    Compute(u32),
    /// A load; this many transaction-address words follow.
    Load(u32),
    /// A store; this many transaction-address words follow.
    Store(u32),
}

impl PackedHeader {
    const KIND_BITS: u32 = 2;

    /// The header as a stream word.
    pub const fn encode(self) -> u64 {
        let (kind, payload) = match self {
            PackedHeader::Compute(c) => (0, c),
            PackedHeader::Load(n) => (1, n),
            PackedHeader::Store(n) => (2, n),
        };
        (payload as u64) << Self::KIND_BITS | kind
    }

    /// Reads a header back from a stream word.
    pub const fn decode(word: u64) -> Self {
        let payload = (word >> Self::KIND_BITS) as u32;
        match word & ((1 << Self::KIND_BITS) - 1) {
            0 => PackedHeader::Compute(payload),
            1 => PackedHeader::Load(payload),
            _ => PackedHeader::Store(payload),
        }
    }
}

/// A warp's access stream packed into a single word vector.
///
/// Each op is one [`PackedHeader`] word, followed for memory ops by one
/// raw [`VirtAddr`] word per transaction: 8 bytes per op plus 8 per
/// transaction, where a stored [`WarpOp`] would take its full inline size.
/// [`next_op_into`](AccessStream::next_op_into) copies an op's address
/// words straight into the caller's buffer. A truncated tail (a header
/// promising more words than remain) ends the stream: every later call
/// returns `None` as well.
#[derive(Debug, Clone)]
pub struct PackedStream {
    words: Vec<u64>,
    pos: usize,
}

impl PackedStream {
    /// Creates a stream over already-packed `words`.
    pub fn new(words: Vec<u64>) -> Self {
        Self { words, pos: 0 }
    }

    /// Decodes the op at the cursor into its header and its address
    /// words, and moves past both; at the end or a truncated tail it
    /// returns `None` and stays put.
    fn decode_next(&mut self) -> Option<(PackedHeader, &[u64])> {
        let header = PackedHeader::decode(*self.words.get(self.pos)?);
        let n = match header {
            PackedHeader::Compute(_) => 0,
            PackedHeader::Load(n) | PackedHeader::Store(n) => n as usize,
        };
        let start = self.pos + 1;
        let end = start.checked_add(n)?;
        let addrs = self.words.get(start..end)?;
        self.pos = end;
        Some((header, addrs))
    }
}

impl FromIterator<WarpOp> for PackedStream {
    /// Packs `ops` as given (adjacent computes are not merged).
    fn from_iter<I: IntoIterator<Item = WarpOp>>(ops: I) -> Self {
        let mut words = Vec::new();
        for op in ops {
            let header = match &op {
                WarpOp::Compute(c) => PackedHeader::Compute(*c),
                WarpOp::Load(a) => PackedHeader::Load(a.len() as u32),
                WarpOp::Store(a) => PackedHeader::Store(a.len() as u32),
            };
            words.push(header.encode());
            words.extend(op.addrs().iter().map(|a| a.raw()));
        }
        Self::new(words)
    }
}

impl AccessStream for PackedStream {
    fn next_op(&mut self) -> Option<WarpOp> {
        let (header, words) = self.decode_next()?;
        let addrs = || words.iter().map(|&w| VirtAddr::new(w)).collect();
        Some(match header {
            PackedHeader::Compute(c) => WarpOp::Compute(c),
            PackedHeader::Load(_) => WarpOp::Load(addrs()),
            PackedHeader::Store(_) => WarpOp::Store(addrs()),
        })
    }

    fn next_op_into(&mut self, txns: &mut Vec<VirtAddr>) -> Option<OpKind> {
        txns.clear();
        let (header, words) = self.decode_next()?;
        txns.extend(words.iter().map(|&w| VirtAddr::new(w)));
        Some(match header {
            PackedHeader::Compute(c) => OpKind::Compute(c),
            PackedHeader::Load(_) => OpKind::Load,
            PackedHeader::Store(_) => OpKind::Store,
        })
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
        for h in [
            PackedHeader::Compute(0),
            PackedHeader::Compute(u32::MAX),
            PackedHeader::Load(1),
            PackedHeader::Store(u32::MAX),
        ] {
            assert_eq!(PackedHeader::decode(h.encode()), h);
        }
    }

    #[test]
    fn truncated_packed_stream_ends_instead_of_panicking() {
        let mut s = PackedStream::new(vec![
            PackedHeader::Compute(3).encode(),
            PackedHeader::Load(2).encode(),
            64,
        ]);
        assert_eq!(s.next_op(), Some(WarpOp::Compute(3)));
        assert_eq!(s.next_op(), None);
        assert_eq!(s.next_op(), None, "the truncated header is not re-read as an address");
    }

    #[test]
    fn empty_stream_is_zero_sized_and_empty() {
        assert_eq!(std::mem::size_of::<EmptyStream>(), 0);
        assert_eq!(EmptyStream.next_op(), None);
    }
}
