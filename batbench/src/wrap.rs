//! Outside-in instrumentation of the workload layer.
//!
//! [`Probed`] wraps a workload's public `Workload → Kernel → AccessStream`
//! chain. In [`Mode::Time`] it times every `kernel()` and `warp_stream()`
//! call the engine makes during a real run. In [`Mode::Capture`] it
//! records each warp memory operation as it issues and replays the
//! recorded transactions, chunk by chunk, through a private `Mmu`
//! (translation) and `MemPath` (L1/L2 data path), timing each replay loop
//! as a whole. Both modes only forward the calls, so the run's
//! `RunMetrics` must not change; the benchmark checks that.
//!
//! A `next_op()` call costs about as much as the two clock reads that
//! would time it, so [`drain`] measures that layer instead: it rebuilds
//! every warp's stream outside the run (streams are pure functions of
//! their block and warp) and times draining them a batch at a time.
//!
//! Replays are estimates of the engine's own work: a block's SM is
//! `block % num_sms` (the engine dispatches round-robin but refills freed
//! slots), every page a chunk touches is installed before it is
//! translated, and an operation that faults is replayed once, at first
//! issue, not again when the engine retries it.

use batmem_sim::ops::{AccessStream, BoxedStream, Kernel, KernelSpec, WarpOp, Workload};
use batmem_sim::MemPath;
use batmem_types::{BlockId, FrameId, KernelId, PageGeometry, PageId, SimConfig, SmId, VirtAddr};
use batmem_vmem::Mmu;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Transactions buffered before a capture replays them.
const CHUNK: usize = 1 << 20;
/// Streams drained per timer pair.
const DRAIN_BATCH: usize = 1024;

/// What the wrappers do besides forwarding.
#[derive(Clone)]
pub enum Mode {
    /// Time each call into the workload layer.
    Time(Arc<FabTimes>),
    /// Record memory operations and replay them through the MMU and the
    /// data path.
    Capture(Arc<Mutex<Capture>>),
}

/// Wall nanoseconds and call counts of the workload layer during one run.
/// Atomics because the wrapped types must be `Send`.
#[derive(Debug, Default)]
pub struct FabTimes {
    pub kernel_ns: AtomicU64,
    pub kernels: AtomicU64,
    pub stream_ns: AtomicU64,
    pub streams: AtomicU64,
}

/// A workload whose layer calls are timed or captured.
pub struct Probed {
    inner: Box<dyn Workload>,
    mode: Mode,
}

impl Probed {
    pub fn new(inner: Box<dyn Workload>, mode: Mode) -> Self {
        Self { inner, mode }
    }
}

impl Workload for Probed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes()
    }

    fn num_kernels(&self) -> u32 {
        self.inner.num_kernels()
    }

    fn kernel(&self, k: KernelId) -> Box<dyn Kernel> {
        let start = Instant::now();
        let inner = self.inner.kernel(k);
        if let Mode::Time(t) = &self.mode {
            t.kernel_ns.fetch_add(nanos(start), Relaxed);
            t.kernels.fetch_add(1, Relaxed);
        }
        Box::new(ProbedKernel { inner, mode: self.mode.clone() })
    }
}

struct ProbedKernel {
    inner: Box<dyn Kernel>,
    mode: Mode,
}

impl Kernel for ProbedKernel {
    fn spec(&self) -> KernelSpec {
        self.inner.spec()
    }

    fn warp_stream(&self, block: BlockId, warp_in_block: u16) -> BoxedStream {
        let start = Instant::now();
        let inner = self.inner.warp_stream(block, warp_in_block);
        match &self.mode {
            Mode::Time(t) => {
                t.stream_ns.fetch_add(nanos(start), Relaxed);
                t.streams.fetch_add(1, Relaxed);
                inner
            }
            Mode::Capture(c) => {
                let sm = {
                    let c = c.lock().expect("capture lock poisoned");
                    (block.index() % c.num_sms) as u16
                };
                Box::new(CaptureStream { inner, sm, capture: Arc::clone(c) })
            }
        }
    }
}

struct CaptureStream {
    inner: BoxedStream,
    sm: u16,
    capture: Arc<Mutex<Capture>>,
}

impl AccessStream for CaptureStream {
    fn next_op(&mut self) -> Option<WarpOp> {
        let op = self.inner.next_op();
        if let Some(op) = op.as_ref().filter(|op| op.is_mem()) {
            self.capture.lock().expect("capture lock poisoned").record(self.sm, op.addrs());
        }
        op
    }
}

/// The `next_op()` layer of a whole workload, drained outside a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Drained {
    pub next_op_ns: u64,
    /// Operations returned.
    pub ops: u64,
    /// Transactions of the memory operations among them.
    pub mem_txns: u64,
}

/// Builds every warp stream of `workload`, [`DRAIN_BATCH`] at a time, and
/// times draining each batch; building and dropping stay untimed.
pub fn drain(workload: &dyn Workload, warp_size: u32) -> Drained {
    let mut d = Drained::default();
    let mut streams: Vec<BoxedStream> = Vec::with_capacity(DRAIN_BATCH);
    for k in 0..workload.num_kernels() {
        let kernel = workload.kernel(KernelId::new(k));
        let spec = kernel.spec();
        let warps = spec.warps_per_block(warp_size);
        let mut warp_ids =
            (0..spec.num_blocks).flat_map(|b| (0..warps).map(move |w| (b, w as u16)));
        loop {
            streams.clear();
            streams.extend(
                warp_ids
                    .by_ref()
                    .take(DRAIN_BATCH)
                    .map(|(b, w)| kernel.warp_stream(BlockId::new(b), w)),
            );
            if streams.is_empty() {
                break;
            }
            let start = Instant::now();
            for stream in &mut streams {
                while let Some(op) = stream.next_op() {
                    d.ops += 1;
                    d.mem_txns += op.addrs().len() as u64;
                    black_box(op);
                }
            }
            d.next_op_ns += nanos(start);
        }
    }
    d
}

/// The recorded transaction stream and the private MMU and data path it
/// replays through.
pub struct Capture {
    num_sms: usize,
    geom: PageGeometry,
    mmu: Mmu,
    mem: MemPath,
    installed: Vec<bool>,
    next_frame: u32,
    /// Replay clock: one cycle per memory operation.
    clock: u64,
    /// `(sm, end of its transactions in addrs)` per operation.
    ops: Vec<(u16, usize)>,
    addrs: Vec<VirtAddr>,
    pages: Vec<PageId>,
    result: Replays,
}

/// What the replays measured.
#[derive(Debug, Default, Clone)]
pub struct Replays {
    pub translate_ns: u64,
    pub translates: u64,
    pub l1_tlb_hits: u64,
    pub l1_tlb_lookups: u64,
    pub walks: u64,
    pub mempath_ns: u64,
    pub accesses: u64,
    pub l1d_hits: u64,
    pub l2d_hits: u64,
    pub l2d_accesses: u64,
    /// The first translation error, if any (none is expected: every page
    /// is installed before it is translated).
    pub error: Option<String>,
}

impl Capture {
    /// An empty capture over the Table 1 machine the runs use.
    pub fn new(config: &SimConfig) -> Self {
        Self {
            num_sms: usize::from(config.gpu.num_sms),
            geom: config.uvm.geometry,
            mmu: Mmu::new(config),
            mem: MemPath::new(&config.mem, config.gpu.num_sms),
            installed: Vec::new(),
            next_frame: 0,
            clock: 0,
            ops: Vec::new(),
            addrs: Vec::new(),
            pages: Vec::new(),
            result: Replays::default(),
        }
    }

    /// Records one memory operation issued on SM `sm`.
    pub fn record(&mut self, sm: u16, addrs: &[VirtAddr]) {
        self.addrs.extend_from_slice(addrs);
        self.ops.push((sm, self.addrs.len()));
        if self.addrs.len() >= CHUNK {
            self.replay();
        }
    }

    /// Replays what is still buffered and returns the totals.
    pub fn finish(&mut self) -> Replays {
        self.replay();
        let mmu = self.mmu.stats();
        let r = &mut self.result;
        r.l1_tlb_hits = mmu.l1.hits;
        r.l1_tlb_lookups = mmu.l1.hits + mmu.l1.misses;
        r.walks = mmu.walks;
        r.l1d_hits = self.mem.l1_stats().hits;
        r.l2d_hits = self.mem.l2_stats().hits;
        r.l2d_accesses = self.mem.l2_stats().accesses();
        r.clone()
    }

    fn replay(&mut self) {
        // Untimed: map every page this chunk touches.
        for a in &self.addrs {
            let page = self.geom.page_of(*a);
            let i = page.index() as usize;
            if i >= self.installed.len() {
                self.installed.resize(i + 1, false);
            }
            if !self.installed[i] {
                self.installed[i] = true;
                if let Err(e) = self.mmu.install(page, FrameId::new(self.next_frame), 0) {
                    self.result.error.get_or_insert(e.to_string());
                }
                self.next_frame += 1;
            }
        }
        // Translation, as the engine does it: each distinct page of an
        // operation once.
        let start = Instant::now();
        let mut begin = 0;
        let mut latency = 0u64;
        for &(sm, end) in &self.ops {
            self.pages.clear();
            for a in &self.addrs[begin..end] {
                let page = self.geom.page_of(*a);
                if self.pages.contains(&page) {
                    continue;
                }
                self.pages.push(page);
                match self.mmu.translate(SmId::new(sm), page, self.clock) {
                    Ok(t) => latency += t.latency,
                    Err(e) => {
                        self.result.error.get_or_insert(e.to_string());
                    }
                }
            }
            self.result.translates += self.pages.len() as u64;
            self.clock += 1;
            begin = end;
        }
        self.result.translate_ns += nanos(start);
        // The L1/L2 data path: every transaction.
        let start = Instant::now();
        let mut begin = 0;
        for &(sm, end) in &self.ops {
            for a in &self.addrs[begin..end] {
                latency += self.mem.access(usize::from(sm), *a);
            }
            begin = end;
        }
        self.result.mempath_ns += nanos(start);
        self.result.accesses += self.addrs.len() as u64;
        black_box(latency);
        self.ops.clear();
        self.addrs.clear();
    }
}

fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The cost of one `Instant::now()` + `elapsed()` pair in nanoseconds,
/// which each timed `kernel()` and `warp_stream()` call pays once: the
/// median of 21 batches.
pub fn timer_overhead_ns() -> f64 {
    const CALLS: u32 = 20_000;
    let mut batches: Vec<f64> = (0..21)
        .map(|_| {
            let outer = Instant::now();
            let mut sum = 0u64;
            for _ in 0..CALLS {
                sum += nanos(black_box(Instant::now()));
            }
            black_box(sum);
            outer.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}
