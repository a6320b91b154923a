//! The sharded executor: parallel warp-stream prefabrication and
//! bank-parallel data-path replay.
//!
//! # Why prefabrication is one parallel decomposition
//!
//! The simulated machine is memory-bound by construction — the paper's
//! whole subject is page-fault handling — so in steady state *every* warp
//! is within one memory operation of a UVM interaction (a translation, a
//! fault, a batch). The conservative window `[clock, horizon)` between
//! UVM interactions is therefore usually a single event wide, and
//! executing *events* inside it on competing threads buys nothing while
//! threatening the bit-identity oracle (the shared L2 TLB is true-LRU:
//! its state depends on global access order).
//!
//! What *is* embarrassingly parallel is building warp access streams
//! (25–54 % of a run's host time before streams were packed, by the
//! `batbench` layer split). Stream construction is a pure function
//! of `(block, warp)` over the kernel's shared immutable data ([`Kernel`]
//! is `Send + Sync` and `warp_stream` is required to be call-order
//! independent), and every grid block is activated exactly once before
//! its kernel can end. Fabricating blocks eagerly on shard workers is
//! therefore **zero-speculation**: every fabricated stream is consumed,
//! and its contents are identical no matter which thread built it.
//!
//! # Why bank replay is the other
//!
//! PR 9 left memory-op execution serial because sharding *by SM* would
//! interleave accesses to the shared true-LRU caches in thread-schedule
//! order. Sharding *by cache bank* has no such hazard: hit/miss under
//! per-set LRU depends only on the access order within a set, and a
//! line's bank is a pure function of its address. The engine batches the
//! data-path accesses of one cycle, partitions them by bank **preserving
//! arrival order within each bank**, and ships each bank's queue together
//! with that bank's detached cache stripes
//! ([`MemPathBank`](batmem_sim::cache::MemPathBank)) to a worker. Workers
//! replay their queues serially; the resulting latencies are merged back
//! in the original arrival order, so every latency — and every LRU update
//! — is bit-identical to the serial replay. See `DESIGN.md` §14.
//!
//! # Sharding and the merge
//!
//! Grid block `g` is owned by shard `g % shards`. Each worker walks its
//! blocks in grid order, builds the block's warp streams behind a
//! [`RecordingBoundary`] (the activation wakes, at relative cycle 0), and
//! ships `(streams, log)` over a bounded channel — the bound is the
//! conservative-window backpressure: workers stay at most `4 × shards`
//! blocks ahead of the coordinator, so lookahead memory is flat. The
//! coordinator consumes fabrications at activation time and replays each
//! block's log into the global wheel at the activation cycle in
//! activation (key) order, reproducing the serial engine's `(time, seq)`
//! push order exactly — which is what makes `threads = N` bit-identical
//! to `threads = 1` for every `N`.
//!
//! Bank jobs ride the same per-worker channels as kernel jobs. A worker
//! that is fabricating ahead (or parked on a full lookahead channel)
//! polls for bank work instead of blocking, so a bank replay is never
//! stuck behind prefabrication lookahead — the coordinator is waiting on
//! that replay *now*, while fabrications are consumed lazily.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use batmem_sim::cache::MemPathBank;
use batmem_sim::ops::{BoxedStream, Kernel};
use batmem_types::{BlockId, Cycle, SimError, VirtAddr};

use super::boundary::{RecordingBoundary, ShardEffect};

/// How long the coordinator waits on a missing fabrication or bank result
/// before calling the run wedged. Both are microseconds of work; this
/// only trips if a worker died or a kernel's `warp_stream` hangs.
const FABRICATION_TIMEOUT: Duration = Duration::from_secs(120);

/// How long a lookahead-blocked worker sleeps between polls for bank work.
const BUSY_POLL: Duration = Duration::from_micros(50);

/// One fabricated block: its warp streams plus the boundary effects its
/// activation emits (recorded at relative cycle 0, under grid numbering).
pub(super) struct Fabricated {
    pub(super) grid_block: u32,
    pub(super) streams: Vec<BoxedStream>,
    pub(super) log: Vec<ShardEffect>,
}

/// A kernel handed to the shard workers.
struct KernelJob {
    kernel: Arc<dyn Kernel>,
    num_blocks: u32,
    warps_per_block: u32,
}

/// One bank's share of a deferred-transaction batch: the detached cache
/// stripes plus the accesses to replay against them, in arrival order.
pub(super) struct BankJob {
    pub(super) view: MemPathBank,
    pub(super) queue: Vec<(u16, VirtAddr)>,
    /// Recycled output buffer (cleared by the engine between batches).
    pub(super) latencies: Vec<Cycle>,
}

/// A replayed bank: the stripes to reattach, the queue buffer to recycle,
/// and one latency per queued access, in queue order.
pub(super) struct BankResult {
    pub(super) view: MemPathBank,
    pub(super) queue: Vec<(u16, VirtAddr)>,
    pub(super) latencies: Vec<Cycle>,
}

/// Replays a bank job to completion. Shared by the workers and the
/// coordinator's fallback path so both produce identical results.
pub(super) fn run_bank(mut job: BankJob) -> BankResult {
    job.view.replay(&job.queue, &mut job.latencies);
    BankResult { view: job.view, queue: job.queue, latencies: job.latencies }
}

/// Work shipped to a shard worker.
enum Job {
    Kernel(KernelJob),
    Bank(BankJob),
}

/// In-progress fabrication state on a worker: the kernel and the next
/// owned grid block to build.
struct FabState {
    job: KernelJob,
    next: u32,
}

/// The pool of shard workers plus the coordinator-side fabrication store.
pub(super) struct ShardPool {
    shards: usize,
    job_txs: Vec<Sender<Job>>,
    done_rx: Option<Receiver<Fabricated>>,
    bank_rx: Receiver<BankResult>,
    // Fabrications received but not yet activated, keyed by grid block.
    // Bounded by the channel backpressure plus activation skew.
    store: Vec<Option<Fabricated>>,
    store_len: usize,
    // Round-robin cursor for bank-job placement.
    next_bank_worker: usize,
    // Per-shard counters (shared with the workers) for progress
    // signatures and wedged-run reports.
    fabricated: Vec<Arc<AtomicU64>>,
    banks_replayed: Vec<Arc<AtomicU64>>,
    handles: Vec<JoinHandle<()>>,
}

impl ShardPool {
    /// Spawns `shards` workers (callers pass `threads - 1`; the calling
    /// thread is the coordinator).
    pub(super) fn spawn(shards: usize) -> Self {
        let shards = shards.max(1);
        // The bounded channel IS the lookahead limit: workers collectively
        // stay at most this many fabrications ahead of activation.
        let (done_tx, done_rx) = std::sync::mpsc::sync_channel(shards * 4);
        // Bank results are pulled eagerly at the flush barrier, so this
        // channel needs no backpressure.
        let (bank_tx, bank_rx) = std::sync::mpsc::channel();
        let mut job_txs = Vec::with_capacity(shards);
        let mut fabricated = Vec::with_capacity(shards);
        let mut banks_replayed = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
            let done_tx: SyncSender<Fabricated> = done_tx.clone();
            let bank_tx: Sender<BankResult> = bank_tx.clone();
            let counter = Arc::new(AtomicU64::new(0));
            let bank_counter = Arc::new(AtomicU64::new(0));
            let worker_counter = counter.clone();
            let worker_bank_counter = bank_counter.clone();
            let handle = std::thread::Builder::new()
                .name(format!("batmem-shard-{shard}"))
                .spawn(move || {
                    worker(shard, shards, &job_rx, &done_tx, &bank_tx, &worker_counter, &worker_bank_counter)
                })
                .expect("spawning a shard worker");
            job_txs.push(job_tx);
            fabricated.push(counter);
            banks_replayed.push(bank_counter);
            handles.push(handle);
        }
        Self {
            shards,
            job_txs,
            done_rx: Some(done_rx),
            bank_rx,
            store: Vec::new(),
            store_len: 0,
            next_bank_worker: 0,
            fabricated,
            banks_replayed,
            handles,
        }
    }

    /// Starts fabrication for a kernel. All of the previous kernel's
    /// fabrications have been consumed by now (every block activates
    /// exactly once before its kernel ends), so workers are idle and the
    /// channel is empty.
    pub(super) fn begin_kernel(
        &mut self,
        kernel: &Arc<dyn Kernel>,
        num_blocks: u32,
        warps_per_block: u32,
    ) {
        debug_assert_eq!(self.store_len, 0, "unconsumed fabrications across kernels");
        self.store.clear();
        self.store.resize_with(num_blocks as usize, || None);
        for tx in &self.job_txs {
            // A worker can only be gone if it panicked; the coordinator
            // then reports the wedge on the next `take`.
            let _ = tx.send(Job::Kernel(KernelJob {
                kernel: kernel.clone(),
                num_blocks,
                warps_per_block,
            }));
        }
    }

    /// Hands over grid block `grid_block`'s fabrication, receiving from
    /// the workers until it arrives.
    pub(super) fn take(&mut self, grid_block: u32, clock: Cycle) -> Result<Fabricated, SimError> {
        loop {
            if let Some(fab) = self.store[grid_block as usize].take() {
                self.store_len -= 1;
                return Ok(fab);
            }
            let rx = self.done_rx.as_ref().expect("pool receiver live while running");
            match rx.recv_timeout(FABRICATION_TIMEOUT) {
                Ok(fab) => {
                    let slot = fab.grid_block as usize;
                    debug_assert!(self.store[slot].is_none(), "block fabricated twice");
                    self.store[slot] = Some(fab);
                    self.store_len += 1;
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    return Err(SimError::Deadlock {
                        cycle: clock,
                        detail: format!(
                            "shard {} never delivered prefabricated block {}; {}",
                            grid_block as usize % self.shards,
                            grid_block,
                            self.describe_occupancy(),
                        ),
                    });
                }
            }
        }
    }

    /// Ships one bank's replay to a worker (round-robin). Returns the
    /// finished result immediately if the worker is gone (it panicked and
    /// the run is about to be reported wedged) — the replay then happens
    /// inline so the cache stripes are never lost.
    pub(super) fn dispatch_bank(&mut self, job: BankJob) -> Option<BankResult> {
        let w = self.next_bank_worker;
        self.next_bank_worker = (w + 1) % self.shards;
        match self.job_txs[w].send(Job::Bank(job)) {
            Ok(()) => None,
            Err(std::sync::mpsc::SendError(Job::Bank(job))) => Some(run_bank(job)),
            Err(std::sync::mpsc::SendError(Job::Kernel(_))) => {
                unreachable!("send returns the job it was given")
            }
        }
    }

    /// Receives one replayed bank (in completion order — the caller
    /// reattaches by [`MemPathBank::bank`] index, so arrival order does
    /// not matter).
    pub(super) fn collect_bank(&mut self, clock: Cycle) -> Result<BankResult, SimError> {
        match self.bank_rx.recv_timeout(FABRICATION_TIMEOUT) {
            Ok(result) => Ok(result),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                Err(SimError::Deadlock {
                    cycle: clock,
                    detail: format!(
                        "a dispatched bank replay never completed; {}",
                        self.describe_occupancy()
                    ),
                })
            }
        }
    }

    /// Total blocks fabricated across all shards (monotone; feeds the
    /// watchdog's progress signature so a pool that is still fabricating
    /// is never mistaken for a stalled run).
    pub(super) fn blocks_fabricated(&self) -> u64 {
        self.fabricated.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Per-shard queue occupancy for wedged-run reports: how many blocks
    /// each shard has fabricated, how many banks it has replayed, and how
    /// many fabrications sit merged-but-unactivated in the coordinator's
    /// store.
    pub(super) fn describe_occupancy(&self) -> String {
        let per_shard: Vec<String> = self
            .fabricated
            .iter()
            .zip(&self.banks_replayed)
            .enumerate()
            .map(|(s, (c, b))| {
                format!(
                    "shard {s}: {} fabricated, {} banks replayed",
                    c.load(Ordering::Relaxed),
                    b.load(Ordering::Relaxed)
                )
            })
            .collect();
        format!("{} awaiting activation [{}]", self.store_len, per_shard.join(", "))
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Closing the job channels ends the workers' outer loops; dropping
        // the receiver unblocks any worker parked on a full `send` (and the
        // busy-poll path observes the disconnect on its next `try_send`).
        self.job_txs.clear();
        self.done_rx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Shard worker: fabricate owned blocks of each kernel in grid order, and
/// replay dispatched cache banks with priority.
///
/// The worker never blocks on the fabrication channel while it holds (or
/// could receive) bank work: a full lookahead channel turns into a short
/// poll loop that keeps draining the job queue, because the coordinator
/// waits on bank results *synchronously* at the flush barrier while
/// fabrications are consumed lazily at activation time.
#[allow(clippy::too_many_arguments)]
fn worker(
    shard: usize,
    shards: usize,
    jobs: &Receiver<Job>,
    done: &SyncSender<Fabricated>,
    bank_done: &Sender<BankResult>,
    fabricated: &AtomicU64,
    banks_replayed: &AtomicU64,
) {
    let mut fab: Option<FabState> = None;
    let mut unsent: Option<Fabricated> = None;
    loop {
        if fab.is_none() && unsent.is_none() {
            // Idle: park on the job queue.
            match jobs.recv() {
                Ok(Job::Bank(job)) => {
                    banks_replayed.fetch_add(1, Ordering::Relaxed);
                    if bank_done.send(run_bank(job)).is_err() {
                        return; // coordinator is gone (run ended or aborted)
                    }
                    continue;
                }
                Ok(Job::Kernel(job)) => fab = Some(FabState { next: shard as u32, job }),
                Err(_) => return,
            }
        } else {
            // Busy: drain everything already queued without blocking, so
            // bank replays never wait behind fabrication lookahead.
            loop {
                match jobs.try_recv() {
                    Ok(Job::Bank(job)) => {
                        banks_replayed.fetch_add(1, Ordering::Relaxed);
                        if bank_done.send(run_bank(job)).is_err() {
                            return;
                        }
                    }
                    Ok(Job::Kernel(job)) => {
                        debug_assert!(
                            fab.is_none(),
                            "next kernel arrived while the previous one was fabricating"
                        );
                        fab = Some(FabState { next: shard as u32, job });
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return,
                }
            }
        }
        // Flush the held fabrication; if the lookahead channel is full,
        // poll briefly (re-checking for bank jobs) instead of parking.
        if let Some(block) = unsent.take() {
            match done.try_send(block) {
                Ok(()) => {}
                Err(TrySendError::Full(block)) => {
                    unsent = Some(block);
                    std::thread::sleep(BUSY_POLL);
                    continue;
                }
                Err(TrySendError::Disconnected(_)) => return,
            }
        }
        // Fabricate the next owned block, if a kernel is in progress.
        if let Some(state) = fab.as_mut() {
            if state.next < state.job.num_blocks {
                let g = state.next;
                let streams: Vec<BoxedStream> = (0..state.job.warps_per_block)
                    .map(|w| state.job.kernel.warp_stream(BlockId::new(g), w as u16))
                    .collect();
                // The activation effects, exactly as the serial engine
                // emits them: one wake per warp, in warp order, at the
                // activation cycle (relative 0).
                let mut boundary = RecordingBoundary::new();
                for w in 0..state.job.warps_per_block as usize {
                    boundary.record(ShardEffect::WakeWarp { at: 0, block: g as usize, warp: w });
                }
                fabricated.fetch_add(1, Ordering::Relaxed);
                unsent = Some(Fabricated { grid_block: g, streams, log: boundary.into_log() });
                state.next += shards as u32;
            } else {
                fab = None;
            }
        }
    }
}
