use super::*;
use crate::policies;
use batmem_sim::ops::{AccessStream, BoxedStream, WarpOp};
use batmem_types::{BlockId, KernelId};
use batmem_workloads::synthetic::{SharedPages, Strided};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn single_warp_single_page_timing() {
    // One block, one warp, one page, one load: time = walk + ISR +
    // handling + transfer + retry pipeline.
    let w = Strided::new(1, 32, 32, 1, 0, 1);
    let m = Simulation::builder().prefetch("none").try_run(Box::new(w)).unwrap();
    assert_eq!(m.uvm.num_batches(), 1);
    assert_eq!(m.uvm.batches[0].faults, 1);
    // Lower bound: ISR (1k) + handling (20k) + page transfer (~4.2k).
    assert!(m.cycles > 25_000, "{}", m.cycles);
    assert!(m.cycles < 40_000, "{}", m.cycles);
}

#[test]
fn shared_page_fault_wakes_all_waiters() {
    // 64 blocks all reading the same 3 pages: one batch serves everyone.
    let w = SharedPages::new(64, 256, 32, 3, 10);
    let m = Simulation::builder().prefetch("none").try_run(Box::new(w)).unwrap();
    let faults: u64 = m.uvm.batches.iter().map(|b| u64::from(b.faults)).sum();
    assert_eq!(faults, 3, "shared pages must fault once each");
    assert_eq!(m.blocks_retired, 64);
}

#[test]
fn to_context_switches_on_fault_stalls() {
    // Tiny capacity + per-warp disjoint pages: active blocks stall fully
    // and the provisioned inactive blocks must switch in.
    let w = Strided::new(200, 256, 56, 2, 50, 3);
    let m = Simulation::builder()
        .policy(policies::to_only())
        .prefetch("none")
        .memory_ratio(0.25)
        .try_run(Box::new(w))
        .unwrap();
    assert!(m.ctx_switches > 0, "no switches despite fault stalls");
    assert!(m.ctx_switch_cycles > 0);
    assert_eq!(m.blocks_retired, 200);
}

#[test]
fn only_the_etc_pe_spec_turns_on_proactive_eviction() {
    // Proactive eviction has no config field: the `:pe` suffix of the ETC
    // spec is the one switch, and plain `etc:50` leaves it off.
    let run = |spec: &str| {
        Simulation::builder()
            .oversubscription(spec)
            .prefetch("none")
            .memory_ratio(0.25)
            .try_run(Box::new(Strided::new(16, 256, 32, 2, 10, 2)))
            .unwrap()
    };
    let pe = run("etc:50:pe");
    let plain = run("etc:50");
    assert!(pe.uvm.evictions > 0, "no eviction pressure");
    assert!(pe.uvm.proactive_evictions > 0, "`etc:50:pe` never evicted ahead of demand");
    assert_eq!(plain.uvm.proactive_evictions, 0);
}

#[test]
fn any_stall_trigger_switches_without_faults() {
    let w = Strided::new(200, 256, 56, 2, 0, 4);
    let m = Simulation::builder()
        .oversubscription("to:any")
        .prefetch("none")
        .try_run(Box::new(w))
        .unwrap();
    assert_eq!(m.uvm.evictions, 0);
    assert!(m.ctx_switches > 0, "AnyStall must switch on memory stalls");
}

#[test]
fn fault_stall_trigger_switches_no_more_than_any_stall() {
    // First-touch demand faults exist even with unlimited memory, so
    // FaultStall may switch — but AnyStall adds every memory stall as a
    // trigger, so it can never switch less.
    let run = |oversub: &str| {
        let w = Strided::new(200, 256, 56, 2, 0, 4);
        Simulation::builder()
            .oversubscription(oversub)
            .prefetch("none")
            .try_run(Box::new(w))
            .unwrap()
    };
    let fault_stall = run("to");
    let any_stall = run("to:any");
    assert!(fault_stall.ctx_switches <= any_stall.ctx_switches);
    assert!(any_stall.ctx_switches > 0);
}

#[test]
fn severe_oversubscription_still_terminates() {
    // Capacity 2 pages, ops spanning more pages than capacity: the
    // per-lane replay rule must guarantee forward progress.
    let w = SharedPages::new(8, 256, 32, 12, 5);
    let m = Simulation::builder().prefetch("none").memory_pages(2).try_run(Box::new(w)).unwrap();
    assert_eq!(m.blocks_retired, 8);
    assert!(m.uvm.evictions > 0);
    assert!(m.uvm.peak_resident_pages <= 2);
}

#[test]
fn severe_oversubscription_terminates_under_ue() {
    let w = SharedPages::new(8, 256, 32, 12, 5);
    let m = Simulation::builder()
        .policy(policies::ue_only())
        .prefetch("none")
        .memory_pages(2)
        .try_run(Box::new(w))
        .unwrap();
    assert_eq!(m.blocks_retired, 8);
}

#[test]
fn compute_only_workload_never_faults() {
    // repeats * compute with one page per warp: after the first touch,
    // everything is compute; the page count equals warps.
    let w = Strided::new(4, 64, 16, 1, 1_000, 16);
    let m = Simulation::builder().prefetch("none").try_run(Box::new(w)).unwrap();
    let faults: u64 = m.uvm.batches.iter().map(|b| u64::from(b.faults)).sum();
    assert_eq!(faults, 4 * 2); // 4 blocks x 2 warps x 1 page
    assert!(m.mem_ops > faults);
}

#[test]
fn mem_ops_count_replays() {
    let w = Strided::new(1, 32, 32, 4, 0, 1);
    let m = Simulation::builder().prefetch("none").try_run(Box::new(w)).unwrap();
    // 4 loads + 4 replays after their faults.
    assert_eq!(m.mem_ops, 8);
}

#[test]
fn builder_ratio_sets_capacity_from_footprint() {
    let w = Strided::new(4, 256, 32, 4, 10, 1); // 4*8*4 = 128 pages
    let m = Simulation::builder().prefetch("none").memory_ratio(0.25).try_run(Box::new(w)).unwrap();
    assert_eq!(m.memory_pages, Some(32));
}

#[test]
fn degenerate_ratios_are_typed_errors() {
    for ratio in [0.0, f64::NAN, f64::INFINITY] {
        let w = Strided::new(1, 32, 32, 1, 0, 1);
        let err = Simulation::builder().memory_ratio(ratio).try_run(Box::new(w)).unwrap_err();
        assert!(
            matches!(err, SimError::InvalidConfig { field: "memory_ratio", .. }),
            "ratio {ratio}: {err:?}"
        );
    }
}

/// Live warp streams of a [`Census`] workload: built and not yet dropped.
#[derive(Default)]
struct StreamCensus {
    live: AtomicUsize,
    peak: AtomicUsize,
    built: AtomicUsize,
}

/// Wraps a workload so that every stream it builds is counted live until
/// the engine drops it. Its streams implement only `next_op`, as a
/// capturing wrapper's do, so the engine issues them through the provided
/// `next_op_into`.
struct Census {
    inner: Box<dyn Workload>,
    census: Arc<StreamCensus>,
}

struct CensusKernel {
    inner: Box<dyn Kernel>,
    census: Arc<StreamCensus>,
}

struct CensusStream {
    inner: BoxedStream,
    census: Arc<StreamCensus>,
}

impl Workload for Census {
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
        Box::new(CensusKernel { inner: self.inner.kernel(k), census: Arc::clone(&self.census) })
    }
}

impl Kernel for CensusKernel {
    fn spec(&self) -> KernelSpec {
        self.inner.spec()
    }

    fn warp_stream(&self, block: BlockId, warp_in_block: u16) -> BoxedStream {
        let c = &self.census;
        c.built.fetch_add(1, Ordering::SeqCst);
        let live = c.live.fetch_add(1, Ordering::SeqCst) + 1;
        c.peak.fetch_max(live, Ordering::SeqCst);
        let inner = self.inner.warp_stream(block, warp_in_block);
        Box::new(CensusStream { inner, census: Arc::clone(c) })
    }
}

impl AccessStream for CensusStream {
    fn next_op(&mut self) -> Option<WarpOp> {
        self.inner.next_op()
    }
}

impl Drop for CensusStream {
    fn drop(&mut self) {
        self.census.live.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn warp_streams_are_released_when_their_warps_retire() {
    // A grid far larger than the GPU holds: streams kept until the kernel
    // ends would peak at every warp of the grid.
    const BLOCKS: u32 = 400;
    let census = Arc::new(StreamCensus::default());
    let inner = Box::new(Strided::new(BLOCKS, 256, 56, 2, 50, 3));
    let spec = inner.kernel(KernelId::new(0)).spec();
    let w = Census { inner, census: Arc::clone(&census) };
    let m = Simulation::builder()
        .policy(policies::to_only())
        .prefetch("none")
        .memory_ratio(0.25)
        .try_run(Box::new(w))
        .unwrap();
    assert!(m.ctx_switches > 0, "TO never switched");
    let gpu = SimConfig::default().gpu;
    let occ = batmem_sim::sm::occupancy(&gpu, &spec);
    let wpb = occ.warps_per_block as usize;
    // Resident blocks: the active slots plus TO's inactive extras.
    let extra_blocks = batmem_uvm::oversub::MAX_EXTRA_BLOCKS;
    let bound = usize::from(gpu.num_sms) * (occ.active_limit + extra_blocks) as usize * wpb;
    let total = BLOCKS as usize * wpb;
    assert_eq!(census.built.load(Ordering::SeqCst), total);
    let peak = census.peak.load(Ordering::SeqCst);
    assert!(peak <= bound, "{peak} live streams > bound {bound}");
    assert!(bound < total, "the grid must outsize the bound for the test to mean anything");
    assert_eq!(census.live.load(Ordering::SeqCst), 0, "streams leaked");
}

#[test]
fn a_stale_address_of_a_retired_block_is_a_state_machine_error() {
    // A grid far larger than the GPU holds: slot 0's first block retires and
    // the slot passes to a later block while the run goes on.
    let w = Strided::new(400, 256, 56, 2, 50, 3);
    let mut e = Simulation::builder().prefetch("none").build(Box::new(w)).unwrap();
    e.launch_kernel(0).unwrap();
    let stale = WarpRef::new(0, 0, e.block_serial[0]);
    let step = |e: &mut Engine| {
        let Some((t, ev)) = e.events.pop() else { return false };
        e.clock = t;
        e.handle(ev).unwrap();
        true
    };
    while e.block_serial[0] == stale.serial {
        assert!(step(&mut e), "the run ended before slot 0 was reused");
    }
    fn is_retired_error(r: Result<(), SimError>) -> bool {
        matches!(r, Err(SimError::StateMachine { state, .. }) if state == "Retired")
    }
    // A duplicate wake of the retired block's warp, and a page waiter it
    // left behind, fail instead of reaching the slot's new block.
    assert!(is_retired_error(e.on_warp_wake(stale)));
    let page = PageId::new(0);
    e.waiters.insert(page, vec![stale]);
    assert!(is_retired_error(e.wake_waiters(page)));
    let live = WarpRef::new(0, 0, e.block_serial[0]);
    assert_eq!(e.resolve(live, "WarpWake").unwrap(), (0, 0));
    // At the end of the grid the last block's slot is not reused: its
    // residency is what rejects the wake.
    while step(&mut e) {}
    assert_eq!(e.blocks_retired, 400);
    let last = WarpRef::new(0, 0, e.block_serial[0]);
    assert!(is_retired_error(e.on_warp_wake(last)));
}

#[test]
fn a_warp_address_keeps_events_at_24_bytes() {
    // A wake's serial fits beside a `u32` slot and warp in 16 bytes, so a
    // timing-wheel node of the engine's queue stays 48 bytes.
    assert_eq!(std::mem::size_of::<WarpRef>(), 16);
    assert_eq!(std::mem::size_of::<Event>(), 24);
}

#[test]
fn default_issue_path_runs_identically_to_the_packed_override() {
    // The same run twice: streams issued through `PackedStream`'s own
    // `next_op_into`, and wrapped so they issue through the trait's
    // default. Under TO+UE at 0.25 the SSSP run switches contexts and
    // evicts (4,070 switches and 132 evictions), so retries, switch-ins
    // and refills all take both paths.
    let graph = Arc::new(batmem_graph::gen::rmat(12, 16, 42));
    for name in ["BFS-TTC", "SSSP-TWC"] {
        let run = |wrap: bool| {
            let inner = batmem_workloads::registry::build(name, Arc::clone(&graph)).unwrap();
            let census = Arc::new(StreamCensus::default());
            let w: Box<dyn Workload> =
                if wrap { Box::new(Census { inner, census: Arc::clone(&census) }) } else { inner };
            let m = Simulation::builder()
                .policy(policies::to_ue())
                .memory_ratio(0.25)
                .try_run(w)
                .unwrap();
            assert_eq!(census.live.load(Ordering::SeqCst), 0, "streams leaked");
            (m, census.built.load(Ordering::SeqCst))
        };
        let (direct, _) = run(false);
        let (wrapped, built) = run(true);
        assert!(built > 0, "{name}: the wrapper saw no streams");
        assert!(direct.uvm.evictions > 0, "{name}: nothing was evicted");
        if name == "SSSP-TWC" {
            assert!(direct.ctx_switches > 0, "{name}: TO never switched");
        }
        assert_eq!(format!("{wrapped:?}"), format!("{direct:?}"), "{name}");
    }
}
