//! Timing benchmarks over the simulator's hot paths, so that performance
//! regressions in the simulator itself are visible.
//!
//! The harness is hand-rolled (`harness = false`) because the offline build
//! cannot fetch Criterion: each benchmark runs a warmup pass, then reports
//! the mean and minimum wall time per iteration over a fixed batch count.
//! Invoke with `cargo bench -p batmem-bench`.

use batmem::{policies, Simulation};
use batmem_graph::gen;
use batmem_sim::{EventQueue, MemPath};
use batmem_types::config::MemConfig;
use batmem_types::{BlockId, FrameId, KernelId, PageId, SimConfig, SmId, VirtAddr};
use batmem_uvm::{
    FaultBuffer, MemoryManager, PciePipes, PolicyRegistry, StrategyCtx, TreePrefetcher, UvmRuntime,
};
use batmem_vmem::Mmu;
use batmem_workloads::registry;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Times `f` over `iters` iterations (after one warmup) and prints a row.
fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) {
    black_box(f());
    let mut total = 0.0f64;
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        black_box(f());
        let dt = start.elapsed().as_secs_f64();
        total += dt;
        best = best.min(dt);
    }
    let mean = total / f64::from(iters);
    println!(
        "{name:<36} {:>12.1} us/iter (min {:>10.1} us, {iters} iters)",
        mean * 1e6,
        best * 1e6
    );
}

fn bench_event_queue() {
    // The warp-wake fast path: every push lands at the current cycle, so
    // all traffic stays in the same-cycle FIFO ring.
    let mut q: EventQueue<u32> = EventQueue::with_capacity(1024);
    let mut now = 0u64;
    bench("events/push_pop_same_cycle_x1024", 500, || {
        for i in 0..1024u32 {
            q.push(now, i);
        }
        let mut acc = 0u32;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        now += 1;
        q.push(now, 0);
        q.pop(); // advance the ring's cycle for the next iteration
        acc
    });

    // Mixed scheduling horizons, shaped like the engine's real event mix:
    // same-cycle wakes, short memory latencies, fault-handling windows,
    // and far-future periodic ticks that overflow the wheel.
    let mut q: EventQueue<u32> = EventQueue::with_capacity(1024);
    let mut now = 0u64;
    bench("events/mixed_horizon_x1024", 500, || {
        for i in 0..1024u32 {
            let delta = match i % 8 {
                0..=2 => 0,                  // ring: re-enqueue at `now`
                3 | 4 => u64::from(i) % 600, // wheel L0/L1: memory latency
                5 => 20_000,                 // wheel L2: handling window
                6 => 100_000,                // wheel L3: sample period
                _ => 20_000_000,             // overflow: beyond the horizon
            };
            q.push(now + delta, i);
        }
        let mut acc = 0u32;
        while let Some((t, v)) = q.pop() {
            now = t;
            acc = acc.wrapping_add(v);
        }
        acc
    });
}

fn bench_fault_buffer() {
    bench("fault_buffer/record_drain_1024", 200, || {
        let mut buf = FaultBuffer::new(1024);
        for i in 0..1024u64 {
            buf.record(PageId::new(i * 7 % 997));
        }
        buf.drain_sorted()
    });
}

fn bench_prefetcher() {
    let faulted: Vec<PageId> = (0..512u64).map(|i| PageId::new(i * 2)).collect();
    bench("prefetcher/expand_512_faults", 200, || {
        let mut pf = TreePrefetcher::new(32, 50);
        pf.expand(&faulted, |_| false, 100_000)
    });
}

fn bench_memory_manager() {
    bench("memmgr/fill_evict_4096", 100, || {
        let mut m = MemoryManager::new(Some(4096));
        for i in 0..8192u64 {
            let frame = match m.take_frame() {
                Some(f) => f,
                None => {
                    let (v, _) = m.pick_victim(|_| false).expect("memory is full");
                    let f = m.remove(v, 0).expect("victim is resident");
                    m.release_frame(f);
                    m.take_frame().unwrap()
                }
            };
            m.mark_resident(PageId::new(i), frame, 0).expect("fresh page");
        }
        m.resident_count()
    });
}

fn bench_cache_index() {
    // The data cache resolves set indices with a mask when the set count
    // is a power of two and falls back to `% sets` otherwise. To price
    // the division itself (not the LRU scan), both rows use a
    // direct-mapped cache whose working set fits — every access after
    // warmup is a single-compare hit, so index arithmetic is most of the
    // per-access work. 1024 sets takes the mask path; 1000 sets (same
    // ways, line size, and 100 % hit rate) takes the modulo path.
    let addrs: Vec<batmem_types::VirtAddr> = (0..4096u64)
        .map(|i| batmem_types::VirtAddr::new((i.wrapping_mul(0x9E37_79B9) % 500) << 7))
        .collect();
    let pow2 = batmem_types::config::CacheGeometry {
        capacity_bytes: 1024 * 128,
        ways: 1,
        line_shift: 7,
        hit_latency: 4,
    };
    let odd = batmem_types::config::CacheGeometry { capacity_bytes: 1000 * 128, ..pow2 };
    let mut mask_cache = batmem_sim::DataCache::new(pow2);
    bench("cache/set_index_mask_x4096", 500, || {
        let mut hits = 0u32;
        for &a in &addrs {
            hits += u32::from(mask_cache.access(a));
        }
        hits
    });
    let mut mod_cache = batmem_sim::DataCache::new(odd);
    bench("cache/set_index_modulo_x4096", 500, || {
        let mut hits = 0u32;
        for &a in &addrs {
            hits += u32::from(mod_cache.access(a));
        }
        hits
    });
}

fn bench_mempath() {
    // The Table 1 data path: 16 SMs' 4-way L1s over the shared 16-way L2.
    // Half the stream reuses 64 lines per SM: three in four of those
    // accesses hit the L1 and the rest hit the L2. The other half scatters
    // over 2^20 lines, 64x the L2, so nearly all of it goes to DRAM and
    // keeps evicting. Each iteration takes the next 4096 accesses of a
    // 64 K stream, so the cold half does not settle into the L2.
    const WINDOW: usize = 4096;
    let stream: Vec<(usize, VirtAddr)> = (0..16 * WINDOW as u64)
        .map(|i| {
            let sm = i % 16;
            let h = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let line = if h >> 63 == 0 { sm * 64 + (h >> 40) % 64 } else { (1 << 16) + (h >> 44) };
            (sm as usize, VirtAddr::new(line << 7))
        })
        .collect();
    let mut mem = MemPath::new(&MemConfig::default(), 16);
    let mut windows = stream.chunks(WINDOW).cycle();
    bench("mempath/table1_scattered_x4096", 500, || {
        let mut latency = 0;
        for &(sm, a) in windows.next().expect("the stream cycles") {
            latency += mem.access(sm, a);
        }
        latency
    });
}

fn bench_mmu_translate() {
    let mut mmu = Mmu::new(&SimConfig::default());
    for i in 0..64u64 {
        mmu.install(PageId::new(i), FrameId::new(i as u32), 0).expect("fresh page");
        let _ = mmu.translate(SmId::new(0), PageId::new(i), 0);
    }
    let mut now = 0;
    bench("mmu/translate_hit_path_x1024", 500, || {
        for _ in 0..1024 {
            now += 1;
            black_box(mmu.translate(SmId::new(0), PageId::new(now % 64), now).expect("resident"));
        }
    });
}

fn bench_pcie() {
    bench("pcie/schedule_1024_pages", 200, || {
        let mut p = PciePipes::new(15_750_000_000, 17_300_000_000);
        for _ in 0..1024 {
            black_box(p.schedule_h2d(0, 65_536));
        }
        p.h2d_free_at()
    });
}

/// Feeds 512 faults into `rt` and drives the runtime's own events to
/// completion; returns the batch count. Uses the engine's allocation-free
/// `_into` entry points with one recycled scratch buffer, like the real
/// event loop.
fn drive_512_faults(mut rt: UvmRuntime) -> u64 {
    let mut outs: Vec<batmem_uvm::UvmOutput> = Vec::new();
    let mut queue: Vec<(u64, batmem_uvm::UvmEvent)> = Vec::new();
    let push = |os: &mut Vec<batmem_uvm::UvmOutput>, q: &mut Vec<_>| {
        for o in os.drain(..) {
            if let batmem_uvm::UvmOutput::Schedule { at, event } = o {
                q.push((at, event));
            }
        }
    };
    for i in 0..512u64 {
        rt.record_fault_into(PageId::new(i * 3), 0, &mut outs).expect("fresh fault");
        push(&mut outs, &mut queue);
    }
    while !queue.is_empty() {
        queue.sort_by_key(|&(t, _)| t);
        let (t, e) = queue.remove(0);
        rt.on_event_into(e, t, &mut outs).expect("runtime accepts its own events");
        push(&mut outs, &mut queue);
    }
    rt.stats().num_batches()
}

/// A fresh runtime with 256 frames whose eviction strategy is `eviction`,
/// with tree prefetching, built through the registry as every run is.
fn uvm_runtime(reg: &PolicyRegistry, eviction: &str) -> UvmRuntime {
    let cfg = batmem_types::config::UvmConfig { gpu_mem_pages: Some(256), ..Default::default() };
    let ctx = StrategyCtx { pages_per_region: cfg.pages_per_region() };
    UvmRuntime::with_strategies(
        &cfg,
        &batmem_types::policy::PolicyConfig::default(),
        100_000,
        reg.build_eviction(eviction, &ctx).expect("builtin spec"),
        reg.build_prefetcher("tree:50", &ctx).expect("builtin spec"),
        reg.build_coalesce("off").expect("builtin spec"),
    )
}

fn bench_uvm_batch() {
    let reg = PolicyRegistry::builtin();
    bench("uvm/batch_512_faults", 100, || drive_512_faults(uvm_runtime(&reg, "lru")));
}

fn bench_uvm_batch_registry() {
    // The same workload under UE: pipelined evictions on the D2H pipe.
    let reg = PolicyRegistry::builtin();
    bench("uvm/batch_512_faults_registry_ue", 100, || drive_512_faults(uvm_runtime(&reg, "ue")));
}

fn bench_graph_gen() {
    bench("graph/rmat_scale12", 20, || gen::rmat(12, 8, 42));
    // KCORE's and GC-*'s derived graph, built inside every sweep cell.
    let graph = gen::rmat(15, 16, 42);
    bench("graph/symmetrized_scale15", 10, || graph.symmetrized());
}

fn bench_stream_fabrication() {
    // Every warp stream of PR at scale 14, built and drained through
    // `next_op_into`: push-style scatters over a power-law graph, whose
    // hubs gather thousands of neighbour lines per op. PR fabricates one
    // vertex at a time as its warp issues, so fabrication is timed only
    // with the ops drained.
    let w = registry::build("PR", Arc::new(gen::rmat(14, 16, 42))).unwrap();
    let kernels: Vec<_> = (0..w.num_kernels()).map(|k| w.kernel(KernelId::new(k))).collect();
    let warp_size = SimConfig::default().gpu.warp_size;
    let mut txns = Vec::new();
    bench("stream/pr_scale14_build_drain", 20, || {
        let mut issued = 0u64;
        for kernel in &kernels {
            let spec = kernel.spec();
            for blk in 0..spec.num_blocks {
                for warp in 0..spec.warps_per_block(warp_size) {
                    let mut stream = kernel.warp_stream(BlockId::new(blk), warp as u16);
                    while let Some(kind) = stream.next_op_into(&mut txns) {
                        black_box(kind);
                        issued += txns.len() as u64 + 1;
                    }
                }
            }
        }
        issued
    });
}

fn bench_stream_issue() {
    // Every warp stream of SSSP-TWC at scale 14, built and drained through
    // `next_op_into` as the engine issues them: short streams whose memory
    // ops mostly carry one transaction, so per-op decoding shows here.
    let w = registry::build("SSSP-TWC", Arc::new(gen::rmat(14, 16, 42))).unwrap();
    let kernels: Vec<_> = (0..w.num_kernels()).map(|k| w.kernel(KernelId::new(k))).collect();
    let warp_size = SimConfig::default().gpu.warp_size;
    let mut txns = Vec::new();
    bench("stream/sssp_twc_scale14_build_drain", 20, || {
        let mut issued = 0u64;
        for kernel in &kernels {
            let spec = kernel.spec();
            for blk in 0..spec.num_blocks {
                for warp in 0..spec.warps_per_block(warp_size) {
                    let mut stream = kernel.warp_stream(BlockId::new(blk), warp as u16);
                    while let Some(kind) = stream.next_op_into(&mut txns) {
                        black_box(kind);
                        issued += txns.len() as u64 + 1;
                    }
                }
            }
        }
        issued
    });
}

fn bench_end_to_end() {
    let graph = Arc::new(gen::rmat(10, 8, 42));
    bench("end_to_end/bfs_ttc_scale10_to_ue", 10, || {
        let w = registry::build("BFS-TTC", Arc::clone(&graph)).unwrap();
        Simulation::builder().policy(policies::to_ue()).memory_ratio(0.5).try_run(w).unwrap()
    });
    // Thread oversubscription's switch path: tiny SSSP-TWC blocks at a
    // quarter of the footprint stall, switch (4,070 times) and retry
    // faulted ops. Edge factor 16, not 8: rmat(10..=12, 8, 42) at 0.25
    // ends in TO+UE's two-frame livelock.
    let graph = Arc::new(gen::rmat(12, 16, 42));
    bench("end_to_end/sssp_twc_scale12_to_ue_r025", 10, || {
        let w = registry::build("SSSP-TWC", Arc::clone(&graph)).unwrap();
        Simulation::builder().policy(policies::to_ue()).memory_ratio(0.25).try_run(w).unwrap()
    });
}

fn main() {
    println!("{:<36} {:>25}", "benchmark", "time");
    bench_event_queue();
    bench_fault_buffer();
    bench_prefetcher();
    bench_memory_manager();
    bench_cache_index();
    bench_mempath();
    bench_mmu_translate();
    bench_pcie();
    bench_uvm_batch();
    bench_uvm_batch_registry();
    bench_graph_gen();
    bench_stream_fabrication();
    bench_end_to_end();
    bench_stream_issue();
}
