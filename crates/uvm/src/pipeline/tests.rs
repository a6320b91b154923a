//! Unit tests for the staged fault pipeline, driven through the runtime's
//! own scheduled events.

use super::*;

fn cfg(cap: Option<u64>) -> UvmConfig {
    UvmConfig { gpu_mem_pages: cap, ..UvmConfig::default() }
}

fn p(i: u64) -> PageId {
    PageId::new(i)
}

/// A runtime over `cfg` with its eviction, prefetch and coalesce strategies
/// built from registry specs. Most tests pass prefetch `none`, so batches
/// contain exactly their faulted pages and timing assertions stay
/// page-exact.
fn runtime(
    cfg: &UvmConfig,
    eviction: &str,
    prefetch: &str,
    coalesce: &str,
    valid_pages: u64,
) -> UvmRuntime {
    let reg = crate::registry::PolicyRegistry::builtin();
    let ctx = crate::registry::StrategyCtx { pages_per_region: cfg.pages_per_region() };
    UvmRuntime::with_strategies(
        cfg,
        &PolicyConfig::default(),
        valid_pages,
        reg.build_eviction(eviction, &ctx).unwrap(),
        reg.build_prefetcher(prefetch, &ctx).unwrap(),
        reg.build_coalesce(coalesce).unwrap(),
    )
}

/// Per-page (page, cycle) event times, in occurrence order.
type Timeline = Vec<(PageId, Cycle)>;

/// Drives the runtime's own scheduled events to completion, returning
/// (install times, evict times) per page and the final time.
fn drain(rt: &mut UvmRuntime, initial: Vec<UvmOutput>) -> (Timeline, Timeline) {
    let mut queue: Vec<(Cycle, UvmEvent)> = Vec::new();
    let mut installs = Vec::new();
    let mut evicts = Vec::new();
    let apply = |outs: Vec<UvmOutput>, at: Cycle, queue: &mut Vec<(Cycle, UvmEvent)>, installs: &mut Timeline, evicts: &mut Timeline| {
        for o in outs {
            match o {
                UvmOutput::Schedule { at, event } => queue.push((at, event)),
                UvmOutput::Install { page, .. } => installs.push((page, at)),
                UvmOutput::Evict { page } => evicts.push((page, at)),
                // Coalescing is off in these tests; the variants never fire.
                UvmOutput::Coalesce { region } => panic!("unexpected coalesce of {region}"),
                UvmOutput::Splinter { region } => panic!("unexpected splinter of {region}"),
            }
        }
    };
    apply(initial, 0, &mut queue, &mut installs, &mut evicts);
    while !queue.is_empty() {
        queue.sort_by_key(|&(t, _)| t);
        let (t, e) = queue.remove(0);
        let outs = rt.on_event(e, t).unwrap();
        apply(outs, t, &mut queue, &mut installs, &mut evicts);
    }
    (installs, evicts)
}

#[test]
fn single_fault_single_batch() {
    let mut rt = runtime(&cfg(None), "lru", "none", "off", 1000);
    let outs = rt.record_fault(p(5), 100).unwrap();
    let (installs, _) = drain(&mut rt, outs);
    assert_eq!(installs.len(), 1);
    let (page, at) = installs[0];
    assert_eq!(page, p(5));
    // ISR latency + 20 us handling (+30/fault) + one 64 KB transfer.
    assert_eq!(at, 100 + 1_000 + 20_000 + 30 + 4162);
    let s = rt.stats();
    assert_eq!(s.num_batches(), 1);
    assert_eq!(s.batches[0].faults, 1);
    assert_eq!(s.batches[0].fault_handling_time(), 20_030);
}

#[test]
fn faults_during_batch_form_next_batch() {
    let mut rt = runtime(&cfg(None), "lru", "none", "off", 1000);
    let outs = rt.record_fault(p(1), 0).unwrap();
    assert_eq!(outs.len(), 1); // DrainBuffer scheduled
    let outs = rt.on_event(UvmEvent::DrainBuffer, 1_000).unwrap();
    // Fault raised while the first batch is handling: queues silently.
    assert!(rt.record_fault(p(2), 5_000).unwrap().is_empty());
    let (installs, _) = drain(&mut rt, outs);
    assert_eq!(installs.len(), 2);
    let s = rt.stats();
    assert_eq!(s.num_batches(), 2);
    assert_eq!(s.batches[0].faults, 1);
    assert_eq!(s.batches[1].faults, 1);
    // Second batch starts exactly when the first ends (replay path).
    assert_eq!(s.batches[1].start, s.batches[0].end);
}

#[test]
fn same_cycle_faults_join_via_isr_window() {
    let mut rt = runtime(&cfg(None), "lru", "none", "off", 1000);
    let mut outs = rt.record_fault(p(1), 0).unwrap();
    outs.extend(rt.record_fault(p(2), 400).unwrap()); // inside the 1 us ISR window
    let (installs, _) = drain(&mut rt, outs);
    assert_eq!(installs.len(), 2);
    assert_eq!(rt.stats().num_batches(), 1);
}

#[test]
fn batch_groups_simultaneous_faults() {
    let mut rt = runtime(&cfg(None), "lru", "none", "off", 1000);
    let mut outs = rt.record_fault(p(3), 0).unwrap();
    outs.extend(rt.record_fault(p(1), 0).unwrap());
    outs.extend(rt.record_fault(p(2), 0).unwrap());
    let (installs, _) = drain(&mut rt, outs);
    let s = rt.stats();
    assert_eq!(s.num_batches(), 1);
    assert_eq!(s.batches[0].faults, 3);
    // Pages migrate in ascending address order (preprocessing sort).
    let pages: Vec<PageId> = installs.iter().map(|&(p, _)| p).collect();
    assert_eq!(pages, vec![p(1), p(2), p(3)]);
}

#[test]
fn prefetcher_fills_dense_regions() {
    let mut rt = runtime(&cfg(None), "lru", "tree:50", "off", 64);
    // 16 of 32 pages of region 0 fault: 50% threshold fires.
    let mut outs = Vec::new();
    for i in 0..16 {
        outs.extend(rt.record_fault(p(i * 2), 0).unwrap());
    }
    let (installs, _) = drain(&mut rt, outs);
    assert_eq!(installs.len(), 32);
    let s = rt.stats();
    assert_eq!(s.batches[0].faults, 16);
    assert_eq!(s.batches[0].prefetches, 16);
}

#[test]
fn serialized_eviction_blocks_migration() {
    let mut rt = runtime(&cfg(Some(1)), "lru", "none", "off", 1000);
    let outs = rt.record_fault(p(1), 0).unwrap();
    let (installs, _) = drain(&mut rt, outs);
    let first_arrival = installs[0].1;
    // Now page 1 is resident and memory is full; fault page 2.
    let outs = rt.record_fault(p(2), first_arrival + 1).unwrap();
    let (installs, evicts) = drain(&mut rt, outs);
    assert_eq!(evicts.len(), 1);
    assert_eq!(evicts[0].0, p(1));
    let s = rt.stats();
    let b = &s.batches[1];
    // Migration could not start at handling_done: it waited for the
    // eviction transfer.
    assert!(b.first_migration_start > b.handling_done);
    assert_eq!(installs.last().unwrap().0, p(2));
}

#[test]
fn unobtrusive_eviction_overlaps_handling() {
    let mut rt = runtime(&cfg(Some(1)), "ue", "none", "off", 1000);
    let outs = rt.record_fault(p(1), 0).unwrap();
    let (installs, _) = drain(&mut rt, outs);
    let t = installs[0].1;
    let outs = rt.record_fault(p(2), t + 1).unwrap();
    let (_, evicts) = drain(&mut rt, outs);
    assert_eq!(rt.preemptive_evictions(), 1);
    // The eviction started right at batch start (top-half ISR), inside
    // the handling window.
    let s = rt.stats();
    let b = &s.batches[1];
    assert_eq!(evicts.last().unwrap().1, b.start);
    // And the first migration starts exactly at handling-done.
    assert_eq!(b.first_migration_start, b.handling_done);
}

#[test]
fn ideal_eviction_is_free() {
    let mut rt = runtime(&cfg(Some(1)), "ideal", "none", "off", 1000);
    let outs = rt.record_fault(p(1), 0).unwrap();
    drain(&mut rt, outs);
    let outs = rt.record_fault(p(2), 100_000).unwrap();
    drain(&mut rt, outs);
    let s = rt.stats();
    let b = &s.batches[1];
    assert_eq!(b.first_migration_start, b.handling_done);
    // No D2H traffic at all.
    assert_eq!(s.d2h_bytes, 0);
    assert_eq!(s.evictions, 1);
}

#[test]
fn premature_eviction_detected_on_refault() {
    let mut rt = runtime(&cfg(Some(1)), "lru", "none", "off", 1000);
    let outs = rt.record_fault(p(1), 0).unwrap();
    drain(&mut rt, outs);
    let outs = rt.record_fault(p(2), 100_000).unwrap(); // evicts p1
    drain(&mut rt, outs);
    let outs = rt.record_fault(p(1), 200_000).unwrap(); // refault: premature
    drain(&mut rt, outs);
    let s = rt.stats();
    assert_eq!(s.premature_evictions, 1);
    assert_eq!(s.evictions, 2);
}

#[test]
fn fault_on_inflight_page_is_absorbed() {
    let mut rt = runtime(&cfg(None), "lru", "none", "off", 1000);
    let outs = rt.record_fault(p(1), 0).unwrap();
    // A duplicate inside the ISR window coalesces in the buffer.
    assert!(rt.record_fault(p(1), 10).unwrap().is_empty());
    let outs = {
        assert_eq!(outs.len(), 1);
        rt.on_event(UvmEvent::DrainBuffer, 1_000).unwrap()
    };
    // A duplicate while the batch is open is absorbed by the open plan.
    assert!(rt.record_fault(p(1), 5_000).unwrap().is_empty());
    drain(&mut rt, outs);
    let s = rt.stats();
    assert_eq!(s.num_batches(), 1);
    assert_eq!(s.faults_deduped, 1);
    assert_eq!(s.faults_on_inflight, 1);
    assert_eq!(s.batches[0].faults, 1);
}

#[test]
fn capacity_is_never_exceeded() {
    let mut rt = runtime(&cfg(Some(4)), "lru", "none", "off", 1000);
    for round in 0..5u64 {
        let mut outs = Vec::new();
        for i in 0..3 {
            outs.extend(rt.record_fault(p(round * 3 + i), round * 1_000_000).unwrap());
        }
        drain(&mut rt, outs);
        assert!(rt.resident_pages() <= 4, "round {round}: {}", rt.resident_pages());
    }
}

#[test]
fn batch_larger_than_capacity_forces_pinned_evictions() {
    let mut rt = runtime(&cfg(Some(2)), "lru", "none", "off", 1000);
    let mut outs = Vec::new();
    for i in 0..5 {
        outs.extend(rt.record_fault(p(i), 0).unwrap());
    }
    let (installs, evicts) = drain(&mut rt, outs);
    assert_eq!(installs.len(), 5);
    assert_eq!(evicts.len(), 3);
    let s = rt.stats();
    assert!(s.batches[0].forced_pinned_evictions > 0);
    assert!(rt.resident_pages() <= 2);
}

#[test]
fn unlimited_memory_never_evicts() {
    let mut rt = runtime(&cfg(None), "lru", "tree:50", "off", 10_000);
    let mut outs = Vec::new();
    for i in 0..200 {
        outs.extend(rt.record_fault(p(i * 7), i).unwrap());
    }
    let (_, evicts) = drain(&mut rt, outs);
    assert!(evicts.is_empty());
    assert_eq!(rt.stats().evictions, 0);
}

#[test]
fn handling_time_scales_with_batch_size() {
    let mut rt = runtime(&cfg(None), "lru", "none", "off", 10_000);
    let mut outs = Vec::new();
    for i in 0..100 {
        outs.extend(rt.record_fault(p(i), 0).unwrap());
    }
    drain(&mut rt, outs);
    let s = rt.stats();
    assert_eq!(s.batches[0].handling_cycles(), 20_000 + 30 * 100);
}

#[test]
fn refault_of_force_evicted_batch_page_is_not_absorbed() {
    // Capacity 2, batch of 5: later migrations force-evict earlier
    // pages of the same batch. A fault for such a page while the batch
    // is still open must be recorded for the next batch, not absorbed.
    let mut rt = runtime(&cfg(Some(2)), "lru", "none", "off", 1000);
    let mut outs = Vec::new();
    for i in 0..5 {
        outs.extend(rt.record_fault(p(i), 0).unwrap());
    }
    // Drive until the batch finishes.
    let (installs, evicts) = drain(&mut rt, outs);
    assert_eq!(installs.len(), 5);
    assert!(evicts.iter().any(|&(pg, _)| pg.index() < 5), "no same-batch eviction");
    // Re-fault an evicted page: a fresh batch must deliver it again.
    let victim = evicts[0].0;
    let outs = rt.record_fault(victim, 10_000_000).unwrap();
    assert!(!outs.is_empty(), "refault swallowed");
    let (installs, _) = drain(&mut rt, outs);
    assert_eq!(installs.len(), 1);
    assert_eq!(installs[0].0, victim);
}

#[test]
fn proactive_eviction_frees_frames_ahead_of_demand() {
    let mut rt = runtime(&cfg(Some(2)), "lru", "none", "off", 1000);
    rt.enable_proactive_eviction();
    // Fill memory.
    let mut outs = Vec::new();
    for i in 0..2 {
        outs.extend(rt.record_fault(p(i), 0).unwrap());
    }
    drain(&mut rt, outs);
    // A two-page batch: PE must evict two pages at batch start, so the
    // migrations are not serialized behind reactive evictions.
    let mut outs = Vec::new();
    for i in 2..4 {
        outs.extend(rt.record_fault(p(i), 1_000_000).unwrap());
    }
    let (_, evicts) = drain(&mut rt, outs);
    assert_eq!(evicts.len(), 2);
    let s = rt.stats();
    assert_eq!(s.proactive_evictions, 2);
    let b = &s.batches[1];
    // Evictions overlapped the handling window: first migration starts
    // right at handling-done despite full memory.
    assert_eq!(b.first_migration_start, b.handling_done);
}

#[test]
fn per_page_time_amortizes_with_batch_size() {
    // Fig. 3's shape: bigger batches => lower per-page cost.
    let mut small = runtime(&cfg(None), "lru", "none", "off", 10_000);
    let outs = small.record_fault(p(0), 0).unwrap();
    drain(&mut small, outs);
    let mut large = runtime(&cfg(None), "lru", "none", "off", 10_000);
    let mut outs = Vec::new();
    for i in 0..64 {
        outs.extend(large.record_fault(p(i), 0).unwrap());
    }
    drain(&mut large, outs);
    let t_small = small.stats().batches[0].per_page_time().unwrap();
    let t_large = large.stats().batches[0].per_page_time().unwrap();
    assert!(t_large < t_small / 2.0, "{t_large} vs {t_small}");
}

#[test]
fn random_victim_plugs_in_without_touching_the_pipeline() {
    // The registry-only strategy drives the full pipeline: victims come
    // from the RNG, capacity holds, and transfers are serialized.
    let mut rt = runtime(&cfg(Some(4)), "random:7", "none", "off", 1000);
    rt.set_audit(AuditLevel::Full);
    let mut evict_count = 0;
    for round in 0..6u64 {
        let mut outs = Vec::new();
        for i in 0..3 {
            outs.extend(rt.record_fault(p(round * 3 + i), round * 1_000_000).unwrap());
        }
        let (_, evicts) = drain(&mut rt, outs);
        evict_count += evicts.len();
        assert!(rt.resident_pages() <= 4);
    }
    assert!(evict_count > 0);
    assert!(rt.stats().d2h_bytes > 0, "random victim schedules real transfers");
}

/// Drives faults through a coalescing runtime in three rounds — fill group
/// 0, displace it with group 1, then refill group 0 — returning the
/// coalesced regions, splintered regions, and final promoted-group count.
fn drive_coalesce_rounds(spec: &str) -> (Vec<RegionId>, Vec<RegionId>, usize) {
    use batmem_types::PageGeometry;
    let mut c = cfg(Some(4));
    // 4 base pages per large-page group.
    c.geometry = PageGeometry::new(16, 18, 21).unwrap();
    let mut rt = runtime(&c, "lru", "none", spec, 1000);
    rt.set_audit(AuditLevel::Full);
    let mut coalesced = Vec::new();
    let mut splintered = Vec::new();
    let rounds: [&[u64]; 3] = [&[0, 1, 2, 3], &[4, 5, 6, 7], &[0, 1, 2, 3]];
    for (r, pages) in rounds.iter().enumerate() {
        let t0 = r as Cycle * 100_000_000;
        let mut queue: Vec<(Cycle, UvmEvent)> = Vec::new();
        let apply = |outs: Vec<UvmOutput>,
                     queue: &mut Vec<(Cycle, UvmEvent)>,
                     coalesced: &mut Vec<RegionId>,
                     splintered: &mut Vec<RegionId>| {
            for o in outs {
                match o {
                    UvmOutput::Schedule { at, event } => queue.push((at, event)),
                    UvmOutput::Coalesce { region } => coalesced.push(region),
                    UvmOutput::Splinter { region } => splintered.push(region),
                    UvmOutput::Install { .. } | UvmOutput::Evict { .. } => {}
                }
            }
        };
        for &i in *pages {
            let outs = rt.record_fault(p(i), t0).unwrap();
            apply(outs, &mut queue, &mut coalesced, &mut splintered);
        }
        while !queue.is_empty() {
            queue.sort_by_key(|&(t, _)| t);
            let (t, e) = queue.remove(0);
            let outs = rt.on_event(e, t).unwrap();
            apply(outs, &mut queue, &mut coalesced, &mut splintered);
        }
    }
    let promoted = rt.promoted_groups();
    (coalesced, splintered, promoted)
}

#[test]
fn greedy_coalescing_promotes_splinters_and_repromotes() {
    let (coalesced, splintered, promoted) = drive_coalesce_rounds("greedy");
    // Round 1 promotes group 0; round 2's evictions splinter it and promote
    // group 1; round 3 splinters group 1 and re-promotes group 0.
    assert_eq!(coalesced, vec![RegionId::new(0), RegionId::new(1), RegionId::new(0)]);
    assert_eq!(splintered, vec![RegionId::new(0), RegionId::new(1)]);
    assert_eq!(promoted, 1);
}

#[test]
fn splinter_on_evict_never_repromotes_a_splintered_group() {
    let (coalesced, splintered, promoted) = drive_coalesce_rounds("splinter:on-evict");
    // Same history, but group 0's round-3 refill stays at base granularity.
    assert_eq!(coalesced, vec![RegionId::new(0), RegionId::new(1)]);
    assert_eq!(splintered, vec![RegionId::new(0), RegionId::new(1)]);
    assert_eq!(promoted, 0);
}

#[test]
fn coalescing_completion_pulls_in_missing_group_pages() {
    use batmem_types::PageGeometry;
    let mut c = cfg(None);
    c.geometry = PageGeometry::new(16, 18, 21).unwrap(); // 4 pages per group
    let mut rt = runtime(&c, "lru", "none", "greedy:75", 1000);
    rt.set_audit(AuditLevel::Full);
    // 3 of 4 group pages fault (75%): the batch completes the group, the
    // non-faulted page migrates as a prefetch, and the group promotes.
    let mut queue: Vec<(Cycle, UvmEvent)> = Vec::new();
    let mut coalesces = 0;
    let mut installs = Vec::new();
    let apply = |outs: Vec<UvmOutput>,
                 queue: &mut Vec<(Cycle, UvmEvent)>,
                 coalesces: &mut u32,
                 installs: &mut Vec<PageId>| {
        for o in outs {
            match o {
                UvmOutput::Schedule { at, event } => queue.push((at, event)),
                UvmOutput::Coalesce { .. } => *coalesces += 1,
                UvmOutput::Install { page, .. } => installs.push(page),
                UvmOutput::Evict { .. } | UvmOutput::Splinter { .. } => {}
            }
        }
    };
    for i in [0u64, 1, 3] {
        let outs = rt.record_fault(p(i), 0).unwrap();
        apply(outs, &mut queue, &mut coalesces, &mut installs);
    }
    while !queue.is_empty() {
        queue.sort_by_key(|&(t, _)| t);
        let (t, e) = queue.remove(0);
        let outs = rt.on_event(e, t).unwrap();
        apply(outs, &mut queue, &mut coalesces, &mut installs);
    }
    installs.sort_unstable();
    assert_eq!(installs, vec![p(0), p(1), p(2), p(3)], "page 2 was pulled in");
    assert_eq!(coalesces, 1);
    assert_eq!(rt.promoted_groups(), 1);
    let b = &rt.stats().batches[0];
    assert_eq!((b.faults, b.prefetches), (3, 1));
}
