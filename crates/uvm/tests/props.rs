//! Property-based tests for the UVM runtime: structural invariants must
//! hold for arbitrary fault sequences under every eviction policy.

use batmem_types::config::UvmConfig;
use batmem_types::policy::PolicyConfig;
use batmem_types::{AuditLevel, Cycle, PageId};
use batmem_uvm::{
    FaultBuffer, MemoryManager, PolicyRegistry, StrategyCtx, TreePrefetcher, UvmEvent, UvmOutput,
    UvmRuntime,
};
use proptest::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};

/// The fault buffer as it was before it moved onto a `PageSet`, kept as
/// the reference model: buffered pages and overflowed pages in two ordered
/// sets, beside a count of buffer entries.
struct SetFaultBuffer {
    capacity: usize,
    entries: usize,
    present: BTreeSet<PageId>,
    overflow: BTreeSet<PageId>,
    raised: u64,
    duplicates: u64,
    overflows: u64,
}

impl SetFaultBuffer {
    fn new(capacity: u32) -> Self {
        Self {
            capacity: capacity as usize,
            entries: 0,
            present: BTreeSet::new(),
            overflow: BTreeSet::new(),
            raised: 0,
            duplicates: 0,
            overflows: 0,
        }
    }

    fn record(&mut self, page: PageId) {
        self.raised += 1;
        if self.present.contains(&page) || self.overflow.contains(&page) {
            self.duplicates += 1;
            return;
        }
        if self.entries < self.capacity {
            self.entries += 1;
            self.present.insert(page);
        } else {
            self.overflow.insert(page);
            self.overflows += 1;
        }
    }

    fn drain_sorted(&mut self) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self.present.iter().copied().collect();
        pages.extend(self.overflow.iter().copied());
        pages.sort_unstable();
        pages.dedup();
        self.entries = 0;
        self.present.clear();
        self.overflow.clear();
        pages
    }

    fn pending(&self) -> usize {
        self.present.len() + self.overflow.len()
    }
}

proptest! {
    /// Random faults over pages `0..100` with drains interleaved (a step
    /// of 100 or more drains): every drain and every counter matches the
    /// two-set model after every step.
    #[test]
    fn fault_buffer_drains_sorted_distinct(
        steps in prop::collection::vec(0u64..105, 0..400),
        cap in 1u32..64,
    ) {
        let mut buf = FaultBuffer::new(cap);
        let mut model = SetFaultBuffer::new(cap);
        for &step in &steps {
            match step {
                p @ 0..100 => {
                    buf.record(PageId::new(p));
                    model.record(PageId::new(p));
                }
                _ => {
                    let drained = buf.drain_sorted();
                    prop_assert!(drained.windows(2).all(|w| w[0] < w[1]), "drain not sorted and distinct");
                    prop_assert_eq!(drained, model.drain_sorted());
                    prop_assert!(buf.is_empty());
                }
            }
            prop_assert_eq!(buf.pending(), model.pending());
            prop_assert_eq!(buf.is_empty(), model.pending() == 0);
            prop_assert_eq!(buf.raised(), model.raised);
            prop_assert_eq!(buf.duplicates(), model.duplicates);
            prop_assert_eq!(buf.overflows(), model.overflows);
        }
        prop_assert_eq!(buf.drain_sorted(), model.drain_sorted());
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn prefetcher_output_is_disjoint_and_bounded(
        faults in prop::collection::vec(0u64..200, 1..100),
        threshold in 0u8..=100,
        valid in 1u64..250,
    ) {
        let mut sorted: Vec<PageId> =
            faults.iter().map(|&p| PageId::new(p)).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let mut pf = TreePrefetcher::new(32, threshold);
        let out = pf.expand(&sorted, |_| false, valid);
        let fault_set: HashSet<PageId> = sorted.iter().copied().collect();
        for p in &out {
            prop_assert!(!fault_set.contains(p), "prefetched a faulted page");
            prop_assert!(p.index() < valid, "prefetched past the address space");
        }
        // Sorted, distinct.
        prop_assert!(out.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn memory_manager_never_hands_out_a_frame_twice(
        ops in prop::collection::vec(0u64..64, 1..200),
        cap in 1u64..32,
    ) {
        let mut m = MemoryManager::new(Some(cap));
        let mut in_use: HashSet<u32> = HashSet::new();
        for &p in &ops {
            let page = PageId::new(p);
            if m.is_resident(page) {
                m.touch(page);
                continue;
            }
            let frame = match m.take_frame() {
                Some(f) => f,
                None => {
                    let (victim, _) = m.pick_victim(|_| false).expect("a full manager has a victim");
                    let f = m.remove(victim, 0).unwrap();
                    prop_assert!(in_use.remove(&f.index()), "freed unknown frame");
                    m.release_frame(f);
                    m.take_frame().unwrap()
                }
            };
            prop_assert!(in_use.insert(frame.index()), "frame handed out twice");
            prop_assert!(in_use.len() as u64 <= cap);
            m.mark_resident(page, frame, 0).unwrap();
        }
    }

    /// Model-based frame accounting: arbitrary interleavings of
    /// `take_frame`/`mark_resident`/`remove`/`release_frame` never leak a
    /// frame, never double-free one, reject illegal transitions with a typed
    /// error (without corrupting the books), and pass a full audit after
    /// every single operation.
    #[test]
    fn frame_accounting_never_leaks_or_double_frees(
        ops in prop::collection::vec((0u8..4, 0u64..48), 1..250),
        cap in 1u64..16,
    ) {
        let mut m = MemoryManager::new(Some(cap));
        // Model state: page -> frame index for checked-out frames, plus the
        // set of frame indices sitting in the free pool.
        let mut model_resident: HashMap<u64, u32> = HashMap::new();
        let mut model_free: HashSet<u32> = HashSet::new();
        for &(kind, p) in &ops {
            let page = PageId::new(p);
            match kind {
                // Install: take a frame and map a page onto it.
                0 => match m.take_frame() {
                    Some(f) => {
                        // A reused frame must come from the free pool; a
                        // minted one must be brand new.
                        if !model_free.remove(&f.index()) {
                            prop_assert!(
                                (model_resident.len() + model_free.len()) < cap as usize,
                                "minted frame {} beyond capacity", f.index()
                            );
                        }
                        match model_resident.entry(p) {
                            Entry::Occupied(_) => {
                                // Double install must be rejected and must
                                // leave the books untouched.
                                prop_assert!(m.mark_resident(page, f, 0).is_err());
                                m.release_frame(f);
                                model_free.insert(f.index());
                            }
                            Entry::Vacant(slot) => {
                                m.mark_resident(page, f, 0).unwrap();
                                slot.insert(f.index());
                            }
                        }
                    }
                    None => prop_assert!(
                        model_free.is_empty()
                            && (model_resident.len() + model_free.len()) as u64 >= cap,
                        "take_frame refused below capacity"
                    ),
                },
                // Remove a specific page (legal only when resident).
                1 => {
                    if model_resident.contains_key(&p) {
                        let f = m.remove(page, 0).unwrap();
                        prop_assert_eq!(model_resident.remove(&p), Some(f.index()));
                        m.release_frame(f);
                        model_free.insert(f.index());
                    } else {
                        prop_assert!(m.remove(page, 0).is_err(), "removed non-resident page");
                    }
                }
                // Touch: LRU bump, never changes accounting.
                2 => m.touch(page),
                // Evict an LRU victim, as the runtime does under pressure.
                _ => {
                    if m.resident_count() > 0 {
                        let (victim, _) = m.pick_victim(|_| false).expect("pages are resident");
                        let f = m.remove(victim, 0).unwrap();
                        prop_assert_eq!(model_resident.remove(&victim.index()), Some(f.index()));
                        m.release_frame(f);
                        model_free.insert(f.index());
                    }
                }
            }
            m.audit(0).unwrap();
            prop_assert_eq!(m.resident_count() as u64, model_resident.len() as u64);
            prop_assert_eq!(m.free_frames(), model_free.len());
            prop_assert!(m.minted_frames() <= cap, "minted past capacity");
            prop_assert_eq!(
                m.minted_frames(),
                (model_resident.len() + model_free.len()) as u64
            );
        }
    }
}

/// The BTreeMap-of-age-stamps LRU that the memory manager's intrusive list
/// replaced, kept as an executable specification: ascending stamp order must
/// equal the list's head→tail order, and victim selection must agree
/// exactly.
struct StampLruOracle {
    next_stamp: u64,
    by_stamp: std::collections::BTreeMap<u64, u64>, // stamp -> page
    stamp_of: HashMap<u64, u64>,                    // page -> stamp
}

impl StampLruOracle {
    fn new() -> Self {
        Self {
            next_stamp: 0,
            by_stamp: std::collections::BTreeMap::new(),
            stamp_of: HashMap::new(),
        }
    }

    fn stamp(&mut self, page: u64) {
        self.by_stamp.insert(self.next_stamp, page);
        self.stamp_of.insert(page, self.next_stamp);
        self.next_stamp += 1;
    }

    fn mark(&mut self, page: u64) {
        assert!(!self.stamp_of.contains_key(&page), "oracle double mark");
        self.stamp(page);
    }

    fn touch(&mut self, page: u64) {
        if let Some(s) = self.stamp_of.remove(&page) {
            self.by_stamp.remove(&s);
            self.stamp(page);
        }
    }

    fn remove(&mut self, page: u64) {
        let s = self.stamp_of.remove(&page).expect("oracle removes resident pages");
        self.by_stamp.remove(&s);
    }

    fn pick(&self, pinned: &dyn Fn(u64) -> bool) -> Option<(u64, bool)> {
        match self.by_stamp.values().copied().find(|&p| !pinned(p)) {
            Some(p) => Some((p, false)),
            None => self.by_stamp.values().next().map(|&p| (p, true)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// Model check of the intrusive-list LRU against the stamp oracle:
    /// arbitrary interleavings of install/touch/remove/pick under random pin
    /// sets agree on every victim and forced flag. Each pick is also
    /// replayed with everything pinned, which exercises the forced path
    /// deterministically.
    #[test]
    fn intrusive_lru_matches_the_stamp_oracle(
        ops in prop::collection::vec((0u8..4, 0u64..48, 0u64..=u64::MAX), 1..250),
    ) {
        let mut m = MemoryManager::new(None);
        let mut oracle = StampLruOracle::new();
        for &(kind, page, mask) in &ops {
            let p = PageId::new(page);
            match kind {
                0 => {
                    if !m.is_resident(p) {
                        let f = m.take_frame().unwrap();
                        m.mark_resident(p, f, 0).unwrap();
                        oracle.mark(page);
                    }
                }
                1 => {
                    if m.is_resident(p) {
                        let f = m.remove(p, 0).unwrap();
                        m.release_frame(f);
                        oracle.remove(page);
                    }
                }
                2 => {
                    m.touch(p);
                    oracle.touch(page);
                }
                _ => {
                    // Pin set from the op's random mask (bit i pins page i
                    // mod 64), so picks run with pins sprinkled anywhere in
                    // the LRU order.
                    let pin = |q: u64| mask & (1u64 << (q % 64)) != 0;
                    let got = m.pick_victim(|q| pin(q.index()));
                    prop_assert_eq!(got.map(|(q, f)| (q.index(), f)), oracle.pick(&pin));
                    // Forced-pin replay: every resident page pinned.
                    let got = m.pick_victim(|_| true);
                    prop_assert_eq!(got.map(|(q, f)| (q.index(), f)), oracle.pick(&|_| true));
                }
            }
            prop_assert_eq!(m.resident_count(), oracle.stamp_of.len());
            m.audit(0).unwrap();
        }
    }
}

/// Per-page (page, cycle) event times, in occurrence order.
type Timeline = Vec<(PageId, Cycle)>;

/// A runtime over `cfg` with its eviction and prefetch strategies built
/// from registry specs.
fn runtime(cfg: &UvmConfig, eviction: &str, prefetch: &str, valid_pages: u64) -> UvmRuntime {
    let reg = PolicyRegistry::builtin();
    let ctx = StrategyCtx { pages_per_region: cfg.pages_per_region() };
    UvmRuntime::with_strategies(
        cfg,
        &PolicyConfig::default(),
        valid_pages,
        reg.build_eviction(eviction, &ctx).unwrap(),
        reg.build_prefetcher(prefetch, &ctx).unwrap(),
        reg.build_coalesce("off").unwrap(),
    )
}

/// Drives a `UvmRuntime` through its own scheduled events, applying faults
/// at their prescribed times, and returns (installs, evicts, stats).
fn simulate(
    (eviction, prefetch): (&str, &str),
    capacity: Option<u64>,
    faults: &[(u64, Cycle)],
) -> (Timeline, Timeline, batmem_uvm::UvmStats) {
    let cfg = UvmConfig { gpu_mem_pages: capacity, ..UvmConfig::default() };
    let mut rt = runtime(&cfg, eviction, prefetch, 2_000);
    // Every property run doubles as an auditor stress test: conservation
    // laws are re-checked after each event the runtime processes.
    rt.set_audit(AuditLevel::Full);
    // Timeline: merge fault injections with runtime events.
    let mut injections: Vec<(Cycle, PageId)> =
        faults.iter().map(|&(p, t)| (t, PageId::new(p))).collect();
    injections.sort_by_key(|&(t, _)| t);
    let mut queue: Vec<(Cycle, UvmEvent)> = Vec::new();
    let mut installs = Vec::new();
    let mut evicts = Vec::new();
    let mut resident: HashSet<PageId> = HashSet::new();

    let apply = |outs: Vec<UvmOutput>,
                 queue: &mut Vec<(Cycle, UvmEvent)>,
                 installs: &mut Vec<(PageId, Cycle)>,
                 evicts: &mut Vec<(PageId, Cycle)>,
                 resident: &mut HashSet<PageId>,
                 at: Cycle| {
        for o in outs {
            match o {
                UvmOutput::Schedule { at, event } => queue.push((at, event)),
                UvmOutput::Install { page, .. } => {
                    assert!(resident.insert(page), "double install of {page}");
                    installs.push((page, at));
                }
                UvmOutput::Evict { page } => {
                    assert!(resident.remove(&page), "evicting non-resident {page}");
                    evicts.push((page, at));
                }
                // These runtimes run with coalescing off.
                UvmOutput::Coalesce { region } => panic!("unexpected coalesce of {region}"),
                UvmOutput::Splinter { region } => panic!("unexpected splinter of {region}"),
            }
        }
    };

    let mut inj = 0;
    loop {
        let next_event = queue.iter().map(|&(t, _)| t).min();
        let next_inj = injections.get(inj).map(|&(t, _)| t);
        let take_injection = match (next_event, next_inj) {
            (None, None) => break,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some(te), Some(ti)) => ti <= te,
        };
        if take_injection {
            let (t, page) = injections[inj];
            inj += 1;
            // A fault only arises when the page is neither mapped nor
            // already migrating (the engine's guard).
            if !resident.contains(&page) && !rt.is_inflight(page) && !rt.is_resident(page) {
                let outs = rt.record_fault(page, t).unwrap();
                apply(outs, &mut queue, &mut installs, &mut evicts, &mut resident, t);
            }
        } else {
            let i = queue.iter().enumerate().min_by_key(|(_, &(t, _))| t).map(|(i, _)| i).unwrap();
            let (t, e) = queue.remove(i);
            let outs = rt.on_event(e, t).unwrap();
            apply(outs, &mut queue, &mut installs, &mut evicts, &mut resident, t);
        }
    }
    let stats = rt.stats();
    (installs, evicts, stats)
}

/// (eviction, prefetch) spec pairs under test.
const POLICIES: [(&str, &str); 4] =
    [("lru", "none"), ("ue", "none"), ("ideal", "none"), ("lru", "tree:50")];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn runtime_invariants_hold_for_arbitrary_fault_sequences(
        faults in prop::collection::vec((0u64..60, 0u64..2_000_000), 1..80),
        cap in 2u64..24,
        policy_idx in 0usize..4,
    ) {
        let policy = POLICIES[policy_idx];
        let (installs, _evicts, stats) = simulate(policy, Some(cap), &faults);

        // Batches are non-overlapping, well-ordered, and structurally sound.
        let mut prev_end = 0;
        for b in &stats.batches {
            prop_assert!(b.start >= prev_end);
            prop_assert!(b.handling_done >= b.start);
            prop_assert!(b.first_migration_start >= b.handling_done);
            prop_assert!(b.end >= b.first_migration_start);
            prop_assert!(b.faults > 0);
            prev_end = b.end;
        }
        // Capacity is never exceeded.
        prop_assert!(stats.peak_resident_pages <= cap);
        // Every distinct faulted page is installed at least once.
        let faulted: HashSet<u64> = faults.iter().map(|&(p, _)| p).collect();
        let installed: HashSet<u64> = installs.iter().map(|&(p, _)| p.index()).collect();
        for p in &faulted {
            prop_assert!(installed.contains(p), "page {} never arrived", p);
        }
        // Accounting identities.
        let eviction_sum: u64 = stats.batches.iter().map(|b| u64::from(b.evictions)).sum();
        prop_assert_eq!(stats.evictions, eviction_sum);
        prop_assert!(stats.premature_evictions <= stats.evictions);
        if policy.0 == "ideal" {
            prop_assert_eq!(stats.d2h_bytes, 0);
        }
    }

    #[test]
    fn unlimited_memory_never_evicts_prop(
        faults in prop::collection::vec((0u64..200, 0u64..1_000_000), 1..60),
    ) {
        let (_, evicts, stats) = simulate(("lru", "none"), None, &faults);
        prop_assert!(evicts.is_empty());
        prop_assert_eq!(stats.evictions, 0);
    }
}
