//! The MMU facade: per-SM L1 TLBs + shared L2 TLB + walker + page table.

use crate::page_table::GpuPageTable;
use crate::tlb::{Tlb, TlbStats};
use crate::walker::PageTableWalker;
use batmem_types::{Cycle, FrameId, PageId, RegionId, SimConfig, SimError, SmId};

/// The outcome of an address translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslationOutcome {
    /// The page is resident; the access may proceed to the data path.
    Resident(FrameId),
    /// The page-table walk found no mapping: a page fault. The issuing warp
    /// must stall until the UVM runtime migrates the page.
    Fault,
}

/// A completed translation: the cycles it took and what it found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Translation latency in cycles (TLB lookups, plus a walk on TLB miss,
    /// including walker queueing).
    pub latency: Cycle,
    /// Hit/fault outcome.
    pub outcome: TranslationOutcome,
}

/// Aggregated MMU statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MmuStats {
    /// Per-run totals over all L1 TLBs.
    pub l1: TlbStats,
    /// Shared L2 TLB totals.
    pub l2: TlbStats,
    /// Per-run totals over all large-page L1 TLBs (all zero unless some
    /// group was promoted).
    pub l1_large: TlbStats,
    /// Shared large-page L2 TLB totals.
    pub l2_large: TlbStats,
    /// Page-table walks performed.
    pub walks: u64,
    /// Walks that resolved at a large-page PTE (half-latency).
    pub large_walks: u64,
    /// Walks that queued behind the walker's concurrency limit.
    pub queued_walks: u64,
    /// Translations that ended in a page fault.
    pub faults: u64,
    /// Large-page promotions (coalesces) applied over the run.
    pub coalesces: u64,
    /// Large-page demotions (splinters) applied over the run.
    pub splinters: u64,
}

impl MmuStats {
    /// Translations served by a large-page structure (either large TLB
    /// tier or a large walk).
    pub fn large_hits(&self) -> u64 {
        self.l1_large.hits + self.l2_large.hits + self.large_walks
    }
}

/// The GPU memory-management unit.
///
/// Owns the translation hardware and the GPU page table. The UVM runtime
/// mutates residency through [`Mmu::install`] / [`Mmu::evict`]; SMs translate
/// through [`Mmu::translate`].
#[derive(Debug)]
pub struct Mmu {
    l1_tlbs: Vec<Tlb>,
    l2_tlb: Tlb,
    /// Per-SM large-page TLBs, tagged by large-page group. Consulted only
    /// while at least one group is promoted, so with coalescing off the
    /// translate path is bit-identical to the single-granularity model.
    large_l1_tlbs: Vec<Tlb<RegionId>>,
    /// Shared large-page L2 TLB.
    large_l2_tlb: Tlb<RegionId>,
    walker: PageTableWalker,
    page_table: GpuPageTable,
    l1_hit_latency: Cycle,
    l2_hit_latency: Cycle,
    faults: u64,
}

impl Mmu {
    /// Builds the MMU described by `config` (Table 1 geometry by default).
    /// The large-page TLBs mirror the base TLB shapes, tagged at the
    /// geometry's large-page granularity.
    pub fn new(config: &SimConfig) -> Self {
        let t = &config.tlb;
        Self {
            l1_tlbs: (0..config.gpu.num_sms)
                .map(|_| Tlb::fully_associative(t.l1_entries))
                .collect(),
            l2_tlb: Tlb::new(t.l2_entries, t.l2_ways),
            large_l1_tlbs: (0..config.gpu.num_sms)
                .map(|_| Tlb::fully_associative(t.l1_entries))
                .collect(),
            large_l2_tlb: Tlb::new(t.l2_entries, t.l2_ways),
            walker: PageTableWalker::new(
                t.walker_threads,
                t.walk_latency,
                t.pwc_miss_penalty,
                t.pwc_entries,
            ),
            page_table: GpuPageTable::with_pages_per_large(config.uvm.geometry.pages_per_large()),
            l1_hit_latency: t.l1_hit_latency,
            l2_hit_latency: t.l2_hit_latency,
            faults: 0,
        }
    }

    /// Translates `page` for SM `sm` starting at time `now`.
    ///
    /// Models the full path: L1 TLB (hit ⇒ done), L2 TLB (hit ⇒ fill L1),
    /// else a page-table walk through the shared walker. A walk that finds
    /// no resident mapping is a fault; faulting translations do **not**
    /// fill the TLBs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Accounting`] if a TLB holds an entry for a
    /// non-resident page — TLB entries exist only for resident pages, so
    /// this means a shootdown was lost.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range for the configured SM count.
    pub fn translate(
        &mut self,
        sm: SmId,
        page: PageId,
        now: Cycle,
    ) -> Result<Translation, SimError> {
        let stale = |level: &str| SimError::Accounting {
            cycle: now,
            detail: format!("{level} TLB holds an entry for non-resident page {page}"),
        };
        let l1 = &mut self.l1_tlbs[sm.index()];
        if l1.lookup(page) {
            // TLB entries exist only for resident pages.
            let frame = self.page_table.translate(page).ok_or_else(|| stale("L1"))?;
            return Ok(Translation {
                latency: self.l1_hit_latency,
                outcome: TranslationOutcome::Resident(frame),
            });
        }
        // The large-page side is consulted only while some group holds a
        // promoted mapping; with coalescing off this whole block is one
        // never-taken branch and the path below is the classic model.
        if self.page_table.has_promotions() {
            let group = self.page_table.group_of(page);
            if self.large_l1_tlbs[sm.index()].lookup(group) {
                // A promoted group is fully resident (splinter-before-evict
                // invariant), so the base entry must exist.
                let frame = self.page_table.translate(page).ok_or_else(|| stale("large L1"))?;
                return Ok(Translation {
                    latency: self.l1_hit_latency,
                    outcome: TranslationOutcome::Resident(frame),
                });
            }
        }
        let mut latency = self.l1_hit_latency + self.l2_hit_latency;
        if self.l2_tlb.lookup(page) {
            let frame = self.page_table.translate(page).ok_or_else(|| stale("L2"))?;
            self.l1_tlbs[sm.index()].insert(page);
            return Ok(Translation { latency, outcome: TranslationOutcome::Resident(frame) });
        }
        if self.page_table.has_promotions() {
            let group = self.page_table.group_of(page);
            if self.large_l2_tlb.lookup(group) {
                let frame = self.page_table.translate(page).ok_or_else(|| stale("large L2"))?;
                self.large_l1_tlbs[sm.index()].insert(group);
                return Ok(Translation { latency, outcome: TranslationOutcome::Resident(frame) });
            }
            if self.page_table.is_promoted(group) {
                // The walk resolves one level early at the large PTE and
                // fills the large TLBs: one entry now covers the group.
                let walk_done = self.walker.begin_large_walk(now + latency);
                latency = walk_done - now;
                let frame =
                    self.page_table.translate(page).ok_or_else(|| stale("promoted group"))?;
                self.large_l1_tlbs[sm.index()].insert(group);
                self.large_l2_tlb.insert(group);
                return Ok(Translation { latency, outcome: TranslationOutcome::Resident(frame) });
            }
        }
        let walk_done = self.walker.begin_walk(now + latency, page);
        latency = walk_done - now;
        Ok(match self.page_table.translate(page) {
            Some(frame) => {
                self.l1_tlbs[sm.index()].insert(page);
                self.l2_tlb.insert(page);
                Translation { latency, outcome: TranslationOutcome::Resident(frame) }
            }
            None => {
                self.faults += 1;
                Translation { latency, outcome: TranslationOutcome::Fault }
            }
        })
    }

    /// Promotes a fully-resident large-page group to one large mapping
    /// (coalescing). The next walk for any of its pages resolves at the
    /// large PTE and fills the large TLBs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Accounting`] if the group is not fully resident
    /// or is already promoted — the coalescing policy must only promote
    /// full, unpromoted groups.
    pub fn promote(&mut self, group: RegionId, now: Cycle) -> Result<(), SimError> {
        if self.page_table.promote(group) {
            Ok(())
        } else {
            Err(SimError::Accounting {
                cycle: now,
                detail: format!(
                    "coalescing {group}: not fully resident ({}/{} pages) or already promoted",
                    self.page_table.group_resident(group),
                    self.page_table.pages_per_large()
                ),
            })
        }
    }

    /// Splinters a promoted group back to base-page mappings and shoots
    /// its large-TLB entries down everywhere. Base-page entries (and their
    /// TLB entries) survive: splintering is metadata-only.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Accounting`] if the group is not promoted.
    pub fn splinter(&mut self, group: RegionId, now: Cycle) -> Result<(), SimError> {
        if !self.page_table.splinter(group) {
            return Err(SimError::Accounting {
                cycle: now,
                detail: format!("splintering {group}, which holds no large mapping"),
            });
        }
        for tlb in &mut self.large_l1_tlbs {
            tlb.invalidate(group);
        }
        self.large_l2_tlb.invalidate(group);
        Ok(())
    }

    /// Installs a resident mapping (page migration completed).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Accounting`] if the page is already resident —
    /// the UVM runtime must never double-migrate a page.
    pub fn install(&mut self, page: PageId, frame: FrameId, now: Cycle) -> Result<(), SimError> {
        match self.page_table.install(page, frame) {
            None => Ok(()),
            Some(prev) => Err(SimError::Accounting {
                cycle: now,
                detail: format!(
                    "page {page} migrated while already resident (held {prev}, offered {frame})"
                ),
            }),
        }
    }

    /// Evicts `page`: removes the mapping and shoots down every TLB.
    ///
    /// Returns the frame the page occupied.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Accounting`] if the page is not resident.
    pub fn evict(&mut self, page: PageId, now: Cycle) -> Result<FrameId, SimError> {
        let Some(frame) = self.page_table.remove(page) else {
            return Err(SimError::Accounting {
                cycle: now,
                detail: format!("evicting non-resident page {page}"),
            });
        };
        for tlb in &mut self.l1_tlbs {
            tlb.invalidate(page);
        }
        self.l2_tlb.invalidate(page);
        Ok(frame)
    }

    /// Whether `page` is resident.
    pub fn is_resident(&self, page: PageId) -> bool {
        self.page_table.is_resident(page)
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.page_table.resident_pages()
    }

    /// Read-only access to the page table.
    pub fn page_table(&self) -> &GpuPageTable {
        &self.page_table
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> MmuStats {
        let mut l1 = TlbStats::default();
        for t in &self.l1_tlbs {
            let s = t.stats();
            l1.hits += s.hits;
            l1.misses += s.misses;
            l1.shootdowns += s.shootdowns;
        }
        let mut l1_large = TlbStats::default();
        for t in &self.large_l1_tlbs {
            let s = t.stats();
            l1_large.hits += s.hits;
            l1_large.misses += s.misses;
            l1_large.shootdowns += s.shootdowns;
        }
        MmuStats {
            l1,
            l2: self.l2_tlb.stats(),
            l1_large,
            l2_large: self.large_l2_tlb.stats(),
            walks: self.walker.walks(),
            large_walks: self.walker.large_walks(),
            queued_walks: self.walker.queued_walks(),
            faults: self.faults,
            coalesces: self.page_table.coalesces(),
            splinters: self.page_table.splinters(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mmu() -> Mmu {
        Mmu::new(&SimConfig::default())
    }

    #[test]
    fn miss_walk_fault_then_resident_path() {
        let mut m = mmu();
        let page = PageId::new(3);
        let t = m.translate(SmId::new(0), page, 0).unwrap();
        assert_eq!(t.outcome, TranslationOutcome::Fault);
        // Walk latency: L1 + L2 lookup + walk + PWC miss penalty.
        assert_eq!(t.latency, 1 + 10 + 200 + 100);

        m.install(page, FrameId::new(0), 0).unwrap();
        let t = m.translate(SmId::new(0), page, 1000).unwrap();
        assert!(matches!(t.outcome, TranslationOutcome::Resident(_)));
        // This walk hits the PWC (same group).
        assert_eq!(t.latency, 1 + 10 + 200);

        // Now cached in the L1 TLB.
        let t = m.translate(SmId::new(0), page, 2000).unwrap();
        assert_eq!(t.latency, 1);
    }

    #[test]
    fn l2_tlb_serves_other_sms() {
        let mut m = mmu();
        let page = PageId::new(3);
        m.install(page, FrameId::new(0), 0).unwrap();
        let _ = m.translate(SmId::new(0), page, 0).unwrap(); // fills L1(0) and L2
        let t = m.translate(SmId::new(1), page, 1000).unwrap();
        assert_eq!(t.latency, 1 + 10); // L2 hit
        let t = m.translate(SmId::new(1), page, 2000).unwrap();
        assert_eq!(t.latency, 1); // now L1(1) hit
    }

    #[test]
    fn faults_do_not_fill_tlbs() {
        let mut m = mmu();
        let page = PageId::new(3);
        let _ = m.translate(SmId::new(0), page, 0).unwrap();
        // Second translation must walk again (would be a latency-1 TLB hit
        // if the fault had been cached).
        let t = m.translate(SmId::new(0), page, 10_000).unwrap();
        assert!(t.latency > 100);
        assert_eq!(m.stats().faults, 2);
    }

    #[test]
    fn evict_shoots_down_all_tlbs() {
        let mut m = mmu();
        let page = PageId::new(5);
        m.install(page, FrameId::new(1), 0).unwrap();
        let _ = m.translate(SmId::new(0), page, 0).unwrap();
        let _ = m.translate(SmId::new(2), page, 0).unwrap();
        let frame = m.evict(page, 40_000).unwrap();
        assert_eq!(frame, FrameId::new(1));
        assert!(!m.is_resident(page));
        // Both L1 copies and the L2 copy are gone: next access faults.
        let t = m.translate(SmId::new(0), page, 50_000).unwrap();
        assert_eq!(t.outcome, TranslationOutcome::Fault);
        assert!(m.stats().l1.shootdowns + m.stats().l2.shootdowns >= 3);
    }

    #[test]
    fn double_install_is_an_accounting_error() {
        let mut m = mmu();
        m.install(PageId::new(1), FrameId::new(0), 0).unwrap();
        let err = m.install(PageId::new(1), FrameId::new(1), 777).unwrap_err();
        assert!(matches!(err, SimError::Accounting { .. }), "{err}");
        assert_eq!(err.cycle(), Some(777));
        assert!(err.to_string().contains("already resident"));
    }

    #[test]
    fn evicting_absent_page_is_an_accounting_error() {
        let mut m = mmu();
        let err = m.evict(PageId::new(1), 55).unwrap_err();
        assert!(matches!(err, SimError::Accounting { .. }), "{err}");
        assert_eq!(err.cycle(), Some(55));
        assert!(err.to_string().contains("non-resident"));
    }

    #[test]
    fn coalesced_group_collapses_tlb_and_walk_cost() {
        let mut m = mmu();
        // Make pages 0..32 (one default large group) resident.
        for i in 0..32 {
            m.install(PageId::new(i), FrameId::new(i as u32), 0).unwrap();
        }
        let group = batmem_types::RegionId::new(0);
        m.promote(group, 0).unwrap();
        // First touch: large walk (half latency, no PWC penalty), fills the
        // large TLBs.
        let t = m.translate(SmId::new(0), PageId::new(0), 0).unwrap();
        assert!(matches!(t.outcome, TranslationOutcome::Resident(_)));
        assert_eq!(t.latency, 1 + 10 + 100);
        // Every other page of the group now hits the large L1 at L1 cost.
        for i in 1..32 {
            let t = m.translate(SmId::new(0), PageId::new(i), 100 + i).unwrap();
            assert_eq!(t.latency, 1, "page {i} should ride the large mapping");
        }
        let s = m.stats();
        assert_eq!(s.large_walks, 1);
        assert_eq!(s.l1_large.hits, 31);
        assert_eq!(s.coalesces, 1);
        assert_eq!(s.large_hits(), 32);
        // Another SM rides the shared large L2.
        let t = m.translate(SmId::new(3), PageId::new(17), 5000).unwrap();
        assert_eq!(t.latency, 1 + 10);
        assert_eq!(m.stats().l2_large.hits, 1);
    }

    #[test]
    fn splinter_restores_base_granularity() {
        let mut m = mmu();
        for i in 0..32 {
            m.install(PageId::new(i), FrameId::new(i as u32), 0).unwrap();
        }
        let group = batmem_types::RegionId::new(0);
        m.promote(group, 0).unwrap();
        let _ = m.translate(SmId::new(0), PageId::new(4), 0).unwrap();
        m.splinter(group, 100).unwrap();
        // Large entries are gone; the next access walks at base granularity.
        let t = m.translate(SmId::new(0), PageId::new(5), 200).unwrap();
        assert!(t.latency > 100);
        let s = m.stats();
        assert_eq!(s.splinters, 1);
        assert!(s.l1_large.shootdowns + s.l2_large.shootdowns >= 2);
        // Base pages are still resident: eviction below is now legal.
        m.evict(PageId::new(5), 300).unwrap();
        assert!(!m.is_resident(PageId::new(5)));
    }

    #[test]
    fn promote_and_splinter_guard_their_invariants() {
        let mut m = mmu();
        let group = batmem_types::RegionId::new(0);
        m.install(PageId::new(0), FrameId::new(0), 0).unwrap();
        let err = m.promote(group, 7).unwrap_err();
        assert!(matches!(err, SimError::Accounting { .. }), "{err}");
        assert!(err.to_string().contains("not fully resident"));
        let err = m.splinter(group, 8).unwrap_err();
        assert!(err.to_string().contains("no large mapping"));
    }

    #[test]
    fn walker_contention_reflected_in_latency() {
        let mut m = mmu();
        // Issue more concurrent walks than walker threads (64).
        let mut latencies = Vec::new();
        for i in 0..80 {
            let t = m.translate(SmId::new(0), PageId::new(1000 + i * 600), 0).unwrap();
            latencies.push(t.latency);
        }
        assert!(latencies[79] > latencies[0]);
        assert!(m.stats().queued_walks > 0);
    }
}
