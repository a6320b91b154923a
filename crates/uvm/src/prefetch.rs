//! The tree-based page prefetcher.
//!
//! The paper's baseline employs "the state-of-the-art page prefetching
//! mechanism" of Zheng et al. (HPCA'16), which the production NVIDIA driver
//! implements as a density-threshold scheme over 2 MB regions: during batch
//! preprocessing, if the fraction of a region's 64 KB subpages that are
//! resident, in flight, or faulting crosses a threshold, the region's
//! remaining subpages are appended to the batch as prefetches.

use batmem_types::PageId;

/// Density-threshold prefetcher over fixed-size page regions.
#[derive(Debug, Clone)]
pub struct TreePrefetcher {
    pages_per_region: u64,
    threshold_percent: u8,
    issued: u64,
}

impl TreePrefetcher {
    /// Creates a prefetcher for regions of `pages_per_region` pages firing
    /// at `threshold_percent` density.
    ///
    /// # Panics
    ///
    /// Panics if `pages_per_region` is zero or the threshold exceeds 100.
    pub fn new(pages_per_region: u64, threshold_percent: u8) -> Self {
        assert!(pages_per_region > 0, "regions must contain pages");
        assert!(threshold_percent <= 100, "threshold is a percentage");
        Self { pages_per_region, threshold_percent, issued: 0 }
    }

    /// Expands a sorted, deduplicated batch of faulted pages with
    /// prefetches.
    ///
    /// `covered` reports whether a page is already resident or in flight;
    /// `valid_pages` bounds the address space (no prefetching past the end
    /// of the allocation, and regions truncated by it are measured against
    /// their valid page count only).
    ///
    /// Returns the prefetched pages, sorted ascending; the caller merges
    /// them into the batch.
    pub fn expand<F>(&mut self, faulted: &[PageId], covered: F, valid_pages: u64) -> Vec<PageId>
    where
        F: Fn(PageId) -> bool,
    {
        let mut out = Vec::new();
        let mut i = 0;
        while i < faulted.len() {
            let region = faulted[i].index() / self.pages_per_region;
            // The run of faults within this region (input is sorted).
            let mut j = i;
            while j < faulted.len() && faulted[j].index() / self.pages_per_region == region {
                j += 1;
            }
            let faults_in_region = (j - i) as u64;
            let first = region * self.pages_per_region;
            let end = (first + self.pages_per_region).min(valid_pages);
            if first >= valid_pages {
                i = j;
                continue;
            }
            let region_pages = end - first;
            let covered_count: u64 =
                (first..end).filter(|&p| covered(PageId::new(p))).count() as u64;
            let density = (faults_in_region + covered_count) * 100;
            if density >= u64::from(self.threshold_percent) * region_pages {
                for p in first..end {
                    let page = PageId::new(p);
                    if !covered(page) && faulted[i..j].binary_search(&page).is_err() {
                        out.push(page);
                    }
                }
            }
            i = j;
        }
        self.issued += out.len() as u64;
        out
    }

    /// Total prefetches issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(ids: &[u64]) -> Vec<PageId> {
        ids.iter().map(|&i| PageId::new(i)).collect()
    }

    #[test]
    fn dense_region_prefetches_remainder() {
        let mut pf = TreePrefetcher::new(4, 50);
        // Region 0 = pages 0..4; two faults = 50% density.
        let out = pf.expand(&pages(&[0, 2]), |_| false, 100);
        assert_eq!(out, pages(&[1, 3]));
        assert_eq!(pf.issued(), 2);
    }

    #[test]
    fn sparse_region_does_not_fire() {
        let mut pf = TreePrefetcher::new(4, 75);
        let out = pf.expand(&pages(&[0, 2]), |_| false, 100);
        assert!(out.is_empty());
    }

    #[test]
    fn resident_pages_count_toward_density() {
        let mut pf = TreePrefetcher::new(4, 75);
        // One fault + two resident = 75% of region 0.
        let resident = pages(&[1, 2]);
        let out = pf.expand(&pages(&[0]), |p| resident.contains(&p), 100);
        assert_eq!(out, pages(&[3]));
    }

    #[test]
    fn multiple_regions_evaluated_independently() {
        let mut pf = TreePrefetcher::new(4, 50);
        // Region 0: pages 0,1 (fires); region 2: page 8 only (25%, no fire).
        let out = pf.expand(&pages(&[0, 1, 8]), |_| false, 100);
        assert_eq!(out, pages(&[2, 3]));
    }

    #[test]
    fn valid_pages_truncates_region_and_bounds_prefetch() {
        let mut pf = TreePrefetcher::new(4, 50);
        // Only pages 0..6 exist; region 1 = pages 4..6 (2 valid pages).
        // One fault in region 1 = 50% of its valid pages -> fires, but only
        // page 5 can be prefetched.
        let out = pf.expand(&pages(&[4]), |_| false, 6);
        assert_eq!(out, pages(&[5]));
    }

    #[test]
    fn region_fully_past_valid_space_is_skipped() {
        let mut pf = TreePrefetcher::new(4, 0);
        let out = pf.expand(&pages(&[8]), |_| false, 4);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threshold_always_fires() {
        let mut pf = TreePrefetcher::new(4, 0);
        let out = pf.expand(&pages(&[0]), |_| false, 8);
        assert_eq!(out, pages(&[1, 2, 3]));
    }

    #[test]
    fn full_region_of_faults_prefetches_nothing() {
        let mut pf = TreePrefetcher::new(2, 50);
        let out = pf.expand(&pages(&[0, 1]), |_| false, 8);
        assert!(out.is_empty());
    }
}
