//! Address-space newtypes: virtual addresses, pages, frames, and regions.
//!
//! The simulator works at four granularities, all derived from one
//! validated [`PageGeometry`]:
//!
//! * byte-granular [`VirtAddr`]s issued by warps,
//! * base-page-granular [`PageId`]s (64 KB by default) at which demand
//!   paging, migration, and eviction operate,
//! * large-page groups (aligned runs of base pages, 2 MB by default) that
//!   the coalescing machinery can promote to a single large-page mapping,
//!   and
//! * region-granular [`RegionId`]s (2 MB by default) at which the
//!   tree-based prefetcher reasons, mirroring the NVIDIA UVM driver's
//!   root chunks.
//!
//! Every conversion between these granularities goes through a
//! [`PageGeometry`]; the id newtypes themselves carry no shift arithmetic,
//! so a call site cannot mix page sizes by passing the wrong raw shift.

use crate::error::SimError;
use std::fmt;

/// The validated page-size geometry of a simulated address space.
///
/// Three shifts, constructed together so that inverted or degenerate
/// orderings are unrepresentable:
///
/// * `base_shift` — the base page (`1 << base_shift` bytes), the unit of
///   demand paging and migration;
/// * `large_shift` — the large page, the unit the coalescing machinery
///   promotes to a single TLB entry (`base_shift ..= region_shift`);
/// * `region_shift` — the prefetch region
///   (`large_shift ..= 40`).
///
/// The default is the paper's Table 1 point: 64 KB base pages inside 2 MB
/// regions, with large pages coinciding with regions.
///
/// # Examples
///
/// ```
/// use batmem_types::addr::{PageGeometry, VirtAddr};
///
/// let g = PageGeometry::default(); // 64 KB / 2 MB / 2 MB
/// let a = VirtAddr::new(0x12345);
/// assert_eq!(g.page_of(a).index(), 0x1);
/// assert_eq!(g.pages_per_region(), 32);
/// assert!(PageGeometry::new(21, 16, 40).is_err()); // inverted ordering
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageGeometry {
    base_shift: u32,
    large_shift: u32,
    region_shift: u32,
}

impl Default for PageGeometry {
    /// The paper's Table 1 geometry: 64 KB pages, 2 MB large pages and
    /// regions.
    fn default() -> Self {
        Self { base_shift: 16, large_shift: 21, region_shift: 21 }
    }
}

impl PageGeometry {
    /// Builds a geometry from its three shifts, rejecting out-of-range and
    /// inverted/degenerate orderings with a typed
    /// [`SimError::InvalidConfig`].
    ///
    /// Constraints: `base_shift` in `10..=30` (1 KB to 1 GB base pages),
    /// `base_shift <= large_shift <= region_shift <= 40`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending shift.
    pub fn new(base_shift: u32, large_shift: u32, region_shift: u32) -> Result<Self, SimError> {
        if !(10..=30).contains(&base_shift) {
            return Err(SimError::invalid_config(
                "uvm.geometry.base_shift",
                format!("must be in 10..=30 (1 KB to 1 GB pages), got {base_shift}"),
            ));
        }
        if large_shift < base_shift || large_shift > 40 {
            return Err(SimError::invalid_config(
                "uvm.geometry.large_shift",
                format!("must be in base_shift({base_shift})..=40, got {large_shift}"),
            ));
        }
        if region_shift < large_shift || region_shift > 40 {
            return Err(SimError::invalid_config(
                "uvm.geometry.region_shift",
                format!("must be in large_shift({large_shift})..=40, got {region_shift}"),
            ));
        }
        Ok(Self { base_shift, large_shift, region_shift })
    }

    /// Builds a two-level geometry where large pages coincide with regions
    /// (the common configuration, and the paper's).
    ///
    /// # Errors
    ///
    /// Same constraints as [`PageGeometry::new`].
    pub fn base_region(base_shift: u32, region_shift: u32) -> Result<Self, SimError> {
        Self::new(base_shift, region_shift, region_shift)
    }

    /// The base-page shift (`1 << base_shift` bytes per page).
    pub const fn base_shift(&self) -> u32 {
        self.base_shift
    }

    /// The large-page shift (`1 << large_shift` bytes per large page).
    pub const fn large_shift(&self) -> u32 {
        self.large_shift
    }

    /// The region shift (`1 << region_shift` bytes per region).
    pub const fn region_shift(&self) -> u32 {
        self.region_shift
    }

    /// Bytes per base page.
    pub const fn page_bytes(&self) -> u64 {
        1 << self.base_shift
    }

    /// Bytes per large page.
    pub const fn large_bytes(&self) -> u64 {
        1 << self.large_shift
    }

    /// Bytes per region.
    pub const fn region_bytes(&self) -> u64 {
        1 << self.region_shift
    }

    /// Base pages per large page (≥ 1).
    pub const fn pages_per_large(&self) -> u64 {
        1 << (self.large_shift - self.base_shift)
    }

    /// Base pages per region (≥ 1).
    pub const fn pages_per_region(&self) -> u64 {
        1 << (self.region_shift - self.base_shift)
    }

    /// Large pages per region (≥ 1).
    pub const fn larges_per_region(&self) -> u64 {
        1 << (self.region_shift - self.large_shift)
    }

    /// The base page `addr` falls in.
    pub const fn page_of(&self, addr: VirtAddr) -> PageId {
        PageId(addr.0 >> self.base_shift)
    }

    /// The region `addr` falls in.
    pub const fn region_of(&self, addr: VirtAddr) -> RegionId {
        RegionId(addr.0 >> self.region_shift)
    }

    /// The region containing `page`.
    pub const fn region_of_page(&self, page: PageId) -> RegionId {
        RegionId(page.0 >> (self.region_shift - self.base_shift))
    }

    /// The large-page group containing `page`.
    ///
    /// With the default geometry (large pages = regions) this coincides
    /// with [`region_of_page`](Self::region_of_page); the returned
    /// [`RegionId`] then indexes large-page-sized groups.
    pub const fn large_of_page(&self, page: PageId) -> RegionId {
        RegionId(page.0 >> (self.large_shift - self.base_shift))
    }

    /// The first byte address of `page`.
    pub const fn page_base(&self, page: PageId) -> VirtAddr {
        VirtAddr(page.0 << self.base_shift)
    }

    /// The first base page of `region`.
    pub const fn first_page(&self, region: RegionId) -> PageId {
        PageId(region.0 << (self.region_shift - self.base_shift))
    }

    /// The first base page of large-page group `group`.
    pub const fn first_page_of_large(&self, group: RegionId) -> PageId {
        PageId(group.0 << (self.large_shift - self.base_shift))
    }
}

impl fmt::Display for PageGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "geom:{}/{}/{}", self.base_shift, self.large_shift, self.region_shift)
    }
}

/// A byte-granular virtual address in the unified CPU/GPU address space.
///
/// # Examples
///
/// ```
/// use batmem_types::addr::{PageGeometry, VirtAddr};
///
/// let a = VirtAddr::new(0x12345);
/// assert_eq!(a.raw(), 0x12345);
/// assert_eq!(PageGeometry::default().page_of(a).index(), 0x1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates a virtual address from a raw byte offset.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw byte offset.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address advanced by `bytes`.
    #[must_use]
    pub const fn offset(self, bytes: u64) -> Self {
        Self(self.0 + bytes)
    }

    /// Returns the cache-line index of this address for lines of
    /// `1 << line_shift` bytes. (Cache lines are a memory-hierarchy
    /// concern, not part of the page geometry.)
    pub const fn line(self, line_shift: u32) -> u64 {
        self.0 >> line_shift
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

/// A virtual page number (the unit of demand paging and migration).
///
/// A `PageId` is a virtual address shifted right by the geometry's base
/// shift; two addresses on the same page map to the same `PageId`. All
/// conversions to and from other granularities go through a
/// [`PageGeometry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(u64);

impl PageId {
    /// Creates a page id from a raw page index.
    pub const fn new(index: u64) -> Self {
        Self(index)
    }

    /// Returns the raw page index.
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page:{}", self.0)
    }
}

/// A region (2 MB by default), mirroring UVM driver root chunks.
///
/// Also used to index large-page groups (see
/// [`PageGeometry::large_of_page`]); with the default geometry the two
/// granularities coincide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegionId(u64);

impl RegionId {
    /// Creates a region id from a raw region index.
    pub const fn new(index: u64) -> Self {
        Self(index)
    }

    /// Returns the raw region index.
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region:{}", self.0)
    }
}

/// A physical frame number in GPU device memory.
///
/// Frames are what the physical memory manager allocates; a resident
/// [`PageId`] maps to exactly one `FrameId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FrameId(u32);

impl FrameId {
    /// Creates a frame id from a raw frame index.
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// Returns the raw frame index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(base: u32, region: u32) -> PageGeometry {
        PageGeometry::base_region(base, region).unwrap()
    }

    #[test]
    fn page_of_address_uses_geometry() {
        let a = VirtAddr::new(3 * 65536 + 17);
        assert_eq!(geom(16, 21).page_of(a), PageId::new(3));
        assert_eq!(geom(12, 21).page_of(a), PageId::new(3 * 16));
    }

    #[test]
    fn page_base_addr_round_trips() {
        let g = PageGeometry::default();
        let p = PageId::new(42);
        assert_eq!(g.page_of(g.page_base(p)), p);
    }

    #[test]
    fn region_of_page_matches_region_of_address() {
        let g = PageGeometry::default();
        let a = VirtAddr::new(5 * (1 << 21) + 1234);
        assert_eq!(g.region_of(a), g.region_of_page(g.page_of(a)));
    }

    #[test]
    fn pages_per_region_default_geometry() {
        // 2 MB region / 64 KB page = 32 pages.
        let g = PageGeometry::default();
        assert_eq!(g.pages_per_region(), 32);
        assert_eq!(g.pages_per_large(), 32);
        assert_eq!(g.larges_per_region(), 1);
        assert_eq!(g.page_bytes(), 64 * 1024);
        assert_eq!(g.large_bytes(), 2 * 1024 * 1024);
        assert_eq!(g.region_bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn first_page_of_region() {
        let g = PageGeometry::default();
        assert_eq!(g.first_page(RegionId::new(2)), PageId::new(64));
        assert_eq!(g.first_page_of_large(RegionId::new(2)), PageId::new(64));
    }

    #[test]
    fn three_level_geometry_splits_large_and_region() {
        // 4 KB base, 64 KB large, 2 MB region.
        let g = PageGeometry::new(12, 16, 21).unwrap();
        assert_eq!(g.pages_per_large(), 16);
        assert_eq!(g.pages_per_region(), 512);
        assert_eq!(g.larges_per_region(), 32);
        let p = PageId::new(17);
        assert_eq!(g.large_of_page(p), RegionId::new(1));
        assert_eq!(g.region_of_page(p), RegionId::new(0));
        assert_eq!(g.first_page_of_large(RegionId::new(1)), PageId::new(16));
    }

    #[test]
    fn invalid_geometries_are_typed_config_errors() {
        let field = |r: Result<PageGeometry, SimError>| match r.unwrap_err() {
            SimError::InvalidConfig { field, .. } => field,
            other => panic!("expected InvalidConfig, got {other}"),
        };
        // Out-of-range base shift.
        assert_eq!(field(PageGeometry::new(5, 21, 21)), "uvm.geometry.base_shift");
        assert_eq!(field(PageGeometry::new(31, 31, 31)), "uvm.geometry.base_shift");
        // Inverted orderings.
        assert_eq!(field(PageGeometry::new(21, 16, 21)), "uvm.geometry.large_shift");
        assert_eq!(field(PageGeometry::new(16, 21, 20)), "uvm.geometry.region_shift");
        assert_eq!(field(PageGeometry::base_region(21, 16)), "uvm.geometry.large_shift");
        // Over-wide region.
        assert_eq!(field(PageGeometry::new(16, 21, 41)), "uvm.geometry.region_shift");
        assert_eq!(field(PageGeometry::new(16, 41, 41)), "uvm.geometry.large_shift");
    }

    #[test]
    fn degenerate_single_level_geometry_is_allowed() {
        // base == large == region: one page per region, never promotable
        // beyond itself — valid, just pointless.
        let g = PageGeometry::new(16, 16, 16).unwrap();
        assert_eq!(g.pages_per_region(), 1);
        assert_eq!(g.pages_per_large(), 1);
    }

    #[test]
    fn addr_offset_and_line() {
        let a = VirtAddr::new(0x100);
        assert_eq!(a.offset(0x28).raw(), 0x128);
        assert_eq!(a.line(7), 2); // 128-byte lines
    }

    #[test]
    fn display_forms_are_nonempty() {
        assert_eq!(format!("{}", VirtAddr::new(16)), "va:0x10");
        assert_eq!(format!("{}", PageId::new(7)), "page:7");
        assert_eq!(format!("{}", RegionId::new(7)), "region:7");
        assert_eq!(format!("{}", FrameId::new(7)), "frame:7");
        assert_eq!(format!("{}", PageGeometry::default()), "geom:16/21/21");
    }

    #[test]
    fn ordering_follows_raw_values() {
        assert!(VirtAddr::new(1) < VirtAddr::new(2));
        assert!(PageId::new(1) < PageId::new(2));
    }
}
