//! Device memory layout: page-aligned array allocation.
//!
//! `cudaMallocManaged` allocations are page-granular; we mirror that by
//! page-aligning every array so that two arrays never share a migration
//! page (which would blur per-array access statistics).

use batmem_types::VirtAddr;

/// A typed array placed in the unified address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayRef {
    base: VirtAddr,
    elem_bytes: u32,
    len: u64,
}

impl ArrayRef {
    /// The address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i` is out of bounds.
    pub fn addr(&self, i: u64) -> VirtAddr {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.base.offset(i * u64::from(self.elem_bytes))
    }

    /// The array's first address.
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// Element count.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element size in bytes.
    pub fn elem_bytes(&self) -> u32 {
        self.elem_bytes
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.len * u64::from(self.elem_bytes)
    }
}

/// Sequential, page-aligned allocator for a workload's arrays.
#[derive(Debug, Clone)]
pub struct LayoutBuilder {
    cursor: u64,
    page_bytes: u64,
}

impl LayoutBuilder {
    /// Creates a layout with the given page size (arrays are aligned to it).
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two.
    pub fn new(page_bytes: u64) -> Self {
        assert!(page_bytes.is_power_of_two(), "page size must be a power of two");
        Self { cursor: 0, page_bytes }
    }

    /// Allocates an array of `len` elements of `elem_bytes` bytes each.
    pub fn array(&mut self, elem_bytes: u32, len: u64) -> ArrayRef {
        let base = VirtAddr::new(self.cursor);
        let size = len.max(1) * u64::from(elem_bytes);
        self.cursor += size.div_ceil(self.page_bytes) * self.page_bytes;
        ArrayRef { base, elem_bytes, len }
    }

    /// Total bytes allocated so far (page-rounded) — the workload footprint.
    pub fn footprint_bytes(&self) -> u64 {
        self.cursor
    }

    /// Total pages allocated so far.
    pub fn footprint_pages(&self) -> u64 {
        self.cursor / self.page_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrays_are_page_aligned_and_disjoint() {
        let mut l = LayoutBuilder::new(65_536);
        let a = l.array(4, 100);
        let b = l.array(8, 20_000);
        let c = l.array(4, 1);
        assert_eq!(a.base().raw(), 0);
        assert_eq!(b.base().raw(), 65_536); // a rounded up to one page
                                            // b = 160 KB -> 3 pages.
        assert_eq!(c.base().raw(), 65_536 * 4);
        assert_eq!(l.footprint_pages(), 5);
    }

    #[test]
    fn element_addressing() {
        let mut l = LayoutBuilder::new(65_536);
        let a = l.array(8, 100);
        assert_eq!(a.addr(0), a.base());
        assert_eq!(a.addr(3).raw(), a.base().raw() + 24);
        assert_eq!(a.size_bytes(), 800);
        assert_eq!(a.elem_bytes(), 8);
        assert!(!a.is_empty());
    }

    // `ArrayRef::addr` checks bounds with `debug_assert!`, which release
    // builds drop.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn oob_index_panics_in_debug() {
        let mut l = LayoutBuilder::new(65_536);
        let a = l.array(4, 10);
        let _ = a.addr(10);
    }

    #[test]
    fn empty_array_still_occupies_a_page() {
        let mut l = LayoutBuilder::new(65_536);
        let a = l.array(4, 0);
        assert!(a.is_empty());
        assert_eq!(l.footprint_pages(), 1);
    }
}
