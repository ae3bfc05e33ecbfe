//! Scrubbed page pools.
//!
//! KCore dynamically builds page tables from pages "allocated from a
//! reserved page pool private to KCore. All bytes of a newly allocated
//! page are guaranteed to be 0. KCore scrubs the pool of memory during
//! initialization" (§5.4). Transactionality of `set_s2pt` depends on
//! this zero guarantee, so the pool asserts it.

use vrm_memmodel::ir::Addr;

use crate::mem::PhysMem;

/// A bump allocator over a reserved, scrubbed physical region.
#[derive(Debug, Clone, Hash)]
pub struct PagePool {
    base: Addr,
    page_words: u64,
    capacity: u64,
    next: u64,
}

impl PagePool {
    /// Reserves `capacity` pages of `page_words` words each starting at
    /// `base`, scrubbing the whole region.
    pub fn new(mem: &mut PhysMem, base: Addr, page_words: u64, capacity: u64) -> Self {
        mem.zero_range(base, page_words * capacity);
        PagePool {
            base,
            page_words,
            capacity,
            next: 0,
        }
    }

    /// Allocates one zeroed page; `None` when exhausted.
    ///
    /// Debug builds assert the scrub invariant (the page really is zero).
    pub fn alloc(&mut self, mem: &PhysMem) -> Option<Addr> {
        if self.next >= self.capacity {
            return None;
        }
        let page = self.base + self.next * self.page_words;
        self.next += 1;
        debug_assert!(
            (0..self.page_words).all(|i| mem.read(page + i) == 0),
            "pool page {page:#x} not scrubbed"
        );
        Some(page)
    }

    /// Pages handed out so far.
    pub fn allocated(&self) -> u64 {
        self.next
    }

    /// Pages remaining.
    pub fn remaining(&self) -> u64 {
        self.capacity - self.next
    }

    /// Does the pool own this address?
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.base + self.capacity * self.page_words
    }

    /// The pool's address range as `(start, end)`.
    pub fn range(&self) -> (Addr, Addr) {
        (self.base, self.base + self.capacity * self.page_words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_until_exhausted() {
        let mut mem = PhysMem::new();
        let mut pool = PagePool::new(&mut mem, 0x1000, 16, 3);
        assert_eq!(pool.alloc(&mem), Some(0x1000));
        assert_eq!(pool.alloc(&mem), Some(0x1010));
        assert_eq!(pool.alloc(&mem), Some(0x1020));
        assert_eq!(pool.alloc(&mem), None);
        assert_eq!(pool.allocated(), 3);
        assert_eq!(pool.remaining(), 0);
    }

    #[test]
    fn pool_scrubs_on_init() {
        let mut mem = PhysMem::new();
        mem.write(0x1005, 99);
        let mut pool = PagePool::new(&mut mem, 0x1000, 16, 1);
        assert_eq!(mem.read(0x1005), 0);
        let p = pool.alloc(&mem).unwrap();
        assert_eq!(mem.read(p + 5), 0);
    }

    #[test]
    fn contains_and_range() {
        let mut mem = PhysMem::new();
        let pool = PagePool::new(&mut mem, 0x1000, 16, 2);
        assert!(pool.contains(0x1000));
        assert!(pool.contains(0x101f));
        assert!(!pool.contains(0x1020));
        assert_eq!(pool.range(), (0x1000, 0x1020));
    }
}
