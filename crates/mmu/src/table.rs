//! Multi-level page tables with exact write-list reporting.
//!
//! KCore's stage-2 and SMMU tables are built dynamically: `set_s2pt` walks
//! from the root, allocating fresh zeroed tables from the private pool for
//! missing levels, and finally sets the leaf entry — refusing to overwrite
//! an existing mapping. `clear_s2pt` zeroes an existing leaf. Every update
//! returns the list of `(cell, value)` writes it performed so the caller
//! can validate the Transactional-Page-Table condition on precisely the
//! writes a critical section issued.

use vrm_memmodel::ir::{Addr, Val};

use crate::mem::PhysMem;
use crate::pool::PagePool;
use crate::pte::{Perms, Pte, PteKind};

/// Table geometry (all sizes in words; a table occupies one page).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Number of translation levels.
    pub levels: u32,
    /// log2 of entries per table.
    pub index_bits: u32,
    /// log2 of the page size.
    pub page_bits: u32,
}

impl Geometry {
    /// Arm-style 4-level layout (512-entry tables, 512-word pages).
    pub fn arm_4level() -> Self {
        Geometry {
            levels: 4,
            index_bits: 9,
            page_bits: 9,
        }
    }

    /// Arm-style 3-level layout (§5.6: fewer levels, fewer intermediate
    /// entries to cache — useful on CPUs with small TLBs).
    pub fn arm_3level() -> Self {
        Geometry {
            levels: 3,
            index_bits: 9,
            page_bits: 9,
        }
    }

    /// Small geometry for exhaustive tests.
    pub fn tiny(levels: u32) -> Self {
        Geometry {
            levels,
            index_bits: 2,
            page_bits: 4,
        }
    }

    /// Table index of `va` at `level` (0 = root).
    pub fn index(&self, va: Addr, level: u32) -> Addr {
        debug_assert!(level < self.levels);
        let shift = self.page_bits + self.index_bits * (self.levels - 1 - level);
        (va >> shift) & ((1 << self.index_bits) - 1)
    }

    /// In-page offset of `va`.
    pub fn offset(&self, va: Addr) -> Addr {
        va & ((1 << self.page_bits) - 1)
    }

    /// Virtual page number of `va`.
    pub fn vpn(&self, va: Addr) -> Addr {
        va >> self.page_bits
    }

    /// Words covered by one entry at `level` (a block mapping's span).
    pub fn span(&self, level: u32) -> u64 {
        1 << (self.page_bits + self.index_bits * (self.levels - 1 - level))
    }

    /// Total virtual-address bits.
    pub fn va_bits(&self) -> u32 {
        self.page_bits + self.index_bits * self.levels
    }

    /// Page size in words.
    pub fn page_words(&self) -> u64 {
        1 << self.page_bits
    }
}

/// The result of a translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WalkOutcome {
    /// Translation succeeded.
    Mapped {
        /// Physical address.
        pa: Addr,
        /// Leaf permissions.
        perms: Perms,
        /// Level at which the leaf/block entry was found.
        level: u32,
    },
    /// Translation fault.
    Fault {
        /// First level with an invalid entry.
        level: u32,
    },
}

impl WalkOutcome {
    /// The physical address if mapped.
    pub fn pa(&self) -> Option<Addr> {
        match self {
            WalkOutcome::Mapped { pa, .. } => Some(*pa),
            WalkOutcome::Fault { .. } => None,
        }
    }
}

/// Errors from page-table updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapError {
    /// The target entry already holds a valid mapping (write-once / no
    /// silent overwrite discipline).
    AlreadyMapped,
    /// Unmap of a non-existent mapping.
    NotMapped,
    /// The page pool is exhausted.
    OutOfTablePages,
    /// A block entry was found where a table pointer was required.
    BlocksInTheWay,
    /// Block base not aligned to the block span.
    Misaligned,
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::AlreadyMapped => write!(f, "entry already holds a valid mapping"),
            MapError::NotMapped => write!(f, "no mapping to remove"),
            MapError::OutOfTablePages => write!(f, "page-table pool exhausted"),
            MapError::BlocksInTheWay => write!(f, "block entry where a table pointer is needed"),
            MapError::Misaligned => write!(f, "address not aligned to the mapping span"),
        }
    }
}

impl std::error::Error for MapError {}

/// One mapping discovered by [`PageTable::mappings`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// First virtual address covered.
    pub va: Addr,
    /// First physical address.
    pub pa: Addr,
    /// Words covered.
    pub words: u64,
    /// Permissions.
    pub perms: Perms,
}

impl Mapping {
    /// Splits the mapping into page-granular `(va, pa)` pairs. Leaf
    /// entries at higher levels (block mappings) cover several pages;
    /// consumers that reason per page — ownership projection, frame
    /// accounting — use this instead of re-deriving the span arithmetic.
    pub fn pages(&self, page_words: u64) -> impl Iterator<Item = (Addr, Addr)> + '_ {
        (0..self.words.div_ceil(page_words))
            .map(move |i| (self.va + i * page_words, self.pa + i * page_words))
    }
}

/// A multi-level page table rooted at a fixed physical page.
#[derive(Debug, Clone, Copy, Hash)]
pub struct PageTable {
    /// Root table base address.
    pub root: Addr,
    /// Geometry.
    pub geo: Geometry,
}

impl PageTable {
    /// Creates a handle (the root page must be zeroed by the caller —
    /// typically it comes from a scrubbed [`PagePool`]).
    pub fn new(root: Addr, geo: Geometry) -> Self {
        PageTable { root, geo }
    }

    /// Translates `va` over the current memory snapshot.
    pub fn walk(&self, mem: &PhysMem, va: Addr) -> WalkOutcome {
        let mut table = self.root;
        for level in 0..self.geo.levels {
            let cell = table + self.geo.index(va, level);
            match Pte::decode(mem.read(cell)) {
                None => return WalkOutcome::Fault { level },
                Some(p) if p.kind == PteKind::Table => {
                    if level == self.geo.levels - 1 {
                        // Malformed: table pointer at leaf level.
                        return WalkOutcome::Fault { level };
                    }
                    table = p.base;
                }
                Some(p) => {
                    // Page (leaf) or block (above leaf) output.
                    let span = self.geo.span(level);
                    return WalkOutcome::Mapped {
                        pa: p.base + (va & (span - 1)),
                        perms: p.perms,
                        level,
                    };
                }
            }
        }
        unreachable!("loop returns at leaf level");
    }

    /// Maps a single page: the walk-allocate-set procedure of `set_s2pt`.
    ///
    /// Missing intermediate tables are allocated from `pool` (zeroed).
    /// Fails with [`MapError::AlreadyMapped`] rather than overwriting.
    /// Returns the page-table writes performed, in program order.
    ///
    /// # Examples
    ///
    /// ```
    /// use vrm_mmu::{Geometry, PagePool, PageTable, Perms, PhysMem};
    ///
    /// let mut mem = PhysMem::new();
    /// let geo = Geometry::arm_3level();
    /// let mut pool = PagePool::new(&mut mem, 0x100_000, geo.page_words(), 16);
    /// let root = pool.alloc(&mem).unwrap();
    /// let pt = PageTable::new(root, geo);
    ///
    /// let writes = pt.map(&mut mem, &mut pool, 0x4000, 0x80_000, Perms::RW).unwrap();
    /// assert_eq!(writes.len(), 3); // two fresh tables + the leaf
    /// assert_eq!(pt.walk(&mem, 0x4007).pa(), Some(0x80_007));
    /// ```
    pub fn map(
        &self,
        mem: &mut PhysMem,
        pool: &mut PagePool,
        va: Addr,
        pa: Addr,
        perms: Perms,
    ) -> Result<Vec<(Addr, Val)>, MapError> {
        self.map_at_level(mem, pool, va, pa, perms, self.geo.levels - 1)
    }

    /// Maps a block (huge page) at `level` (< levels - 1 maps a block;
    /// `levels - 1` is equivalent to [`PageTable::map`]).
    pub fn map_block(
        &self,
        mem: &mut PhysMem,
        pool: &mut PagePool,
        va: Addr,
        pa: Addr,
        perms: Perms,
        level: u32,
    ) -> Result<Vec<(Addr, Val)>, MapError> {
        self.map_at_level(mem, pool, va, pa, perms, level)
    }

    fn map_at_level(
        &self,
        mem: &mut PhysMem,
        pool: &mut PagePool,
        va: Addr,
        pa: Addr,
        perms: Perms,
        target_level: u32,
    ) -> Result<Vec<(Addr, Val)>, MapError> {
        let span = self.geo.span(target_level);
        if pa & (span - 1) != 0 || va & (span - 1) != 0 {
            return Err(MapError::Misaligned);
        }
        let mut writes = Vec::new();
        let mut table = self.root;
        for level in 0..=target_level {
            let cell = table + self.geo.index(va, level);
            if level == target_level {
                if Pte::decode(mem.read(cell)).is_some() {
                    return Err(MapError::AlreadyMapped);
                }
                let v = Pte::page(pa, perms);
                mem.write(cell, v);
                writes.push((cell, v));
                return Ok(writes);
            }
            match Pte::decode(mem.read(cell)) {
                None => {
                    let new_table = pool.alloc(mem).ok_or(MapError::OutOfTablePages)?;
                    let v = Pte::table(new_table);
                    mem.write(cell, v);
                    writes.push((cell, v));
                    table = new_table;
                }
                Some(p) if p.kind == PteKind::Table => table = p.base,
                Some(_) => return Err(MapError::BlocksInTheWay),
            }
        }
        unreachable!("loop returns at target level");
    }

    /// Unmaps the entry covering `va` (page or block). Tables are never
    /// reclaimed ("no table at any level will be removed", §5.4).
    /// Returns the single page-table write performed.
    pub fn unmap(&self, mem: &mut PhysMem, va: Addr) -> Result<Vec<(Addr, Val)>, MapError> {
        let mut table = self.root;
        for level in 0..self.geo.levels {
            let cell = table + self.geo.index(va, level);
            match Pte::decode(mem.read(cell)) {
                None => return Err(MapError::NotMapped),
                Some(p) if p.kind == PteKind::Table && level < self.geo.levels - 1 => {
                    table = p.base;
                }
                Some(_) => {
                    mem.write(cell, 0);
                    return Ok(vec![(cell, 0)]);
                }
            }
        }
        Err(MapError::NotMapped)
    }

    /// Enumerates every mapping in the tree (for invariant checking),
    /// in virtual-address order. Only the non-zero cells of each table
    /// are decoded ([`PhysMem::live`]): a zero cell is no entry.
    pub fn mappings(&self, mem: &PhysMem) -> Vec<Mapping> {
        let mut out = Vec::new();
        self.collect(mem, self.root, 0, 0, &mut out);
        out
    }

    fn collect(
        &self,
        mem: &PhysMem,
        table: Addr,
        level: u32,
        va_base: Addr,
        out: &mut Vec<Mapping>,
    ) {
        let entries = 1u64 << self.geo.index_bits;
        let span = self.geo.span(level);
        for (cell, word) in mem.live(table, table + entries) {
            let va = va_base + (cell - table) * span;
            match Pte::decode(word) {
                None => {}
                Some(p) if p.kind == PteKind::Table && level < self.geo.levels - 1 => {
                    self.collect(mem, p.base, level + 1, va, out);
                }
                Some(p) => out.push(Mapping {
                    va,
                    pa: p.base,
                    words: span,
                    perms: p.perms,
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(levels: u32) -> (PhysMem, PagePool, PageTable) {
        let mut mem = PhysMem::new();
        let geo = Geometry::tiny(levels);
        let mut pool = PagePool::new(&mut mem, 0x1000, geo.page_words(), 64);
        let root = pool.alloc(&mem).unwrap();
        (mem, pool, PageTable::new(root, geo))
    }

    #[test]
    fn map_walk_unmap_roundtrip() {
        let (mut mem, mut pool, pt) = setup(2);
        let va = 0x35; // some va
        let page_va = va & !0xf;
        let writes = pt
            .map(&mut mem, &mut pool, page_va, 0x200, Perms::RW)
            .unwrap();
        assert_eq!(writes.len(), 2); // fresh intermediate table + leaf
        match pt.walk(&mem, va) {
            WalkOutcome::Mapped { pa, perms, level } => {
                assert_eq!(pa, 0x200 + (va & 0xf));
                assert_eq!(perms, Perms::RW);
                assert_eq!(level, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Second map of the same page fails (no overwrite).
        assert_eq!(
            pt.map(&mut mem, &mut pool, page_va, 0x300, Perms::RW),
            Err(MapError::AlreadyMapped)
        );
        let w = pt.unmap(&mut mem, va).unwrap();
        assert_eq!(w.len(), 1);
        assert!(matches!(pt.walk(&mem, va), WalkOutcome::Fault { level: 1 }));
        // Unmapping again fails.
        assert_eq!(pt.unmap(&mut mem, va), Err(MapError::NotMapped));
    }

    #[test]
    fn second_map_in_same_table_writes_once() {
        let (mut mem, mut pool, pt) = setup(2);
        pt.map(&mut mem, &mut pool, 0x00, 0x200, Perms::RW).unwrap();
        let writes = pt.map(&mut mem, &mut pool, 0x10, 0x210, Perms::RW).unwrap();
        assert_eq!(writes.len(), 1); // intermediate table already present
    }

    #[test]
    fn four_level_map() {
        let (mut mem, mut pool, pt) = setup(4);
        let va = 0x0;
        let writes = pt.map(&mut mem, &mut pool, va, 0x800, Perms::RWX).unwrap();
        assert_eq!(writes.len(), 4); // 3 tables + leaf
        assert_eq!(pt.walk(&mem, va).pa(), Some(0x800));
    }

    #[test]
    fn block_mapping_covers_span() {
        let (mut mem, mut pool, pt) = setup(3);
        // Block at level 1 covers index_bits + page_bits = 6 bits = 64 words.
        let writes = pt
            .map_block(&mut mem, &mut pool, 0x0, 0x400, Perms::RW, 1)
            .unwrap();
        assert_eq!(writes.len(), 2); // level-0 table + block entry
        assert_eq!(pt.walk(&mem, 0x00).pa(), Some(0x400));
        assert_eq!(pt.walk(&mem, 0x3f).pa(), Some(0x43f));
        assert!(matches!(pt.walk(&mem, 0x40), WalkOutcome::Fault { .. }));
        // Mapping a page under the block fails.
        assert_eq!(
            pt.map(&mut mem, &mut pool, 0x20, 0x500, Perms::RW),
            Err(MapError::BlocksInTheWay)
        );
    }

    #[test]
    fn misaligned_block_rejected() {
        let (mut mem, mut pool, pt) = setup(3);
        assert_eq!(
            pt.map_block(&mut mem, &mut pool, 0x10, 0x400, Perms::RW, 1),
            Err(MapError::Misaligned)
        );
    }

    #[test]
    fn mappings_enumeration() {
        let (mut mem, mut pool, pt) = setup(2);
        pt.map(&mut mem, &mut pool, 0x00, 0x200, Perms::RW).unwrap();
        pt.map(&mut mem, &mut pool, 0x50, 0x300, Perms::RO).unwrap();
        let mut ms = pt.mappings(&mem);
        ms.sort_by_key(|m| m.va);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].va, 0x00);
        assert_eq!(ms[0].pa, 0x200);
        assert_eq!(ms[1].va, 0x50);
        assert_eq!(ms[1].perms, Perms::RO);
    }

    /// The dense reference walk: reads every entry of every table, one
    /// by one — the oracle for [`PageTable::mappings`], which reads only
    /// the live cells.
    fn dense_mappings(pt: &PageTable, mem: &PhysMem) -> Vec<Mapping> {
        fn go(
            pt: &PageTable,
            mem: &PhysMem,
            table: Addr,
            level: u32,
            va_base: Addr,
            out: &mut Vec<Mapping>,
        ) {
            let span = pt.geo.span(level);
            for i in 0..1u64 << pt.geo.index_bits {
                let va = va_base + i * span;
                match Pte::decode(mem.read(table + i)) {
                    None => {}
                    Some(p) if p.kind == PteKind::Table && level < pt.geo.levels - 1 => {
                        go(pt, mem, p.base, level + 1, va, out);
                    }
                    Some(p) => out.push(Mapping {
                        va,
                        pa: p.base,
                        words: span,
                        perms: p.perms,
                    }),
                }
            }
        }
        let mut out = Vec::new();
        go(pt, mem, pt.root, 0, 0, &mut out);
        out
    }

    #[test]
    fn mappings_equal_a_dense_walk_after_random_edits() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x7461_626c);
        let geos = [
            Geometry::arm_3level(),
            Geometry::arm_4level(),
            Geometry::tiny(2),
            Geometry::tiny(3),
            Geometry::tiny(4),
        ];
        for geo in geos {
            let mut mem = PhysMem::new();
            let mut pool = PagePool::new(&mut mem, 0x100_000, geo.page_words(), 64);
            let pt = PageTable::new(pool.alloc(&mem).unwrap(), geo);
            let last = (1u64 << geo.index_bits) - 1;
            for step in 0..400 {
                // Each level's index is one of the table's first two or
                // last two entries, so mappings crowd both ends of a
                // table (and of the memory chunk it starts).
                let level = rng.gen_range(0..geo.levels);
                let va = (0..=level).fold(0, |va, l| {
                    let i = [0, 1, last - 1, last][rng.gen_range(0..4)];
                    va | (i << (geo.page_bits + geo.index_bits * (geo.levels - 1 - l)))
                });
                let pa = 0x4000_0000 + rng.gen_range(0..8u64) * geo.span(level);
                let _ = match rng.gen_range(0..4u32) {
                    0 | 1 => pt.map_block(&mut mem, &mut pool, va, pa, Perms::RW, level),
                    2 => pt.unmap(&mut mem, va),
                    _ => {
                        // A non-zero word without the valid bit is no
                        // entry either.
                        let cell = pt.root + rng.gen_range(0..last + 1);
                        if mem.read(cell) == 0 {
                            mem.write(cell, 0b100);
                        }
                        Ok(Vec::new())
                    }
                };
                assert_eq!(
                    pt.mappings(&mem),
                    dense_mappings(&pt, &mem),
                    "{geo:?} step {step}"
                );
            }
            assert!(!pt.mappings(&mem).is_empty(), "{geo:?}: nothing mapped");
        }
    }

    #[test]
    fn pool_exhaustion_reported() {
        let mut mem = PhysMem::new();
        let geo = Geometry::tiny(3);
        let mut pool = PagePool::new(&mut mem, 0x1000, geo.page_words(), 1);
        let root = pool.alloc(&mem).unwrap();
        let pt = PageTable::new(root, geo);
        assert_eq!(
            pt.map(&mut mem, &mut pool, 0, 0x800, Perms::RW),
            Err(MapError::OutOfTablePages)
        );
    }
}
