//! KCore's own EL2 page table (§5.1).
//!
//! At boot all physical memory is mapped into a contiguous EL2 virtual
//! region (the linear map), using block entries like the Linux kernel's
//! direct map. Afterwards the table is only ever *extended*: the single
//! primitive `set_el2_pt` maps a page at a previously-empty entry, and the
//! `remap_pfn` hypercall uses it to alias VM-image pages into a contiguous
//! region for hashing. Nothing is ever unmapped or remapped — the
//! Write-Once-Kernel-Mapping condition.

use vrm_memmodel::ir::Addr;
use vrm_mmu::mem::PhysMem;
use vrm_mmu::pool::PagePool;
use vrm_mmu::pte::Perms;
use vrm_mmu::table::{Geometry, MapError, PageTable, WalkOutcome};

use crate::events::{Log, MEvent, TableKind};
use crate::layout::{EL2_LINEAR_BASE, MAX_PFN, PAGE_WORDS};

/// KCore's EL2 address space.
#[derive(Debug, Clone, Hash)]
pub struct El2Pt {
    pt: PageTable,
}

impl El2Pt {
    /// Builds the boot-time linear map (all physical memory, block
    /// mappings) and returns the table handle.
    ///
    /// Boot runs before any concurrency, so its writes are not subject to
    /// the write-once monitoring (the condition constrains the *shared*
    /// table after boot).
    pub fn boot(mem: &mut PhysMem, pool: &mut PagePool) -> Self {
        let geo = Geometry::arm_3level();
        let root = pool.alloc(mem).expect("EL2 root");
        let pt = PageTable::new(root, geo);
        // Map [0, MAX_PFN) pages at EL2_LINEAR_BASE using level-1 blocks.
        let block_words = geo.span(1);
        let total_words = MAX_PFN * PAGE_WORDS;
        let mut off = 0;
        while off < total_words {
            pt.map_block(mem, pool, EL2_LINEAR_BASE + off, off, Perms::RWX, 1)
                .expect("boot linear map");
            off += block_words;
        }
        El2Pt { pt }
    }

    /// The linear-map EL2 virtual address of a physical address.
    pub fn linear_va(pa: Addr) -> Addr {
        EL2_LINEAR_BASE + pa
    }

    /// `set_el2_pt`: maps one page at `va`, refusing to overwrite.
    ///
    /// This is the only primitive that changes the EL2 table after boot;
    /// `MapError::AlreadyMapped` is how write-once is enforced.
    pub fn set_el2_pt(
        &self,
        mem: &mut PhysMem,
        pool: &mut PagePool,
        log: &mut Log,
        cpu: usize,
        va: Addr,
        pa: Addr,
    ) -> Result<(), MapError> {
        // Record old values for the monitor *before* applying.
        let before = mem.clone_ranges(&[pool.range(), (self.pt.root, self.pt.root + 1)]);
        let writes = self.pt.map(mem, pool, va, pa, Perms::RW)?;
        for (cell, new) in writes {
            log.push(MEvent::PtWrite {
                cpu,
                table: TableKind::El2,
                cell,
                old: before.read(cell),
                new,
            });
        }
        Ok(())
    }

    /// Translates an EL2 virtual address.
    pub fn translate(&self, mem: &PhysMem, va: Addr) -> Option<Addr> {
        match self.pt.walk(mem, va) {
            WalkOutcome::Mapped { pa, .. } => Some(pa),
            WalkOutcome::Fault { .. } => None,
        }
    }

    /// The underlying table (for invariant checks).
    pub fn table(&self) -> &PageTable {
        &self.pt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{page_addr, EL2_POOL_PFN, EL2_REMAP_BASE};

    fn setup() -> (PhysMem, PagePool, El2Pt) {
        let mut mem = PhysMem::new();
        let mut pool = PagePool::new(
            &mut mem,
            page_addr(EL2_POOL_PFN.0),
            PAGE_WORDS,
            EL2_POOL_PFN.1 - EL2_POOL_PFN.0,
        );
        let el2 = El2Pt::boot(&mut mem, &mut pool);
        (mem, pool, el2)
    }

    #[test]
    fn linear_map_covers_all_memory() {
        let (mem, _, el2) = setup();
        assert_eq!(el2.translate(&mem, El2Pt::linear_va(0)), Some(0));
        let last = MAX_PFN * PAGE_WORDS - 1;
        assert_eq!(el2.translate(&mem, El2Pt::linear_va(last)), Some(last));
        assert_eq!(el2.translate(&mem, EL2_REMAP_BASE), None);
    }

    #[test]
    fn set_el2_pt_maps_once() {
        let (mut mem, mut pool, el2) = setup();
        let mut log = Log::new();
        let va = EL2_REMAP_BASE;
        el2.set_el2_pt(&mut mem, &mut pool, &mut log, 0, va, page_addr(0x1800))
            .unwrap();
        assert_eq!(el2.translate(&mem, va), Some(page_addr(0x1800)));
        // Second map of the same va fails: write-once.
        assert_eq!(
            el2.set_el2_pt(&mut mem, &mut pool, &mut log, 0, va, page_addr(0x1900)),
            Err(MapError::AlreadyMapped)
        );
        // The monitor sees only empty-to-valid writes.
        for e in &log {
            if let MEvent::PtWrite { old, .. } = e {
                assert_eq!(*old, 0);
            }
        }
    }

    #[test]
    fn remap_region_distinct_from_linear() {
        let (mut mem, mut pool, el2) = setup();
        let mut log = Log::new();
        // A pfn mapped at the remap region remains readable through both
        // the linear map and the alias.
        let pfn = 0x1800;
        mem.write(page_addr(pfn) + 3, 77);
        el2.set_el2_pt(
            &mut mem,
            &mut pool,
            &mut log,
            0,
            EL2_REMAP_BASE,
            page_addr(pfn),
        )
        .unwrap();
        let via_alias = el2.translate(&mem, EL2_REMAP_BASE + 3).unwrap();
        let via_linear = el2
            .translate(&mem, El2Pt::linear_va(page_addr(pfn) + 3))
            .unwrap();
        assert_eq!(mem.read(via_alias), 77);
        assert_eq!(via_alias, via_linear);
    }
}
