//! SMMU page tables: `set_spt` and `clear_spt` (§5.4–5.5).
//!
//! DMA-capable devices translate through per-device SMMU tables that
//! KCore manages exactly like stage-2 tables, except pages come from the
//! SMMU pool and invalidations are SMMU TLB invalidations. The proofs (and
//! here, the code paths) are shared with [`npt`](crate::npt).

use vrm_memmodel::ir::Addr;
use vrm_mmu::mem::PhysMem;
use vrm_mmu::pool::PagePool;
use vrm_mmu::pte::Perms;
use vrm_mmu::table::Geometry;

use crate::events::{Log, TableKind};
use crate::npt::{S2Behaviour, S2Error, Stage2};
use crate::s2page::Owner;

/// One SMMU-attached device's translation state.
#[derive(Debug, Clone, Hash)]
pub struct SmmuDevice {
    /// Device id.
    pub dev: u32,
    /// The principal this device is assigned to (DMA on behalf of).
    pub assigned_to: Owner,
    table: Stage2,
}

impl SmmuDevice {
    /// Creates the device's SMMU table (assigned to KServ by default).
    pub fn new(mem: &mut PhysMem, pool: &mut PagePool, dev: u32) -> Option<Self> {
        let table = Stage2::new(mem, pool, TableKind::Smmu(dev), Geometry::arm_3level())?;
        Some(SmmuDevice {
            dev,
            assigned_to: Owner::KServ,
            table,
        })
    }

    /// `set_spt`: maps `iova -> pa` for this device.
    #[allow(clippy::too_many_arguments)]
    pub fn set_spt(
        &self,
        mem: &mut PhysMem,
        pool: &mut PagePool,
        log: &mut Log,
        cpu: usize,
        behaviour: S2Behaviour,
        iova: Addr,
        pa: Addr,
    ) -> Result<(), S2Error> {
        self.table
            .set_spt_inner(mem, pool, log, cpu, behaviour, iova, pa)
    }

    /// `clear_spt`: unmaps `iova`, then (barrier, SMMU TLBI).
    pub fn clear_spt(
        &self,
        mem: &mut PhysMem,
        pool: &PagePool,
        log: &mut Log,
        cpu: usize,
        behaviour: S2Behaviour,
        iova: Addr,
    ) -> Result<(), S2Error> {
        self.table.clear_s2pt(mem, pool, log, cpu, behaviour, iova)
    }

    /// Translates a device IOVA (what a DMA access would target).
    pub fn translate(&self, mem: &PhysMem, iova: Addr) -> Option<Addr> {
        self.table.translate(mem, iova)
    }

    /// Translates and returns the leaf permissions.
    pub fn translate_with_perms(
        &self,
        mem: &PhysMem,
        iova: Addr,
    ) -> Option<(Addr, vrm_mmu::pte::Perms)> {
        self.table.translate_with_perms(mem, iova)
    }

    /// Current mappings (invariant checks).
    pub fn mappings(&self, mem: &PhysMem) -> Vec<vrm_mmu::table::Mapping> {
        self.table.mappings(mem)
    }

    /// The device's table (for the dense projection oracle).
    #[cfg(test)]
    pub(crate) fn table(&self) -> &Stage2 {
        &self.table
    }
}

impl Stage2 {
    /// SMMU mappings are device DMA mappings: read-write, never exec.
    #[allow(clippy::too_many_arguments)]
    fn set_spt_inner(
        &self,
        mem: &mut PhysMem,
        pool: &mut PagePool,
        log: &mut Log,
        cpu: usize,
        behaviour: S2Behaviour,
        iova: Addr,
        pa: Addr,
    ) -> Result<(), S2Error> {
        self.set_s2pt(mem, pool, log, cpu, behaviour, iova, pa, Perms::RW)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::MEvent;
    use crate::layout::{page_addr, PAGE_WORDS, SMMU_POOL_PFN};

    fn setup() -> (PhysMem, PagePool, SmmuDevice) {
        let mut mem = PhysMem::new();
        let mut pool = PagePool::new(
            &mut mem,
            page_addr(SMMU_POOL_PFN.0),
            PAGE_WORDS,
            SMMU_POOL_PFN.1 - SMMU_POOL_PFN.0,
        );
        let dev = SmmuDevice::new(&mut mem, &mut pool, 0).unwrap();
        (mem, pool, dev)
    }

    #[test]
    fn dma_translation_roundtrip() {
        let (mut mem, mut pool, dev) = setup();
        let mut log = Log::new();
        let b = S2Behaviour {
            check_transactional: true,
            ..Default::default()
        };
        dev.set_spt(&mut mem, &mut pool, &mut log, 0, b, 0, page_addr(0x900))
            .unwrap();
        assert_eq!(dev.translate(&mem, 7), Some(page_addr(0x900) + 7));
        dev.clear_spt(&mut mem, &pool, &mut log, 0, b, 0).unwrap();
        assert_eq!(dev.translate(&mem, 7), None);
        // SMMU TLBI attributed to the right table.
        assert!(log.iter().any(|e| matches!(
            e,
            MEvent::Tlbi {
                table: TableKind::Smmu(0),
                ..
            }
        )));
    }
}
