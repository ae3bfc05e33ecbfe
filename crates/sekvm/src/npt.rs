//! Stage-2 (nested) page tables: `set_s2pt` and `clear_s2pt` (§5.4–5.5).
//!
//! One stage-2 tree per principal (KServ and each VM), built from the
//! shared scrubbed pool. `set_s2pt` performs the walk-allocate-set
//! procedure inside the caller's critical section and never overwrites;
//! `clear_s2pt` zeroes one existing leaf and must be followed by a barrier
//! and a TLB invalidation (Sequential-TLB-Invalidation), which this module
//! emits — unless a mutant suppresses them.
//!
//! Every update optionally validates the Transactional-Page-Table
//! condition on exactly the writes it performed, against the table state
//! at critical-section entry.

use vrm_memmodel::ir::Addr;
use vrm_mmu::mem::PhysMem;
use vrm_mmu::pool::PagePool;
use vrm_mmu::pte::Perms;
use vrm_mmu::table::{Geometry, MapError, PageTable, WalkOutcome};
use vrm_mmu::transactional::{check_writes_transactional, TxViolation};

use crate::events::{Log, MEvent, TableKind};

/// Errors from stage-2 updates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum S2Error {
    /// Underlying table operation failed.
    Map(MapError),
    /// The operation's writes were not transactional (condition 4).
    NotTransactional(Box<TxViolation>),
}

impl std::fmt::Display for S2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            S2Error::Map(e) => write!(f, "table update failed: {e}"),
            S2Error::NotTransactional(v) => {
                write!(f, "non-transactional page-table update: {v:?}")
            }
        }
    }
}

impl std::error::Error for S2Error {}

impl From<MapError> for S2Error {
    fn from(e: MapError) -> Self {
        S2Error::Map(e)
    }
}

/// Behaviour switches used by the mutant suite.
#[derive(Debug, Clone, Copy, Default)]
pub struct S2Behaviour {
    /// Skip the TLBI after unmap (breaks condition 5).
    pub skip_tlbi: bool,
    /// Skip the barrier before the TLBI (breaks condition 5).
    pub skip_barrier: bool,
    /// Emit the barrier after the TLBI instead of before it (breaks
    /// condition 5: the invalidate may complete before the unmap write
    /// is visible).
    pub barrier_after_tlbi: bool,
    /// Validate condition 4 on every update.
    pub check_transactional: bool,
}

/// One principal's stage-2 table.
#[derive(Debug, Clone, Hash)]
pub struct Stage2 {
    /// Which tree this is (for event attribution).
    pub kind: TableKind,
    pt: PageTable,
}

impl Stage2 {
    /// Allocates a fresh root from the pool.
    pub fn new(
        mem: &mut PhysMem,
        pool: &mut PagePool,
        kind: TableKind,
        geo: Geometry,
    ) -> Option<Self> {
        let root = pool.alloc(mem)?;
        Some(Stage2 {
            kind,
            pt: PageTable::new(root, geo),
        })
    }

    /// Translates a guest/intermediate physical address.
    pub fn translate(&self, mem: &PhysMem, gpa: Addr) -> Option<Addr> {
        match self.pt.walk(mem, gpa) {
            WalkOutcome::Mapped { pa, .. } => Some(pa),
            WalkOutcome::Fault { .. } => None,
        }
    }

    /// Translates and returns the leaf permissions.
    pub fn translate_with_perms(&self, mem: &PhysMem, gpa: Addr) -> Option<(Addr, Perms)> {
        match self.pt.walk(mem, gpa) {
            WalkOutcome::Mapped { pa, perms, .. } => Some((pa, perms)),
            WalkOutcome::Fault { .. } => None,
        }
    }

    /// `set_s2pt`: establishes `gpa -> pa` (page granularity).
    #[allow(clippy::too_many_arguments)]
    pub fn set_s2pt(
        &self,
        mem: &mut PhysMem,
        pool: &mut PagePool,
        log: &mut Log,
        cpu: usize,
        behaviour: S2Behaviour,
        gpa: Addr,
        pa: Addr,
        perms: Perms,
    ) -> Result<(), S2Error> {
        let before = self.pt_snapshot(mem, pool);
        let writes = self.pt.map(mem, pool, gpa, pa, perms)?;
        for &(cell, new) in &writes {
            log.push(MEvent::PtWrite {
                cpu,
                table: self.kind,
                cell,
                old: before.read(cell),
                new,
            });
        }
        if behaviour.check_transactional {
            check_writes_transactional(&self.pt, &before, &writes, &[gpa])
                .map_err(|v| S2Error::NotTransactional(Box::new(v)))?;
        }
        Ok(())
    }

    /// `clear_s2pt`: unmaps `gpa`, then (barrier, TLBI).
    pub fn clear_s2pt(
        &self,
        mem: &mut PhysMem,
        pool: &PagePool,
        log: &mut Log,
        cpu: usize,
        behaviour: S2Behaviour,
        gpa: Addr,
    ) -> Result<(), S2Error> {
        let before = self.pt_snapshot(mem, pool);
        let writes = self.pt.unmap(mem, gpa)?;
        for &(cell, new) in &writes {
            log.push(MEvent::PtWrite {
                cpu,
                table: self.kind,
                cell,
                old: before.read(cell),
                new,
            });
        }
        let barrier = !behaviour.skip_barrier && !behaviour.skip_tlbi;
        if barrier && !behaviour.barrier_after_tlbi {
            log.push(MEvent::Barrier { cpu });
        }
        if !behaviour.skip_tlbi {
            log.push(MEvent::Tlbi {
                cpu,
                table: self.kind,
                vpn: Some(self.pt.geo.vpn(gpa)),
            });
        }
        if barrier && behaviour.barrier_after_tlbi {
            log.push(MEvent::Barrier { cpu });
        }
        if behaviour.check_transactional {
            check_writes_transactional(&self.pt, &before, &writes, &[gpa])
                .map_err(|v| S2Error::NotTransactional(Box::new(v)))?;
        }
        Ok(())
    }

    /// All current mappings (for invariant checks).
    pub fn mappings(&self, mem: &PhysMem) -> Vec<vrm_mmu::table::Mapping> {
        self.pt.mappings(mem)
    }

    /// The root cell (for snapshot ranges).
    pub fn root(&self) -> Addr {
        self.pt.root
    }

    /// The geometry.
    pub fn geometry(&self) -> Geometry {
        self.pt.geo
    }

    fn pt_snapshot(&self, mem: &PhysMem, pool: &PagePool) -> PhysMem {
        mem.clone_ranges(&[
            pool.range(),
            (self.pt.root, self.pt.root + self.pt.geo.page_words()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{page_addr, PAGE_WORDS, S2_POOL_PFN};

    fn setup(levels: u32) -> (PhysMem, PagePool, Stage2) {
        let mut mem = PhysMem::new();
        let mut pool = PagePool::new(
            &mut mem,
            page_addr(S2_POOL_PFN.0),
            PAGE_WORDS,
            S2_POOL_PFN.1 - S2_POOL_PFN.0,
        );
        let geo = if levels == 3 {
            Geometry::arm_3level()
        } else {
            Geometry::arm_4level()
        };
        let s2 = Stage2::new(&mut mem, &mut pool, TableKind::Stage2(Some(1)), geo).unwrap();
        (mem, pool, s2)
    }

    fn behaviour() -> S2Behaviour {
        S2Behaviour {
            check_transactional: true,
            ..Default::default()
        }
    }

    #[test]
    fn set_clear_roundtrip_3level() {
        let (mut mem, mut pool, s2) = setup(3);
        let mut log = Log::new();
        let gpa = 0u64;
        let pa = page_addr(0x1800);
        s2.set_s2pt(
            &mut mem,
            &mut pool,
            &mut log,
            0,
            behaviour(),
            gpa,
            pa,
            Perms::RWX,
        )
        .unwrap();
        assert_eq!(s2.translate(&mem, gpa + 5), Some(pa + 5));
        s2.clear_s2pt(&mut mem, &pool, &mut log, 0, behaviour(), gpa)
            .unwrap();
        assert_eq!(s2.translate(&mem, gpa), None);
        // Barrier + TLBI were emitted after the unmap write.
        let barrier_pos = log
            .iter()
            .position(|e| matches!(e, MEvent::Barrier { .. }))
            .expect("barrier");
        let tlbi_pos = log
            .iter()
            .position(|e| matches!(e, MEvent::Tlbi { .. }))
            .expect("tlbi");
        assert!(barrier_pos < tlbi_pos);
    }

    #[test]
    fn set_clear_roundtrip_4level() {
        let (mut mem, mut pool, s2) = setup(4);
        let mut log = Log::new();
        let gpa = 3 * PAGE_WORDS;
        let pa = page_addr(0x1801);
        s2.set_s2pt(
            &mut mem,
            &mut pool,
            &mut log,
            0,
            behaviour(),
            gpa,
            pa,
            Perms::RW,
        )
        .unwrap();
        assert_eq!(s2.translate(&mem, gpa), Some(pa));
        // 4-level set in a fresh tree writes 4 cells, all previously 0,
        // and is transactional.
        let writes: Vec<_> = log
            .iter()
            .filter(|e| matches!(e, MEvent::PtWrite { .. }))
            .collect();
        assert_eq!(writes.len(), 4);
    }

    #[test]
    fn overwrite_rejected() {
        let (mut mem, mut pool, s2) = setup(3);
        let mut log = Log::new();
        s2.set_s2pt(
            &mut mem,
            &mut pool,
            &mut log,
            0,
            behaviour(),
            0,
            page_addr(0x1800),
            Perms::RW,
        )
        .unwrap();
        assert_eq!(
            s2.set_s2pt(
                &mut mem,
                &mut pool,
                &mut log,
                0,
                behaviour(),
                0,
                page_addr(0x1900),
                Perms::RW,
            ),
            Err(S2Error::Map(MapError::AlreadyMapped))
        );
    }

    #[test]
    fn mutant_skips_tlbi() {
        let (mut mem, mut pool, s2) = setup(3);
        let mut log = Log::new();
        s2.set_s2pt(
            &mut mem,
            &mut pool,
            &mut log,
            0,
            behaviour(),
            0,
            page_addr(0x1800),
            Perms::RW,
        )
        .unwrap();
        let b = S2Behaviour {
            skip_tlbi: true,
            check_transactional: true,
            ..Default::default()
        };
        s2.clear_s2pt(&mut mem, &pool, &mut log, 0, b, 0).unwrap();
        assert!(!log.iter().any(|e| matches!(e, MEvent::Tlbi { .. })));
    }
}
