//! Transactional-Page-Table checking for tagged tables (condition 4).
//!
//! A critical section's page-table writes are *transactional* if, under
//! arbitrary reordering of the writes (modelled as any subset having
//! reached memory when a racing walk snapshots it), every walk observes
//! the before-state result, the after-state result, or a fault.
//!
//! This is the tagged-PTE analogue of
//! `vrm_core::conditions::check_transactional` (which covers the raw
//! litmus encoding); it is the checker `vrm-sekvm` runs on every
//! `set_s2pt`/`clear_s2pt`/`set_spt`/`clear_spt` invocation.

use vrm_memmodel::ir::{Addr, Val};

use crate::mem::PhysMem;
use crate::table::{PageTable, WalkOutcome};

/// A condition-4 counterexample.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TxViolation {
    /// Which writes (indices into the write list) had landed.
    pub applied: Vec<usize>,
    /// The virtual address whose walk misbehaved.
    pub va: Addr,
    /// What the walk observed.
    pub observed: WalkOutcome,
    /// The legal before-state result.
    pub before: WalkOutcome,
    /// The legal after-state result.
    pub after: WalkOutcome,
}

/// Checks that `writes` (performed against `before`, yielding the table
/// state probed at `vas`) are transactional.
///
/// `before` must be the memory *at critical-section entry* (i.e. with the
/// writes not yet applied).
pub fn check_writes_transactional(
    pt: &PageTable,
    before: &PhysMem,
    writes: &[(Addr, Val)],
    vas: &[Addr],
) -> Result<(), TxViolation> {
    assert!(writes.len() <= 20, "subset enumeration bound");
    let mut after = before.clone();
    for &(a, v) in writes {
        after.write(a, v);
    }
    for mask in 0u32..(1 << writes.len()) {
        let mut mem = before.clone();
        let mut applied = Vec::new();
        for (i, &(a, v)) in writes.iter().enumerate() {
            if mask & (1 << i) != 0 {
                mem.write(a, v);
                applied.push(i);
            }
        }
        for &va in vas {
            let got = pt.walk(&mem, va);
            let b = pt.walk(before, va);
            let a = pt.walk(&after, va);
            let is_fault = matches!(got, WalkOutcome::Fault { .. });
            if got != b && got != a && !is_fault {
                return Err(TxViolation {
                    applied,
                    va,
                    observed: got,
                    before: b,
                    after: a,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PagePool;
    use crate::pte::{Perms, Pte};
    use crate::table::Geometry;

    fn setup() -> (PhysMem, PagePool, PageTable) {
        let mut mem = PhysMem::new();
        let geo = Geometry::tiny(2);
        let mut pool = PagePool::new(&mut mem, 0x1000, geo.page_words(), 64);
        let root = pool.alloc(&mem).unwrap();
        (mem, pool, PageTable::new(root, geo))
    }

    #[test]
    fn fresh_table_map_is_transactional() {
        let (mut mem, mut pool, pt) = setup();
        let before = mem.clone();
        let writes = pt.map(&mut mem, &mut pool, 0x00, 0x800, Perms::RW).unwrap();
        assert_eq!(writes.len(), 2);
        check_writes_transactional(&pt, &before, &writes, &[0x00, 0x05, 0x10]).unwrap();
    }

    #[test]
    fn unmap_is_transactional() {
        let (mut mem, mut pool, pt) = setup();
        pt.map(&mut mem, &mut pool, 0x00, 0x800, Perms::RW).unwrap();
        let before = mem.clone();
        let writes = pt.unmap(&mut mem, 0x00).unwrap();
        check_writes_transactional(&pt, &before, &writes, &[0x00, 0x10]).unwrap();
    }

    #[test]
    fn live_table_reuse_is_not_transactional() {
        // Example 5 shape: clear the root entry and remap a leaf of the
        // still-reachable old table in one section.
        let (mut mem, mut pool, pt) = setup();
        pt.map(&mut mem, &mut pool, 0x00, 0x800, Perms::RW).unwrap();
        let before = mem.clone();
        // Manual (buggy) update: unmap root entry, then write a new leaf
        // into the old table.
        let old_table = match Pte::decode(mem.read(pt.root)) {
            Some(p) => p.base,
            None => panic!("root entry missing"),
        };
        let writes = vec![(pt.root, 0u64), (old_table, Pte::page(0x900, Perms::RW))];
        let err = check_writes_transactional(&pt, &before, &writes, &[0x00]).unwrap_err();
        // The anomalous view: only the leaf write landed -> va 0 maps to
        // the *new* page while the root still points at the old table.
        assert_eq!(err.applied, vec![1]);
        assert_eq!(err.observed.pa(), Some(0x900));
    }
}
