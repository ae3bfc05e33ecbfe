//! Per-page ownership tracking (the `s2page` array, §5.3).
//!
//! "KCore tracks the owner of each 4 KB physical page of memory in an
//! s2page data structure. A page can only have one owner at any given
//! time, which can be KCore, KServ, or a VM. KCore will always check that
//! it is not the owner of a physical page before mapping it to a stage 2
//! or SMMU page table."

use std::sync::Arc;

use vrm_mmu::mem::cell_hash;

use crate::layout::{self, MAX_PFN};

/// The owner of one physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Owner {
    /// KCore private (never mappable into stage-2/SMMU tables).
    KCore,
    /// The untrusted host.
    KServ,
    /// A guest VM.
    Vm(u32),
}

/// Per-page metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct S2Page {
    /// Current owner.
    pub owner: Owner,
    /// Shared with KServ (grant/revoke for paravirtual I/O).
    pub shared: bool,
    /// Mapping count (how many stage-2/SMMU leaf entries reference it).
    pub map_count: u32,
}

/// Errors from ownership transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OwnershipError {
    /// Page number out of range.
    BadPfn,
    /// The page's current owner does not match the expected owner.
    WrongOwner {
        /// Observed owner.
        actual: Owner,
    },
    /// The page is still mapped somewhere.
    StillMapped,
    /// The page is KCore-private and may never be given away.
    KCorePrivate,
}

impl std::fmt::Display for OwnershipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OwnershipError::BadPfn => write!(f, "page frame number out of range"),
            OwnershipError::WrongOwner { actual } => {
                write!(f, "unexpected page owner {actual:?}")
            }
            OwnershipError::StillMapped => write!(f, "page is still mapped"),
            OwnershipError::KCorePrivate => write!(f, "KCore-private pages are not transferable"),
        }
    }
}

impl std::error::Error for OwnershipError {}

/// The ownership array.
///
/// The pages sit behind an [`Arc`], so a clone (every explored machine
/// state is one) shares the 16K-entry array until one side changes an
/// ownership record. A running 128-bit hash — the sum of
/// [`cell_hash`] over every `(pfn, page)` — is kept exact by the one
/// private helper all four mutators go through, so a state digest
/// reads it instead of walking the array.
#[derive(Clone)]
pub struct S2PageArray {
    pages: Arc<Vec<S2Page>>,
    hash: u128,
}

/// The debug form names the pages only; the hash is derived from them.
impl std::fmt::Debug for S2PageArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("S2PageArray")
            .field("pages", &self.pages)
            .finish()
    }
}

/// One page record's summand of the array hash: the page packed into
/// two words (the pfn is below 2^32, so `pfn | map_count << 32` is
/// injective) and mixed by [`cell_hash`].
fn page_hash(pfn: u64, p: &S2Page) -> u128 {
    let owner = match p.owner {
        Owner::KCore => 0,
        Owner::KServ => 1 << 32,
        Owner::Vm(v) => (2 << 32) | u64::from(v),
    };
    cell_hash(
        pfn | (u64::from(p.map_count) << 32),
        owner | (u64::from(p.shared) << 40),
    )
}

impl Default for S2PageArray {
    fn default() -> Self {
        Self::new()
    }
}

impl S2PageArray {
    /// Creates the array with the boot-time layout: KCore private regions
    /// owned by KCore, everything else by KServ.
    pub fn new() -> Self {
        let pages: Vec<S2Page> = (0..MAX_PFN)
            .map(|pfn| S2Page {
                owner: if layout::is_kcore_private(pfn) {
                    Owner::KCore
                } else {
                    Owner::KServ
                },
                shared: false,
                map_count: 0,
            })
            .collect();
        let hash = pages
            .iter()
            .zip(0..)
            .fold(0u128, |h, (p, pfn)| h.wrapping_add(page_hash(pfn, p)));
        S2PageArray {
            pages: Arc::new(pages),
            hash,
        }
    }

    /// Applies `edit` to an in-range page: unshares the array if a
    /// clone still holds it, and moves the running hash from the old
    /// record to the new one.
    fn update(&mut self, pfn: u64, edit: impl FnOnce(&mut S2Page)) {
        let p = &mut Arc::make_mut(&mut self.pages)[pfn as usize];
        self.hash = self.hash.wrapping_sub(page_hash(pfn, p));
        edit(p);
        self.hash = self.hash.wrapping_add(page_hash(pfn, p));
    }

    /// The running hash of every page record: equal for equal arrays,
    /// and O(1) to read.
    pub(crate) fn digest(&self) -> u128 {
        self.hash
    }

    /// Reads a page's metadata.
    pub fn get(&self, pfn: u64) -> Result<S2Page, OwnershipError> {
        self.pages
            .get(pfn as usize)
            .copied()
            .ok_or(OwnershipError::BadPfn)
    }

    /// The owner of a page.
    pub fn owner(&self, pfn: u64) -> Result<Owner, OwnershipError> {
        Ok(self.get(pfn)?.owner)
    }

    /// Transfers ownership, checking the expected current owner.
    pub fn transfer(&mut self, pfn: u64, expect: Owner, to: Owner) -> Result<(), OwnershipError> {
        let page = self.get(pfn)?;
        if page.owner == Owner::KCore && to != Owner::KCore {
            return Err(OwnershipError::KCorePrivate);
        }
        if page.owner != expect {
            return Err(OwnershipError::WrongOwner { actual: page.owner });
        }
        if page.map_count > 0 {
            return Err(OwnershipError::StillMapped);
        }
        self.update(pfn, |p| {
            p.owner = to;
            p.shared = false;
        });
        Ok(())
    }

    /// Marks a page shared (or unshared) with KServ.
    pub fn set_shared(&mut self, pfn: u64, shared: bool) -> Result<(), OwnershipError> {
        self.get(pfn)?;
        self.update(pfn, |p| p.shared = shared);
        Ok(())
    }

    /// Notes one more stage-2/SMMU mapping of this page.
    pub fn inc_map(&mut self, pfn: u64) -> Result<(), OwnershipError> {
        self.get(pfn)?;
        self.update(pfn, |p| p.map_count += 1);
        Ok(())
    }

    /// Notes one fewer mapping.
    pub fn dec_map(&mut self, pfn: u64) -> Result<(), OwnershipError> {
        let p = self.get(pfn)?;
        if p.map_count == 0 {
            return Err(OwnershipError::StillMapped);
        }
        self.update(pfn, |p| p.map_count -= 1);
        Ok(())
    }

    /// All pages owned by a given principal.
    pub fn owned_by(&self, owner: Owner) -> Vec<u64> {
        self.pages
            .iter()
            .enumerate()
            .filter(|(_, p)| p.owner == owner)
            .map(|(i, _)| i as u64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_layout_ownership() {
        let a = S2PageArray::new();
        assert_eq!(a.owner(0).unwrap(), Owner::KCore);
        assert_eq!(a.owner(layout::S2_POOL_PFN.0).unwrap(), Owner::KCore);
        assert_eq!(a.owner(layout::KSERV_PFN.0).unwrap(), Owner::KServ);
        assert_eq!(a.owner(layout::VM_POOL_PFN.0).unwrap(), Owner::KServ);
    }

    #[test]
    fn transfer_checks_expected_owner() {
        let mut a = S2PageArray::new();
        let pfn = layout::VM_POOL_PFN.0;
        assert_eq!(
            a.transfer(pfn, Owner::Vm(1), Owner::Vm(2)),
            Err(OwnershipError::WrongOwner {
                actual: Owner::KServ
            })
        );
        a.transfer(pfn, Owner::KServ, Owner::Vm(1)).unwrap();
        assert_eq!(a.owner(pfn).unwrap(), Owner::Vm(1));
    }

    #[test]
    fn kcore_pages_are_never_transferable() {
        let mut a = S2PageArray::new();
        assert_eq!(
            a.transfer(0, Owner::KCore, Owner::KServ),
            Err(OwnershipError::KCorePrivate)
        );
    }

    #[test]
    fn mapped_pages_cannot_change_owner() {
        let mut a = S2PageArray::new();
        let pfn = layout::VM_POOL_PFN.0;
        a.inc_map(pfn).unwrap();
        assert_eq!(
            a.transfer(pfn, Owner::KServ, Owner::Vm(1)),
            Err(OwnershipError::StillMapped)
        );
        a.dec_map(pfn).unwrap();
        a.transfer(pfn, Owner::KServ, Owner::Vm(1)).unwrap();
    }

    #[test]
    fn bad_pfn_rejected() {
        let a = S2PageArray::new();
        assert_eq!(a.owner(MAX_PFN), Err(OwnershipError::BadPfn));
    }

    fn recomputed(a: &S2PageArray) -> u128 {
        (0..MAX_PFN).fold(0u128, |h, pfn| {
            h.wrapping_add(page_hash(pfn, &a.get(pfn).unwrap()))
        })
    }

    #[test]
    fn clones_share_pages_until_one_side_writes() {
        let a = S2PageArray::new();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.pages, &b.pages));
        // A failed transition writes nothing and keeps the sharing.
        assert!(b.transfer(0, Owner::KCore, Owner::KServ).is_err());
        assert!(Arc::ptr_eq(&a.pages, &b.pages));
        b.inc_map(layout::VM_POOL_PFN.0).unwrap();
        assert!(!Arc::ptr_eq(&a.pages, &b.pages));
        assert_eq!(a.get(layout::VM_POOL_PFN.0).unwrap().map_count, 0);
        assert_ne!(a.digest(), b.digest());
        b.dec_map(layout::VM_POOL_PFN.0).unwrap();
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn running_hash_matches_recomputation_through_diverging_clones() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5_2a6e);
        let owners = [Owner::KCore, Owner::KServ, Owner::Vm(0), Owner::Vm(1)];
        // Edits cluster on a few pages around the KCore/KServ boundary
        // and the VM pool, so transfers both succeed and fail.
        let pfns: Vec<u64> = (0..4)
            .chain(layout::KSERV_PFN.0..layout::KSERV_PFN.0 + 2)
            .chain(layout::VM_POOL_PFN.0..layout::VM_POOL_PFN.0 + 4)
            .collect();
        let mut arrays = vec![S2PageArray::new()];
        for step in 0..600 {
            let i = rng.gen_range(0..arrays.len());
            if step % 50 == 0 {
                let fork = arrays[i].clone();
                arrays.push(fork);
            }
            let a = &mut arrays[i];
            let pfn = pfns[rng.gen_range(0..pfns.len())];
            let _ = match rng.gen_range(0..4u32) {
                0 => {
                    let expect = owners[rng.gen_range(0..owners.len())];
                    let to = owners[rng.gen_range(0..owners.len())];
                    a.transfer(pfn, expect, to)
                }
                1 => a.set_shared(pfn, rng.gen_bool(0.5)),
                2 => a.inc_map(pfn),
                _ => a.dec_map(pfn),
            };
            assert_eq!(a.digest(), recomputed(a), "step {step}, array {i}");
            // An edit must never leak into the arrays it was cloned
            // from or into.
            if step % 50 == 49 {
                for (j, a) in arrays.iter().enumerate() {
                    assert_eq!(a.digest(), recomputed(a), "step {step}, array {j}");
                }
            }
        }
    }
}
