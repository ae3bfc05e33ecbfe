//! The machine event log.
//!
//! Every lock operation, page-table write, barrier, TLB invalidation,
//! ownership change, and data access performed by the simulation is
//! recorded here; the [`wdrf`](crate::wdrf) validators and the
//! [`security`](crate::security) checkers replay the log.

use std::fmt;

use vrm_memmodel::ir::{Addr, Val};

/// Who performed an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Principal {
    /// The trusted core at EL2.
    KCore,
    /// The untrusted host Linux.
    KServ,
    /// A guest VM.
    Vm(u32),
    /// A DMA-capable device behind the SMMU.
    Device(u32),
}

impl fmt::Display for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Principal::KCore => write!(f, "KCore"),
            Principal::KServ => write!(f, "KServ"),
            Principal::Vm(id) => write!(f, "VM{id}"),
            Principal::Device(id) => write!(f, "Dev{id}"),
        }
    }
}

/// The locks KCore uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockId {
    /// Protects `next_vmid` (VM registration).
    VmId,
    /// Protects one VM's metadata and stage-2 table (`acquire_lock_vm`).
    Vm(u32),
    /// Protects KServ's stage-2 table.
    KServS2,
    /// Protects one SMMU device's page table.
    Smmu(u32),
    /// Protects the s2page ownership array.
    S2Page,
    /// Protects KCore's EL2 page table.
    El2,
}

/// Which page-table tree a write targeted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableKind {
    /// KCore's own EL2 table (condition 3 applies).
    El2,
    /// A stage-2 table (conditions 4 and 5 apply). The id is the owning
    /// principal's stage-2: `None` = KServ, `Some(vmid)` = that VM.
    Stage2(Option<u32>),
    /// An SMMU table for a device.
    Smmu(u32),
}

/// One logged machine event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MEvent {
    /// A hypercall (or modelled operation) began on a CPU.
    OpStart {
        /// Executing CPU.
        cpu: usize,
        /// Operation name.
        name: &'static str,
    },
    /// The operation completed.
    OpEnd {
        /// Executing CPU.
        cpu: usize,
        /// Operation name.
        name: &'static str,
        /// Whether it succeeded.
        ok: bool,
    },
    /// A lock was acquired.
    LockAcquire {
        /// Executing CPU.
        cpu: usize,
        /// Which lock.
        lock: LockId,
        /// The ticket drawn (fairness evidence).
        ticket: u64,
        /// Spin iterations before the lock was granted.
        spins: u64,
    },
    /// A lock was released.
    LockRelease {
        /// Executing CPU.
        cpu: usize,
        /// Which lock.
        lock: LockId,
    },
    /// A full barrier (`dmb`/`dsb`).
    Barrier {
        /// Executing CPU.
        cpu: usize,
    },
    /// A broadcast TLB invalidation.
    Tlbi {
        /// Executing CPU.
        cpu: usize,
        /// Table whose translations were invalidated.
        table: TableKind,
        /// Restricting virtual page, if any.
        vpn: Option<Addr>,
    },
    /// A page-table cell was written.
    PtWrite {
        /// Executing CPU.
        cpu: usize,
        /// Which tree.
        table: TableKind,
        /// Cell address.
        cell: Addr,
        /// Previous raw entry.
        old: Val,
        /// New raw entry.
        new: Val,
    },
    /// A data read.
    MemRead {
        /// Executing CPU.
        cpu: usize,
        /// Acting principal.
        who: Principal,
        /// Physical address.
        pa: Addr,
        /// `true` if the read is masked by a data oracle (§5.3: KCore
        /// reading VM/KServ memory for image authentication).
        oracle_masked: bool,
    },
    /// A data write.
    MemWrite {
        /// Executing CPU.
        cpu: usize,
        /// Acting principal.
        who: Principal,
        /// Physical address.
        pa: Addr,
    },
    /// Page ownership changed in the s2page array.
    OwnershipChange {
        /// Executing CPU.
        cpu: usize,
        /// The page.
        pfn: u64,
        /// Previous owner.
        from: crate::s2page::Owner,
        /// New owner.
        to: crate::s2page::Owner,
    },
}

impl MEvent {
    /// The CPU that produced the event.
    pub fn cpu(&self) -> usize {
        match self {
            MEvent::OpStart { cpu, .. }
            | MEvent::OpEnd { cpu, .. }
            | MEvent::LockAcquire { cpu, .. }
            | MEvent::LockRelease { cpu, .. }
            | MEvent::Barrier { cpu }
            | MEvent::Tlbi { cpu, .. }
            | MEvent::PtWrite { cpu, .. }
            | MEvent::MemRead { cpu, .. }
            | MEvent::MemWrite { cpu, .. }
            | MEvent::OwnershipChange { cpu, .. } => *cpu,
        }
    }

    /// Renames the event's CPU `c` to `perm[c]`.
    pub(crate) fn relabel(&mut self, perm: &[usize]) {
        match self {
            MEvent::OpStart { cpu, .. }
            | MEvent::OpEnd { cpu, .. }
            | MEvent::LockAcquire { cpu, .. }
            | MEvent::LockRelease { cpu, .. }
            | MEvent::Barrier { cpu }
            | MEvent::Tlbi { cpu, .. }
            | MEvent::PtWrite { cpu, .. }
            | MEvent::MemRead { cpu, .. }
            | MEvent::MemWrite { cpu, .. }
            | MEvent::OwnershipChange { cpu, .. } => *cpu = perm[*cpu],
        }
    }
}

/// A machine execution log.
pub type Log = Vec<MEvent>;
