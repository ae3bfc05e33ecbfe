//! KCore: the trusted hypervisor core and its hypercall interface.
//!
//! KCore owns physical memory management: the `s2page` ownership array,
//! its own EL2 page table, one stage-2 table per principal (KServ and each
//! VM), and the per-device SMMU tables. The hypercalls modelled here are
//! the ones §5 of the paper reasons about:
//!
//! * VM lifecycle — `register_vm` (the `gen_vmid` of Figure 1, under the
//!   VmId ticket lock), `register_vcpu`, `set_boot_info`,
//!   `remap_vm_image` (the `remap_pfn` path extending KCore's EL2 table,
//!   write-once), `verify_vm_image` (hashing the image through the EL2
//!   alias with oracle-masked reads, then donating the pages to the VM),
//!   and `reclaim_vm_pages` (teardown with scrubbing);
//! * vCPU context switching — `run_vcpu` / `stop_vcpu` (Figure 2's
//!   `restore_vm` / `save_vm`);
//! * stage-2 fault handling — `handle_s2_fault` (KServ donates a page,
//!   ownership transferred and scrubbed, `set_s2pt`) and `kserv_fault`
//!   (KServ's identity-mapped stage-2, populated only for pages KServ
//!   owns or was granted);
//! * memory sharing — `grant_page` / `revoke_page` (paravirtual I/O);
//! * DMA protection — `assign_smmu_dev`, `smmu_map`, `smmu_unmap`.
//!
//! Every method asserts the lock discipline (its *primary* lock must be
//! held; see [`machine`](crate::machine) for contended acquisition) and
//! logs page-table writes, barriers, TLBIs, data accesses, and ownership
//! changes for the [`wdrf`](crate::wdrf) validators.

use vrm_memmodel::ir::{Addr, Val};
use vrm_mmu::mem::PhysMem;
use vrm_mmu::pool::PagePool;
use vrm_mmu::pte::Perms;
use vrm_mmu::table::{Geometry, MapError};

use crate::el2pt::El2Pt;
use crate::events::{LockId, Log, MEvent, Principal, TableKind};
use crate::layout::{
    page_addr, pfn_of, EL2_POOL_PFN, EL2_REMAP_BASE, MAX_DEVICES, MAX_VCPUS, MAX_VMS, PAGE_WORDS,
    S2_POOL_PFN, SMMU_POOL_PFN,
};
use crate::npt::{S2Behaviour, S2Error, Stage2};
use crate::s2page::{Owner, OwnershipError, S2PageArray};
use crate::smmu::SmmuDevice;
use crate::ticketlock::TicketLock;
use crate::vcpu::{Vcpu, VcpuCtx, VcpuError, VcpuState};
use crate::vgic::{VGic, VgicError};

/// Configuration (including the mutant switches used to demonstrate the
/// validators catch condition violations).
#[derive(Debug, Clone, Copy, Hash)]
pub struct KCoreConfig {
    /// Stage-2 table levels: 3 or 4 (§5.6 verifies both).
    pub s2_levels: u32,
    /// Validate Transactional-Page-Table on every stage-2/SMMU update.
    pub check_transactional: bool,
    /// Mutant: omit the TLBI after unmaps (breaks condition 5).
    pub skip_tlbi_on_unmap: bool,
    /// Mutant: omit the barrier before the TLBI (breaks condition 5).
    pub skip_barrier_before_tlbi: bool,
    /// Mutant: skip ownership checks before mapping (breaks security).
    pub skip_ownership_check: bool,
    /// Mutant: skip scrubbing when reclaiming VM pages (breaks
    /// confidentiality).
    pub skip_scrub_on_reclaim: bool,
    /// Mutant: execute locked hypercalls without acquiring their primary
    /// ticket lock (breaks conditions 1/2 — page-table writes race).
    pub skip_lock_acquire: bool,
    /// Mutant: emit the post-unmap barrier *after* the TLBI instead of
    /// before it, reordering the barrier-protected page-table write
    /// sequence (breaks condition 5).
    pub barrier_after_tlbi: bool,
    /// Mutant: reclaim tears down the VM's stage-2 but never returns
    /// the pages to KServ — ownership leaks (breaks refinement: the
    /// abstract `reclaim` step moves the frame back to the host).
    pub reclaim_leaks_ownership: bool,
    /// Mutant: revoke unmaps KServ's window but leaves the page marked
    /// shared (breaks refinement: the abstract `revoke` step closes the
    /// sharing window).
    pub revoke_keeps_share: bool,
    /// Mutant: revoke clears the shared bit without unmapping KServ's
    /// stage-2 — a stale walk can still reach the page (breaks
    /// refinement *and* abstract noninterference).
    pub revoke_skips_unmap: bool,
}

impl Default for KCoreConfig {
    fn default() -> Self {
        KCoreConfig {
            s2_levels: 3,
            check_transactional: true,
            skip_tlbi_on_unmap: false,
            skip_barrier_before_tlbi: false,
            skip_ownership_check: false,
            skip_scrub_on_reclaim: false,
            skip_lock_acquire: false,
            barrier_after_tlbi: false,
            reclaim_leaks_ownership: false,
            revoke_keeps_share: false,
            revoke_skips_unmap: false,
        }
    }
}

/// Hypercall failures.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HypercallError {
    /// All VM identifiers are in use (`panic()` branch of Figure 1).
    NoVmidsLeft,
    /// Unknown VM id.
    BadVm,
    /// Unknown vCPU id or too many vCPUs.
    BadVcpu,
    /// Operation not valid in the VM's current lifecycle state.
    BadState,
    /// Unknown SMMU device.
    BadDevice,
    /// An ownership check failed.
    Ownership(OwnershipError),
    /// A stage-2/SMMU table update failed.
    S2(S2Error),
    /// An EL2 table update failed.
    El2(MapError),
    /// A vCPU protocol violation.
    Vcpu(VcpuError),
    /// A virtual interrupt-controller error.
    Vgic(VgicError),
    /// VM image authentication failed.
    HashMismatch {
        /// Hash registered by set_boot_info.
        expected: u64,
        /// Hash computed over the remapped image.
        computed: u64,
    },
    /// The principal may not access that memory.
    AccessDenied,
    /// The mapping exists but its permissions forbid the access.
    Permission,
    /// Address not mapped.
    Unmapped,
}

impl std::fmt::Display for HypercallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HypercallError::NoVmidsLeft => write!(f, "all VM identifiers in use"),
            HypercallError::BadVm => write!(f, "unknown VM"),
            HypercallError::BadVcpu => write!(f, "unknown vCPU or vCPU limit reached"),
            HypercallError::BadState => write!(f, "operation invalid in this VM state"),
            HypercallError::BadDevice => write!(f, "unknown SMMU device"),
            HypercallError::Ownership(e) => write!(f, "ownership check failed: {e}"),
            HypercallError::S2(e) => write!(f, "stage-2 update failed: {e}"),
            HypercallError::El2(e) => write!(f, "EL2 table update failed: {e}"),
            HypercallError::Vcpu(e) => write!(f, "vCPU protocol violation: {e}"),
            HypercallError::Vgic(e) => write!(f, "virtual interrupt error: {e}"),
            HypercallError::HashMismatch { expected, computed } => write!(
                f,
                "image authentication failed: expected {expected:#x}, got {computed:#x}"
            ),
            HypercallError::AccessDenied => write!(f, "access denied"),
            HypercallError::Permission => write!(f, "mapping permissions forbid the access"),
            HypercallError::Unmapped => write!(f, "address not mapped"),
        }
    }
}

impl std::error::Error for HypercallError {}

impl From<OwnershipError> for HypercallError {
    fn from(e: OwnershipError) -> Self {
        HypercallError::Ownership(e)
    }
}

impl From<S2Error> for HypercallError {
    fn from(e: S2Error) -> Self {
        HypercallError::S2(e)
    }
}

impl From<VcpuError> for HypercallError {
    fn from(e: VcpuError) -> Self {
        HypercallError::Vcpu(e)
    }
}

impl From<VgicError> for HypercallError {
    fn from(e: VgicError) -> Self {
        HypercallError::Vgic(e)
    }
}

/// VM lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmState {
    /// vmid allocated, nothing configured.
    Registered,
    /// Boot image pages and expected hash registered.
    BootInfoSet,
    /// Image authenticated; pages donated; runnable.
    Verified,
    /// Torn down; pages reclaimed.
    Destroyed,
}

/// Per-VM metadata.
#[derive(Debug, Clone, Hash)]
pub struct VmMeta {
    /// The VM identifier.
    pub vmid: u32,
    /// Lifecycle state.
    pub state: VmState,
    /// The VM's stage-2 table.
    pub s2: Stage2,
    /// vCPUs.
    pub vcpus: Vec<Vcpu>,
    /// Image page frames staged by KServ.
    pub image_pfns: Vec<u64>,
    /// Expected image hash.
    pub expected_hash: u64,
    /// EL2 alias of the image (set by `remap_vm_image`).
    pub remap_va: Option<Addr>,
    /// The VM's virtual interrupt controller.
    pub vgic: VGic,
    /// Console output emulated by QEMU in KServ's user space (Table 2's
    /// "I/O User" path).
    pub uart: Vec<u8>,
    /// Per-VM migration/snapshot encryption key (modelled keystream seed).
    pub migration_key: u64,
    /// Integrity tags of exported pages, by guest physical page base.
    pub exported: std::collections::BTreeMap<Addr, u64>,
}

/// KCore's locks.
#[derive(Debug, Clone)]
pub struct Locks {
    vmid: TicketLock,
    vm: Vec<TicketLock>,
    kserv_s2: TicketLock,
    smmu: Vec<TicketLock>,
    s2page: TicketLock,
    el2: TicketLock,
}

impl Locks {
    fn new() -> Self {
        Locks {
            vmid: TicketLock::new(),
            vm: (0..MAX_VMS).map(|_| TicketLock::new()).collect(),
            kserv_s2: TicketLock::new(),
            smmu: (0..MAX_DEVICES).map(|_| TicketLock::new()).collect(),
            s2page: TicketLock::new(),
            el2: TicketLock::new(),
        }
    }

    /// Mutable access to a lock by id.
    pub fn get_mut(&mut self, id: LockId) -> &mut TicketLock {
        match id {
            LockId::VmId => &mut self.vmid,
            LockId::Vm(v) => &mut self.vm[v as usize],
            LockId::KServS2 => &mut self.kserv_s2,
            LockId::Smmu(d) => &mut self.smmu[d as usize],
            LockId::S2Page => &mut self.s2page,
            LockId::El2 => &mut self.el2,
        }
    }

    /// Read-only holder query.
    pub fn holder(&self, id: LockId) -> Option<usize> {
        match id {
            LockId::VmId => self.vmid.holder(),
            LockId::Vm(v) => self.vm[v as usize].holder(),
            LockId::KServS2 => self.kserv_s2.holder(),
            LockId::Smmu(d) => self.smmu[d as usize].holder(),
            LockId::S2Page => self.s2page.holder(),
            LockId::El2 => self.el2.holder(),
        }
    }

    /// Read-only access to a lock by id.
    pub fn get(&self, id: LockId) -> &TicketLock {
        match id {
            LockId::VmId => &self.vmid,
            LockId::Vm(v) => &self.vm[v as usize],
            LockId::KServS2 => &self.kserv_s2,
            LockId::Smmu(d) => &self.smmu[d as usize],
            LockId::S2Page => &self.s2page,
            LockId::El2 => &self.el2,
        }
    }

    fn all(&self) -> impl Iterator<Item = &TicketLock> {
        [&self.vmid, &self.kserv_s2, &self.s2page, &self.el2]
            .into_iter()
            .chain(self.vm.iter())
            .chain(self.smmu.iter())
    }

    /// Renames every holding CPU `c` to `perm[c]`.
    fn relabel(&mut self, perm: &[usize]) {
        [
            &mut self.vmid,
            &mut self.kserv_s2,
            &mut self.s2page,
            &mut self.el2,
        ]
        .into_iter()
        .chain(self.vm.iter_mut())
        .chain(self.smmu.iter_mut())
        .for_each(|l| l.relabel(perm));
    }

    /// Writes a canonical encoding of every lock's *semantic* state —
    /// queue depth and holder, not the absolute ticket counters or the
    /// spin statistics, which are schedule history rather than state.
    pub fn encode(&self, w: &mut impl std::fmt::Write) {
        for l in self.all() {
            let _ = write!(w, "{}:{:?},", l.queue_depth(), l.holder());
        }
    }
}

/// Hashes exactly what [`Locks::encode`] writes: each lock's queue depth
/// and holder, in the same order.
impl std::hash::Hash for Locks {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        for l in self.all() {
            (l.queue_depth(), l.holder()).hash(h);
        }
    }
}

/// The trusted core.
#[derive(Debug, Clone)]
pub struct KCore {
    /// Simulated physical memory.
    pub mem: PhysMem,
    /// Page ownership.
    pub s2pages: S2PageArray,
    /// KCore's EL2 table.
    pub el2: El2Pt,
    /// Stage-2 trees: KServ's identity map.
    pub kserv_s2: Stage2,
    /// Registered VMs (index = vmid).
    pub vms: Vec<VmMeta>,
    /// SMMU devices.
    pub devices: Vec<SmmuDevice>,
    /// Locks.
    pub locks: Locks,
    /// Event log.
    pub log: Log,
    /// Configuration.
    pub cfg: KCoreConfig,
    /// Invariant flags (§5.3): stage-2 translation is enabled for
    /// KServ/VMs and the SMMU is enabled; must never be cleared.
    pub stage2_enabled: bool,
    /// SMMU enable flag.
    pub smmu_enabled: bool,
    el2_pool: PagePool,
    s2_pool: PagePool,
    smmu_pool: PagePool,
    next_vmid: u32,
    remap_next: Addr,
}

impl KCore {
    /// Boots KCore: scrubs the pools, builds the EL2 linear map, creates
    /// KServ's stage-2 tree and the SMMU device tables.
    ///
    /// # Examples
    ///
    /// ```
    /// use vrm_sekvm::{KCore, KCoreConfig};
    ///
    /// let mut kcore = KCore::boot(KCoreConfig::default());
    /// let vmid = kcore.register_vm(0).unwrap();
    /// assert_eq!(kcore.register_vm(1).unwrap(), vmid + 1); // unique ids
    /// ```
    pub fn boot(cfg: KCoreConfig) -> Self {
        assert!(cfg.s2_levels == 3 || cfg.s2_levels == 4);
        let mut mem = PhysMem::new();
        let mut el2_pool = PagePool::new(
            &mut mem,
            page_addr(EL2_POOL_PFN.0),
            PAGE_WORDS,
            EL2_POOL_PFN.1 - EL2_POOL_PFN.0,
        );
        let mut s2_pool = PagePool::new(
            &mut mem,
            page_addr(S2_POOL_PFN.0),
            PAGE_WORDS,
            S2_POOL_PFN.1 - S2_POOL_PFN.0,
        );
        let mut smmu_pool = PagePool::new(
            &mut mem,
            page_addr(SMMU_POOL_PFN.0),
            PAGE_WORDS,
            SMMU_POOL_PFN.1 - SMMU_POOL_PFN.0,
        );
        let el2 = El2Pt::boot(&mut mem, &mut el2_pool);
        let kserv_s2 = Stage2::new(
            &mut mem,
            &mut s2_pool,
            TableKind::Stage2(None),
            Self::geometry(cfg.s2_levels),
        )
        .expect("KServ stage-2 root");
        let devices = (0..MAX_DEVICES)
            .map(|d| SmmuDevice::new(&mut mem, &mut smmu_pool, d).expect("SMMU table"))
            .collect();
        KCore {
            mem,
            s2pages: S2PageArray::new(),
            el2,
            kserv_s2,
            vms: Vec::new(),
            devices,
            locks: Locks::new(),
            log: Log::new(),
            cfg,
            stage2_enabled: true,
            smmu_enabled: true,
            el2_pool,
            s2_pool,
            smmu_pool,
            next_vmid: 0,
            remap_next: EL2_REMAP_BASE,
        }
    }

    fn geometry(levels: u32) -> Geometry {
        if levels == 3 {
            Geometry::arm_3level()
        } else {
            Geometry::arm_4level()
        }
    }

    /// Writes a canonical encoding of everything that can affect future
    /// behaviour — memory, ownership, tables, VM/vCPU/device state, lock
    /// queues, allocator pools — but *not* the event log (which records
    /// the path taken, not the state reached) or lock statistics.
    ///
    /// This is the reference for [`state_digest`](Self::state_digest),
    /// which the machine's exhaustive-schedule exploration deduplicates
    /// on: two states get equal digests exactly when they encode to
    /// equal text.
    pub fn encode_state(&self, w: &mut impl std::fmt::Write) {
        let _ = write!(
            w,
            "{:?};{:?};{:?};{:?};{:?};{:?};",
            self.mem, self.s2pages, self.el2, self.kserv_s2, self.vms, self.devices
        );
        self.locks.encode(w);
        let _ = write!(
            w,
            ";{:?};{}{};{};{};{:?};{:?};{:?}",
            self.cfg,
            self.stage2_enabled,
            self.smmu_enabled,
            self.next_vmid,
            self.remap_next,
            self.el2_pool,
            self.s2_pool,
            self.smmu_pool
        );
    }

    /// The state's 128-bit identity, over exactly the fields
    /// [`encode_state`](Self::encode_state) covers. Memory and the
    /// s2page array contribute the running hashes they keep up to date
    /// on every write, so the cost does not grow with their size; the
    /// rest is hashed structurally through `Hash` with fixed keys
    /// ([`vrm_explore::digest128`]), locks as queue depth and holder
    /// only.
    pub fn state_digest(&self) -> u128 {
        vrm_explore::digest128(&(
            (self.mem.digest(), self.s2pages.digest()),
            (&self.el2, &self.kserv_s2, &self.vms, &self.devices),
            &self.locks,
            (&self.cfg, self.stage2_enabled, self.smmu_enabled),
            (self.next_vmid, self.remap_next),
            (&self.el2_pool, &self.s2_pool, &self.smmu_pool),
        ))
    }

    /// Renames every CPU identity the state holds — lock holders, the
    /// CPU an active vCPU runs on, and each logged event's CPU — from
    /// `c` to `perm[c]`. Nothing else in a `KCore` names a CPU, so this
    /// is the state that running the same steps with the CPUs relabeled
    /// by `perm` reaches.
    pub(crate) fn relabel_cpus(&mut self, perm: &[usize]) {
        self.locks.relabel(perm);
        for v in self.vms.iter_mut().flat_map(|vm| &mut vm.vcpus) {
            if let VcpuState::Active { cpu } = &mut v.state {
                *cpu = perm[*cpu];
            }
        }
        for e in &mut self.log {
            e.relabel(perm);
        }
    }

    fn behaviour(&self) -> S2Behaviour {
        S2Behaviour {
            skip_tlbi: self.cfg.skip_tlbi_on_unmap,
            skip_barrier: self.cfg.skip_barrier_before_tlbi,
            barrier_after_tlbi: self.cfg.barrier_after_tlbi,
            check_transactional: self.cfg.check_transactional,
        }
    }

    // --- locking -----------------------------------------------------

    /// Acquires a lock immediately (uncontended contexts: direct calls
    /// and nested locks inside serialized bodies).
    pub fn lock(&mut self, cpu: usize, id: LockId) {
        let l = self.locks.get_mut(id);
        let t = l.draw();
        let entered = l.try_enter(cpu, t);
        assert!(entered, "lock {id:?} unexpectedly contended");
        self.log.push(MEvent::LockAcquire {
            cpu,
            lock: id,
            ticket: t.0,
            spins: 0,
        });
    }

    /// Releases a lock.
    pub fn unlock(&mut self, cpu: usize, id: LockId) {
        self.locks.get_mut(id).release(cpu);
        self.log.push(MEvent::LockRelease { cpu, lock: id });
    }

    /// Asserts the lock discipline: `cpu` holds `id`.
    pub fn assert_holds(&self, cpu: usize, id: LockId) {
        // The skip-lock-acquire mutant models a developer deleting the
        // locking wholesale — including this internal assertion — so the
        // *external* validator (`wdrf::validate_log`) must catch it.
        if self.cfg.skip_lock_acquire {
            return;
        }
        assert_eq!(
            self.locks.holder(id),
            Some(cpu),
            "lock discipline violated: CPU {cpu} must hold {id:?}"
        );
    }

    // --- VM lifecycle --------------------------------------------------

    /// `gen_vmid` / register a new VM. Primary lock: [`LockId::VmId`].
    pub fn register_vm(&mut self, cpu: usize) -> Result<u32, HypercallError> {
        self.lock(cpu, LockId::VmId);
        let r = self.register_vm_locked(cpu);
        self.unlock(cpu, LockId::VmId);
        r
    }

    /// Body of [`KCore::register_vm`] (VmId lock must be held).
    pub fn register_vm_locked(&mut self, cpu: usize) -> Result<u32, HypercallError> {
        self.assert_holds(cpu, LockId::VmId);
        if self.next_vmid >= MAX_VMS {
            return Err(HypercallError::NoVmidsLeft);
        }
        let vmid = self.next_vmid;
        self.next_vmid += 1;
        let s2 = Stage2::new(
            &mut self.mem,
            &mut self.s2_pool,
            TableKind::Stage2(Some(vmid)),
            Self::geometry(self.cfg.s2_levels),
        )
        .expect("stage-2 pool exhausted");
        self.vms.push(VmMeta {
            vmid,
            state: VmState::Registered,
            s2,
            vcpus: Vec::new(),
            image_pfns: Vec::new(),
            expected_hash: 0,
            remap_va: None,
            vgic: VGic::new(),
            uart: Vec::new(),
            migration_key: 0x9e3779b97f4a7c15u64
                .wrapping_mul(vmid as u64 + 1)
                .rotate_left(17),
            exported: std::collections::BTreeMap::new(),
        });
        Ok(vmid)
    }

    /// Registers a vCPU. Primary lock: [`LockId::Vm`].
    pub fn register_vcpu(&mut self, cpu: usize, vmid: u32) -> Result<u32, HypercallError> {
        self.lock(cpu, LockId::Vm(vmid));
        let r = self.register_vcpu_locked(cpu, vmid);
        self.unlock(cpu, LockId::Vm(vmid));
        r
    }

    /// Body of [`KCore::register_vcpu`].
    pub fn register_vcpu_locked(&mut self, cpu: usize, vmid: u32) -> Result<u32, HypercallError> {
        self.assert_holds(cpu, LockId::Vm(vmid));
        let vm = self.vm_mut(vmid)?;
        if vm.vcpus.len() as u32 >= MAX_VCPUS {
            return Err(HypercallError::BadVcpu);
        }
        vm.vcpus.push(Vcpu::default());
        vm.vgic.add_vcpu();
        Ok(vm.vcpus.len() as u32 - 1)
    }

    /// Registers the boot image (pfns staged by KServ) and its hash.
    /// Primary lock: [`LockId::Vm`].
    pub fn set_boot_info(
        &mut self,
        cpu: usize,
        vmid: u32,
        image_pfns: Vec<u64>,
        expected_hash: u64,
    ) -> Result<(), HypercallError> {
        self.lock(cpu, LockId::Vm(vmid));
        let r = self.set_boot_info_locked(cpu, vmid, image_pfns, expected_hash);
        self.unlock(cpu, LockId::Vm(vmid));
        r
    }

    /// Body of [`KCore::set_boot_info`].
    pub fn set_boot_info_locked(
        &mut self,
        cpu: usize,
        vmid: u32,
        image_pfns: Vec<u64>,
        expected_hash: u64,
    ) -> Result<(), HypercallError> {
        self.assert_holds(cpu, LockId::Vm(vmid));
        for &pfn in &image_pfns {
            if self.s2pages.owner(pfn)? != Owner::KServ {
                return Err(HypercallError::AccessDenied);
            }
        }
        let vm = self.vm_mut(vmid)?;
        if vm.state != VmState::Registered {
            return Err(HypercallError::BadState);
        }
        vm.image_pfns = image_pfns;
        vm.expected_hash = expected_hash;
        vm.state = VmState::BootInfoSet;
        Ok(())
    }

    /// `remap_pfn`: aliases the (possibly discontiguous) image pages into
    /// a contiguous EL2 region for hashing. Primary lock: [`LockId::Vm`].
    pub fn remap_vm_image(&mut self, cpu: usize, vmid: u32) -> Result<Addr, HypercallError> {
        self.lock(cpu, LockId::Vm(vmid));
        let r = self.remap_vm_image_locked(cpu, vmid);
        self.unlock(cpu, LockId::Vm(vmid));
        r
    }

    /// Body of [`KCore::remap_vm_image`].
    pub fn remap_vm_image_locked(&mut self, cpu: usize, vmid: u32) -> Result<Addr, HypercallError> {
        self.assert_holds(cpu, LockId::Vm(vmid));
        let (state, pfns) = {
            let vm = self.vm(vmid)?;
            (vm.state, vm.image_pfns.clone())
        };
        if state != VmState::BootInfoSet {
            return Err(HypercallError::BadState);
        }
        let base = self.remap_next;
        self.lock(cpu, LockId::El2);
        for (i, &pfn) in pfns.iter().enumerate() {
            let va = base + (i as u64) * PAGE_WORDS;
            let r = self.el2.set_el2_pt(
                &mut self.mem,
                &mut self.el2_pool,
                &mut self.log,
                cpu,
                va,
                page_addr(pfn),
            );
            if let Err(e) = r {
                self.unlock(cpu, LockId::El2);
                return Err(HypercallError::El2(e));
            }
        }
        self.unlock(cpu, LockId::El2);
        self.remap_next = base + (pfns.len() as u64) * PAGE_WORDS;
        self.vm_mut(vmid)?.remap_va = Some(base);
        Ok(base)
    }

    /// Authenticates the image and, on success, donates the pages to the
    /// VM and maps them at guest physical 0. Primary lock: [`LockId::Vm`].
    pub fn verify_vm_image(&mut self, cpu: usize, vmid: u32) -> Result<(), HypercallError> {
        self.lock(cpu, LockId::Vm(vmid));
        let r = self.verify_vm_image_locked(cpu, vmid);
        self.unlock(cpu, LockId::Vm(vmid));
        r
    }

    /// Body of [`KCore::verify_vm_image`].
    pub fn verify_vm_image_locked(&mut self, cpu: usize, vmid: u32) -> Result<(), HypercallError> {
        self.assert_holds(cpu, LockId::Vm(vmid));
        let (state, pfns, expected, remap_va) = {
            let vm = self.vm(vmid)?;
            (
                vm.state,
                vm.image_pfns.clone(),
                vm.expected_hash,
                vm.remap_va,
            )
        };
        if state != VmState::BootInfoSet {
            return Err(HypercallError::BadState);
        }
        let Some(base) = remap_va else {
            return Err(HypercallError::BadState);
        };
        // Hash through the contiguous EL2 alias. These reads target
        // KServ-owned memory and are oracle-masked in the proofs (§5.3).
        let mut computed = 0xcbf29ce484222325u64; // FNV offset basis
        for i in 0..(pfns.len() as u64) * PAGE_WORDS {
            let va = base + i;
            let pa = self
                .el2
                .translate(&self.mem, va)
                .ok_or(HypercallError::Unmapped)?;
            let word = self.mem.read(pa);
            self.log.push(MEvent::MemRead {
                cpu,
                who: Principal::KCore,
                pa,
                oracle_masked: true,
            });
            computed = (computed ^ word).wrapping_mul(0x100000001b3);
        }
        if computed != expected {
            return Err(HypercallError::HashMismatch { expected, computed });
        }
        // Donate and map the image pages.
        self.lock(cpu, LockId::S2Page);
        for (i, &pfn) in pfns.iter().enumerate() {
            let r = self.s2pages.transfer(pfn, Owner::KServ, Owner::Vm(vmid));
            if let Err(e) = r {
                self.unlock(cpu, LockId::S2Page);
                return Err(e.into());
            }
            self.log.push(MEvent::OwnershipChange {
                cpu,
                pfn,
                from: Owner::KServ,
                to: Owner::Vm(vmid),
            });
            let gpa = (i as u64) * PAGE_WORDS;
            let behaviour = self.behaviour();
            let vm = self.vms.get(vmid as usize).expect("checked");
            let r = vm.s2.set_s2pt(
                &mut self.mem,
                &mut self.s2_pool,
                &mut self.log,
                cpu,
                behaviour,
                gpa,
                page_addr(pfn),
                Perms::RWX,
            );
            if let Err(e) = r {
                self.unlock(cpu, LockId::S2Page);
                return Err(e.into());
            }
            self.s2pages.inc_map(pfn)?;
        }
        self.unlock(cpu, LockId::S2Page);
        self.vm_mut(vmid)?.state = VmState::Verified;
        Ok(())
    }

    /// Tears a VM down: unmaps and scrubs every page it owns, returning
    /// them to KServ. Primary lock: [`LockId::Vm`].
    pub fn reclaim_vm_pages(&mut self, cpu: usize, vmid: u32) -> Result<(), HypercallError> {
        self.lock(cpu, LockId::Vm(vmid));
        let r = self.reclaim_vm_pages_locked(cpu, vmid);
        self.unlock(cpu, LockId::Vm(vmid));
        r
    }

    /// Body of [`KCore::reclaim_vm_pages`].
    pub fn reclaim_vm_pages_locked(&mut self, cpu: usize, vmid: u32) -> Result<(), HypercallError> {
        self.assert_holds(cpu, LockId::Vm(vmid));
        if self.vm(vmid)?.state == VmState::Destroyed {
            return Err(HypercallError::BadState);
        }
        // Unmap everything from the VM's stage-2.
        let mappings = {
            let vm = self.vm(vmid)?;
            vm.s2.mappings(&self.mem)
        };
        let behaviour = self.behaviour();
        for m in &mappings {
            let vm = self.vms.get(vmid as usize).expect("checked");
            vm.s2.clear_s2pt(
                &mut self.mem,
                &self.s2_pool,
                &mut self.log,
                cpu,
                behaviour,
                m.va,
            )?;
            self.s2pages.dec_map(pfn_of(m.pa))?;
        }
        // Scrub and return every VM-owned page.
        self.lock(cpu, LockId::S2Page);
        let owned = self.s2pages.owned_by(Owner::Vm(vmid));
        for pfn in owned {
            if !self.cfg.skip_scrub_on_reclaim {
                self.mem.zero_range(page_addr(pfn), PAGE_WORDS);
                self.log.push(MEvent::MemWrite {
                    cpu,
                    who: Principal::KCore,
                    pa: page_addr(pfn),
                });
            }
            if !self.cfg.reclaim_leaks_ownership {
                let r = self.s2pages.transfer(pfn, Owner::Vm(vmid), Owner::KServ);
                if let Err(e) = r {
                    self.unlock(cpu, LockId::S2Page);
                    return Err(e.into());
                }
                self.log.push(MEvent::OwnershipChange {
                    cpu,
                    pfn,
                    from: Owner::Vm(vmid),
                    to: Owner::KServ,
                });
            }
        }
        self.unlock(cpu, LockId::S2Page);
        self.vm_mut(vmid)?.state = VmState::Destroyed;
        Ok(())
    }

    // --- vCPU context switching ---------------------------------------

    /// `restore_vm`: claims a vCPU for this physical CPU. Primary lock:
    /// [`LockId::Vm`] (Figure 2's `acquire_lock_vm`).
    pub fn run_vcpu(
        &mut self,
        cpu: usize,
        vmid: u32,
        vcpuid: u32,
    ) -> Result<VcpuCtx, HypercallError> {
        self.lock(cpu, LockId::Vm(vmid));
        let r = self.run_vcpu_locked(cpu, vmid, vcpuid);
        self.unlock(cpu, LockId::Vm(vmid));
        r
    }

    /// Body of [`KCore::run_vcpu`].
    pub fn run_vcpu_locked(
        &mut self,
        cpu: usize,
        vmid: u32,
        vcpuid: u32,
    ) -> Result<VcpuCtx, HypercallError> {
        self.assert_holds(cpu, LockId::Vm(vmid));
        let vm = self.vm_mut(vmid)?;
        if vm.state != VmState::Verified {
            return Err(HypercallError::BadState);
        }
        let vcpu = vm
            .vcpus
            .get_mut(vcpuid as usize)
            .ok_or(HypercallError::BadVcpu)?;
        Ok(vcpu.restore(cpu)?)
    }

    /// `save_vm`: saves the context and releases the vCPU (no lock, per
    /// Figure 2 — the state variable is the synchronization).
    pub fn stop_vcpu(
        &mut self,
        cpu: usize,
        vmid: u32,
        vcpuid: u32,
        ctx: VcpuCtx,
    ) -> Result<(), HypercallError> {
        let vm = self.vm_mut(vmid)?;
        let vcpu = vm
            .vcpus
            .get_mut(vcpuid as usize)
            .ok_or(HypercallError::BadVcpu)?;
        vcpu.save(cpu, ctx)?;
        // The store-release publishing INACTIVE (Example 3's fix).
        self.log.push(MEvent::Barrier { cpu });
        Ok(())
    }

    // --- virtual interrupts ----------------------------------------------

    /// Sends an SGI (virtual IPI) from one vCPU to another: the MMIO trap
    /// to the emulated interrupt controller plus delivery (Table 2's
    /// "Virtual IPI"). Primary lock: [`LockId::Vm`].
    pub fn send_sgi(
        &mut self,
        cpu: usize,
        vmid: u32,
        to_vcpu: u32,
        irq: u8,
    ) -> Result<(), HypercallError> {
        self.lock(cpu, LockId::Vm(vmid));
        let r = self.send_sgi_locked(cpu, vmid, to_vcpu, irq);
        self.unlock(cpu, LockId::Vm(vmid));
        r
    }

    /// Body of [`KCore::send_sgi`].
    pub fn send_sgi_locked(
        &mut self,
        cpu: usize,
        vmid: u32,
        to_vcpu: u32,
        irq: u8,
    ) -> Result<(), HypercallError> {
        self.assert_holds(cpu, LockId::Vm(vmid));
        let vm = self.vm_mut(vmid)?;
        vm.vgic.raise(to_vcpu, irq)?;
        Ok(())
    }

    /// Acknowledges a pending virtual interrupt. Primary lock:
    /// [`LockId::Vm`].
    pub fn ack_irq(
        &mut self,
        cpu: usize,
        vmid: u32,
        vcpu: u32,
        irq: u8,
    ) -> Result<(), HypercallError> {
        self.lock(cpu, LockId::Vm(vmid));
        let r = self.ack_irq_locked(cpu, vmid, vcpu, irq);
        self.unlock(cpu, LockId::Vm(vmid));
        r
    }

    /// Body of [`KCore::ack_irq`].
    pub fn ack_irq_locked(
        &mut self,
        cpu: usize,
        vmid: u32,
        vcpu: u32,
        irq: u8,
    ) -> Result<(), HypercallError> {
        self.assert_holds(cpu, LockId::Vm(vmid));
        let vm = self.vm_mut(vmid)?;
        vm.vgic.ack(vcpu, irq)?;
        Ok(())
    }

    /// The pending virtual interrupts of a vCPU.
    pub fn pending_irqs(&self, vmid: u32, vcpu: u32) -> Result<Vec<u8>, HypercallError> {
        Ok(self.vm(vmid)?.vgic.pending(vcpu)?)
    }

    /// A VM writes its emulated UART: the trap is forwarded through KServ
    /// to the userspace device model (QEMU) — Table 2's "I/O User"
    /// operation, modelled functionally as appending to the VM's console
    /// buffer. Primary lock: [`LockId::Vm`].
    pub fn uart_write(&mut self, cpu: usize, vmid: u32, byte: u8) -> Result<(), HypercallError> {
        self.lock(cpu, LockId::Vm(vmid));
        let r = self.uart_write_locked(cpu, vmid, byte);
        self.unlock(cpu, LockId::Vm(vmid));
        r
    }

    /// Body of [`KCore::uart_write`].
    pub fn uart_write_locked(
        &mut self,
        cpu: usize,
        vmid: u32,
        byte: u8,
    ) -> Result<(), HypercallError> {
        self.assert_holds(cpu, LockId::Vm(vmid));
        if self.vm(vmid)?.state != VmState::Verified {
            return Err(HypercallError::BadState);
        }
        // The device model runs in KServ userspace: the byte itself is
        // deliberately exposed to KServ (console output is not a secret),
        // which is why guests treat the console as untrusted output.
        self.vm_mut(vmid)?.uart.push(byte);
        Ok(())
    }

    // --- stage-2 fault handling and sharing -----------------------------

    /// Handles a VM stage-2 fault: KServ donates `donor_pfn`, which is
    /// transferred, scrubbed, and mapped at `gpa`. Primary lock:
    /// [`LockId::Vm`].
    pub fn handle_s2_fault(
        &mut self,
        cpu: usize,
        vmid: u32,
        gpa: Addr,
        donor_pfn: u64,
    ) -> Result<(), HypercallError> {
        self.lock(cpu, LockId::Vm(vmid));
        let r = self.handle_s2_fault_locked(cpu, vmid, gpa, donor_pfn);
        self.unlock(cpu, LockId::Vm(vmid));
        r
    }

    /// Body of [`KCore::handle_s2_fault`].
    pub fn handle_s2_fault_locked(
        &mut self,
        cpu: usize,
        vmid: u32,
        gpa: Addr,
        donor_pfn: u64,
    ) -> Result<(), HypercallError> {
        self.assert_holds(cpu, LockId::Vm(vmid));
        if self.vm(vmid)?.state != VmState::Verified {
            return Err(HypercallError::BadState);
        }
        self.lock(cpu, LockId::S2Page);
        let check = if self.cfg.skip_ownership_check {
            Ok(())
        } else {
            match self.s2pages.get(donor_pfn) {
                Ok(p) if p.owner == Owner::KServ && !p.shared && p.map_count == 0 => Ok(()),
                Ok(_) => Err(HypercallError::AccessDenied),
                Err(e) => Err(e.into()),
            }
        };
        if let Err(e) = check {
            self.unlock(cpu, LockId::S2Page);
            return Err(e);
        }
        if !self.cfg.skip_ownership_check {
            let r = self
                .s2pages
                .transfer(donor_pfn, Owner::KServ, Owner::Vm(vmid));
            if let Err(e) = r {
                self.unlock(cpu, LockId::S2Page);
                return Err(e.into());
            }
            self.log.push(MEvent::OwnershipChange {
                cpu,
                pfn: donor_pfn,
                from: Owner::KServ,
                to: Owner::Vm(vmid),
            });
        }
        // Scrub the donated page: KServ data must not leak into the VM.
        self.mem.zero_range(page_addr(donor_pfn), PAGE_WORDS);
        self.log.push(MEvent::MemWrite {
            cpu,
            who: Principal::KCore,
            pa: page_addr(donor_pfn),
        });
        let behaviour = self.behaviour();
        let vm = self.vms.get(vmid as usize).expect("checked");
        let r = vm.s2.set_s2pt(
            &mut self.mem,
            &mut self.s2_pool,
            &mut self.log,
            cpu,
            behaviour,
            gpa,
            page_addr(donor_pfn),
            Perms::RWX,
        );
        let r = r.map_err(HypercallError::from).and_then(|()| {
            self.s2pages
                .inc_map(donor_pfn)
                .map_err(HypercallError::from)
        });
        self.unlock(cpu, LockId::S2Page);
        r
    }

    /// Grants one VM page to KServ (paravirtual I/O sharing). Primary
    /// lock: [`LockId::Vm`].
    pub fn grant_page(&mut self, cpu: usize, vmid: u32, gpa: Addr) -> Result<(), HypercallError> {
        self.lock(cpu, LockId::Vm(vmid));
        let r = self.grant_page_locked(cpu, vmid, gpa);
        self.unlock(cpu, LockId::Vm(vmid));
        r
    }

    /// Body of [`KCore::grant_page`].
    pub fn grant_page_locked(
        &mut self,
        cpu: usize,
        vmid: u32,
        gpa: Addr,
    ) -> Result<(), HypercallError> {
        self.assert_holds(cpu, LockId::Vm(vmid));
        let pa = {
            let vm = self.vm(vmid)?;
            vm.s2
                .translate(&self.mem, gpa)
                .ok_or(HypercallError::Unmapped)?
        };
        let pfn = pfn_of(pa);
        self.lock(cpu, LockId::S2Page);
        let r = self.s2pages.set_shared(pfn, true);
        self.unlock(cpu, LockId::S2Page);
        r?;
        // Map into KServ's identity stage-2.
        self.lock(cpu, LockId::KServS2);
        let behaviour = self.behaviour();
        let r = self.kserv_s2.set_s2pt(
            &mut self.mem,
            &mut self.s2_pool,
            &mut self.log,
            cpu,
            behaviour,
            page_addr(pfn),
            page_addr(pfn),
            Perms::RW,
        );
        let r = r
            .map_err(HypercallError::from)
            .and_then(|()| self.s2pages.inc_map(pfn).map_err(HypercallError::from));
        self.unlock(cpu, LockId::KServS2);
        r
    }

    /// Revokes a previously granted page: unmap from KServ's stage-2 with
    /// barrier + TLBI, then unshare. Primary lock: [`LockId::Vm`].
    pub fn revoke_page(&mut self, cpu: usize, vmid: u32, gpa: Addr) -> Result<(), HypercallError> {
        self.lock(cpu, LockId::Vm(vmid));
        let r = self.revoke_page_locked(cpu, vmid, gpa);
        self.unlock(cpu, LockId::Vm(vmid));
        r
    }

    /// Body of [`KCore::revoke_page`].
    pub fn revoke_page_locked(
        &mut self,
        cpu: usize,
        vmid: u32,
        gpa: Addr,
    ) -> Result<(), HypercallError> {
        self.assert_holds(cpu, LockId::Vm(vmid));
        let pa = {
            let vm = self.vm(vmid)?;
            vm.s2
                .translate(&self.mem, gpa)
                .ok_or(HypercallError::Unmapped)?
        };
        let pfn = pfn_of(pa);
        if !self.cfg.revoke_skips_unmap {
            self.lock(cpu, LockId::KServS2);
            let behaviour = self.behaviour();
            let r = self.kserv_s2.clear_s2pt(
                &mut self.mem,
                &self.s2_pool,
                &mut self.log,
                cpu,
                behaviour,
                page_addr(pfn),
            );
            self.unlock(cpu, LockId::KServS2);
            r?;
            self.s2pages.dec_map(pfn)?;
        }
        if !self.cfg.revoke_keeps_share {
            self.lock(cpu, LockId::S2Page);
            let r = self.s2pages.set_shared(pfn, false);
            self.unlock(cpu, LockId::S2Page);
            r?;
        }
        Ok(())
    }

    /// KServ stage-2 fault: populate KServ's identity map for a page it
    /// owns (or was granted). Primary lock: [`LockId::KServS2`].
    pub fn kserv_fault(&mut self, cpu: usize, pfn: u64) -> Result<(), HypercallError> {
        self.lock(cpu, LockId::KServS2);
        let r = self.kserv_fault_locked(cpu, pfn);
        self.unlock(cpu, LockId::KServS2);
        r
    }

    /// Body of [`KCore::kserv_fault`].
    pub fn kserv_fault_locked(&mut self, cpu: usize, pfn: u64) -> Result<(), HypercallError> {
        self.assert_holds(cpu, LockId::KServS2);
        if !self.cfg.skip_ownership_check {
            let page = self.s2pages.get(pfn)?;
            let allowed = page.owner == Owner::KServ || page.shared;
            if !allowed {
                return Err(HypercallError::AccessDenied);
            }
        }
        let behaviour = self.behaviour();
        self.kserv_s2
            .set_s2pt(
                &mut self.mem,
                &mut self.s2_pool,
                &mut self.log,
                cpu,
                behaviour,
                page_addr(pfn),
                page_addr(pfn),
                Perms::RWX,
            )
            .map_err(HypercallError::from)?;
        self.s2pages.inc_map(pfn)?;
        Ok(())
    }

    // --- SMMU -----------------------------------------------------------

    /// Assigns a device to a VM (table must be empty). Primary lock:
    /// [`LockId::Smmu`].
    pub fn assign_smmu_dev(
        &mut self,
        cpu: usize,
        dev: u32,
        to: Owner,
    ) -> Result<(), HypercallError> {
        self.lock(cpu, LockId::Smmu(dev));
        let r = self.assign_smmu_dev_locked(cpu, dev, to);
        self.unlock(cpu, LockId::Smmu(dev));
        r
    }

    /// Body of [`KCore::assign_smmu_dev`].
    pub fn assign_smmu_dev_locked(
        &mut self,
        cpu: usize,
        dev: u32,
        to: Owner,
    ) -> Result<(), HypercallError> {
        self.assert_holds(cpu, LockId::Smmu(dev));
        if to == Owner::KCore {
            return Err(HypercallError::AccessDenied);
        }
        let device = self
            .devices
            .get_mut(dev as usize)
            .ok_or(HypercallError::BadDevice)?;
        if !device.mappings(&self.mem).is_empty() {
            return Err(HypercallError::BadState);
        }
        device.assigned_to = to;
        Ok(())
    }

    /// Maps `iova -> pfn` in a device's SMMU table; the page must be owned
    /// by the device's principal. Primary lock: [`LockId::Smmu`].
    pub fn smmu_map(
        &mut self,
        cpu: usize,
        dev: u32,
        iova: Addr,
        pfn: u64,
    ) -> Result<(), HypercallError> {
        self.lock(cpu, LockId::Smmu(dev));
        let r = self.smmu_map_locked(cpu, dev, iova, pfn);
        self.unlock(cpu, LockId::Smmu(dev));
        r
    }

    /// Body of [`KCore::smmu_map`].
    pub fn smmu_map_locked(
        &mut self,
        cpu: usize,
        dev: u32,
        iova: Addr,
        pfn: u64,
    ) -> Result<(), HypercallError> {
        self.assert_holds(cpu, LockId::Smmu(dev));
        let assigned_to = self
            .devices
            .get(dev as usize)
            .ok_or(HypercallError::BadDevice)?
            .assigned_to;
        if !self.cfg.skip_ownership_check {
            let owner = self.s2pages.owner(pfn)?;
            if owner != assigned_to || owner == Owner::KCore {
                return Err(HypercallError::AccessDenied);
            }
        }
        let behaviour = self.behaviour();
        let device = self.devices.get(dev as usize).expect("checked");
        device
            .set_spt(
                &mut self.mem,
                &mut self.smmu_pool,
                &mut self.log,
                cpu,
                behaviour,
                iova,
                page_addr(pfn),
            )
            .map_err(HypercallError::from)?;
        self.s2pages.inc_map(pfn)?;
        Ok(())
    }

    /// Unmaps a device IOVA (barrier + SMMU TLBI). Primary lock:
    /// [`LockId::Smmu`].
    pub fn smmu_unmap(&mut self, cpu: usize, dev: u32, iova: Addr) -> Result<(), HypercallError> {
        self.lock(cpu, LockId::Smmu(dev));
        let r = self.smmu_unmap_locked(cpu, dev, iova);
        self.unlock(cpu, LockId::Smmu(dev));
        r
    }

    /// Body of [`KCore::smmu_unmap`].
    pub fn smmu_unmap_locked(
        &mut self,
        cpu: usize,
        dev: u32,
        iova: Addr,
    ) -> Result<(), HypercallError> {
        self.assert_holds(cpu, LockId::Smmu(dev));
        let pa = {
            let device = self
                .devices
                .get(dev as usize)
                .ok_or(HypercallError::BadDevice)?;
            device
                .translate(&self.mem, iova)
                .ok_or(HypercallError::Unmapped)?
        };
        let behaviour = self.behaviour();
        let device = self.devices.get(dev as usize).expect("checked");
        device
            .clear_spt(
                &mut self.mem,
                &self.smmu_pool,
                &mut self.log,
                cpu,
                behaviour,
                iova,
            )
            .map_err(HypercallError::from)?;
        self.s2pages.dec_map(pfn_of(pa))?;
        Ok(())
    }

    /// Changes the permissions of an existing VM mapping using the
    /// break-before-make sequence Arm requires: unmap (with barrier and
    /// TLBI, condition 5), then re-map with the new permissions — both
    /// inside the VM's critical section. Primary lock: [`LockId::Vm`].
    pub fn protect_vm_page(
        &mut self,
        cpu: usize,
        vmid: u32,
        gpa: Addr,
        perms: Perms,
    ) -> Result<(), HypercallError> {
        self.lock(cpu, LockId::Vm(vmid));
        let r = self.protect_vm_page_locked(cpu, vmid, gpa, perms);
        self.unlock(cpu, LockId::Vm(vmid));
        r
    }

    /// Body of [`KCore::protect_vm_page`].
    pub fn protect_vm_page_locked(
        &mut self,
        cpu: usize,
        vmid: u32,
        gpa: Addr,
        perms: Perms,
    ) -> Result<(), HypercallError> {
        self.assert_holds(cpu, LockId::Vm(vmid));
        let pa = {
            let vm = self.vm(vmid)?;
            vm.s2
                .translate(&self.mem, gpa)
                .ok_or(HypercallError::Unmapped)?
        };
        let page_gpa = gpa & !(PAGE_WORDS - 1);
        let page_pa = pa & !(PAGE_WORDS - 1);
        let behaviour = self.behaviour();
        let vm = self.vms.get(vmid as usize).expect("checked");
        // Break: unmap + barrier + TLBI.
        vm.s2.clear_s2pt(
            &mut self.mem,
            &self.s2_pool,
            &mut self.log,
            cpu,
            behaviour,
            page_gpa,
        )?;
        // Make: fresh mapping with the new permissions.
        let vm = self.vms.get(vmid as usize).expect("checked");
        vm.s2
            .set_s2pt(
                &mut self.mem,
                &mut self.s2_pool,
                &mut self.log,
                cpu,
                behaviour,
                page_gpa,
                page_pa,
                perms,
            )
            .map_err(HypercallError::from)?;
        Ok(())
    }

    // --- VM migration / snapshot (encrypted page export) -----------------

    /// Modelled keystream word (XOR cipher; stands in for the real AES of
    /// SeKVM's migration support — only the information-flow structure
    /// matters for the modelled properties).
    fn keystream(key: u64, gpa: Addr, i: u64) -> Val {
        let mut x = key ^ gpa.wrapping_mul(0x100000001b3) ^ i.wrapping_add(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }

    /// Exports the VM page at `gpa`, encrypted, into a KServ-owned page —
    /// the migration/snapshot path. KServ never sees plaintext; KCore's
    /// reads of the VM page are oracle-masked in the proofs (§5.3).
    /// Primary lock: [`LockId::Vm`].
    pub fn export_vm_page(
        &mut self,
        cpu: usize,
        vmid: u32,
        gpa: Addr,
        dest_pfn: u64,
    ) -> Result<u64, HypercallError> {
        self.lock(cpu, LockId::Vm(vmid));
        let r = self.export_vm_page_locked(cpu, vmid, gpa, dest_pfn);
        self.unlock(cpu, LockId::Vm(vmid));
        r
    }

    /// Body of [`KCore::export_vm_page`].
    pub fn export_vm_page_locked(
        &mut self,
        cpu: usize,
        vmid: u32,
        gpa: Addr,
        dest_pfn: u64,
    ) -> Result<u64, HypercallError> {
        self.assert_holds(cpu, LockId::Vm(vmid));
        let dest = self.s2pages.get(dest_pfn)?;
        if dest.owner != Owner::KServ || dest.shared || dest.map_count > 0 {
            return Err(HypercallError::AccessDenied);
        }
        let (pa, key) = {
            let vm = self.vm(vmid)?;
            let pa = vm
                .s2
                .translate(&self.mem, gpa)
                .ok_or(HypercallError::Unmapped)?;
            (pa, vm.migration_key)
        };
        let gpa_page = gpa & !(PAGE_WORDS - 1);
        let mut tag = 0xcbf29ce484222325u64;
        for i in 0..PAGE_WORDS {
            let plain = self.mem.read((pa & !(PAGE_WORDS - 1)) + i);
            self.log.push(MEvent::MemRead {
                cpu,
                who: Principal::KCore,
                pa: (pa & !(PAGE_WORDS - 1)) + i,
                oracle_masked: true,
            });
            let cipher = plain ^ Self::keystream(key, gpa_page, i);
            self.mem.write(page_addr(dest_pfn) + i, cipher);
            tag = (tag ^ cipher).wrapping_mul(0x100000001b3);
        }
        self.log.push(MEvent::MemWrite {
            cpu,
            who: Principal::KCore,
            pa: page_addr(dest_pfn),
        });
        self.vm_mut(vmid)?.exported.insert(gpa_page, tag);
        Ok(tag)
    }

    /// Imports a previously exported page: verifies the integrity tag,
    /// takes ownership of the ciphertext page from KServ, decrypts in
    /// place, and maps it at `gpa`. Primary lock: [`LockId::Vm`].
    pub fn import_vm_page(
        &mut self,
        cpu: usize,
        vmid: u32,
        gpa: Addr,
        src_pfn: u64,
    ) -> Result<(), HypercallError> {
        self.lock(cpu, LockId::Vm(vmid));
        let r = self.import_vm_page_locked(cpu, vmid, gpa, src_pfn);
        self.unlock(cpu, LockId::Vm(vmid));
        r
    }

    /// Body of [`KCore::import_vm_page`].
    pub fn import_vm_page_locked(
        &mut self,
        cpu: usize,
        vmid: u32,
        gpa: Addr,
        src_pfn: u64,
    ) -> Result<(), HypercallError> {
        self.assert_holds(cpu, LockId::Vm(vmid));
        let gpa_page = gpa & !(PAGE_WORDS - 1);
        let (key, expected) = {
            let vm = self.vm(vmid)?;
            let expected = vm
                .exported
                .get(&gpa_page)
                .copied()
                .ok_or(HypercallError::BadState)?;
            (vm.migration_key, expected)
        };
        // Verify the ciphertext tag before touching ownership.
        let mut tag = 0xcbf29ce484222325u64;
        for i in 0..PAGE_WORDS {
            let cipher = self.mem.read(page_addr(src_pfn) + i);
            tag = (tag ^ cipher).wrapping_mul(0x100000001b3);
        }
        if tag != expected {
            return Err(HypercallError::HashMismatch {
                expected,
                computed: tag,
            });
        }
        self.lock(cpu, LockId::S2Page);
        let check = match self.s2pages.get(src_pfn) {
            Ok(p) if p.owner == Owner::KServ && !p.shared && p.map_count == 0 => self
                .s2pages
                .transfer(src_pfn, Owner::KServ, Owner::Vm(vmid)),
            Ok(_) => Err(crate::s2page::OwnershipError::WrongOwner {
                actual: Owner::KServ,
            }),
            Err(e) => Err(e),
        };
        if let Err(e) = check {
            self.unlock(cpu, LockId::S2Page);
            return Err(e.into());
        }
        self.log.push(MEvent::OwnershipChange {
            cpu,
            pfn: src_pfn,
            from: Owner::KServ,
            to: Owner::Vm(vmid),
        });
        // Decrypt in place (now VM-owned, invisible to KServ).
        for i in 0..PAGE_WORDS {
            let cipher = self.mem.read(page_addr(src_pfn) + i);
            self.mem.write(
                page_addr(src_pfn) + i,
                cipher ^ Self::keystream(key, gpa_page, i),
            );
        }
        self.log.push(MEvent::MemWrite {
            cpu,
            who: Principal::KCore,
            pa: page_addr(src_pfn),
        });
        let behaviour = self.behaviour();
        let vm = self.vms.get(vmid as usize).expect("checked");
        let r = vm
            .s2
            .set_s2pt(
                &mut self.mem,
                &mut self.s2_pool,
                &mut self.log,
                cpu,
                behaviour,
                gpa_page,
                page_addr(src_pfn),
                Perms::RWX,
            )
            .map_err(HypercallError::from)
            .and_then(|()| self.s2pages.inc_map(src_pfn).map_err(HypercallError::from));
        self.unlock(cpu, LockId::S2Page);
        r?;
        self.vm_mut(vmid)?.exported.remove(&gpa_page);
        Ok(())
    }

    // --- data-access simulation ------------------------------------------

    /// KServ reads a physical address through its stage-2 (faulting in the
    /// identity mapping on demand). Fails if KCore refuses the mapping.
    pub fn kserv_read(&mut self, cpu: usize, pa: Addr) -> Result<Val, HypercallError> {
        let pfn = pfn_of(pa);
        if self.kserv_s2.translate(&self.mem, pa).is_none() {
            self.kserv_fault(cpu, pfn)?;
        }
        let hpa = self
            .kserv_s2
            .translate(&self.mem, pa)
            .ok_or(HypercallError::Unmapped)?;
        self.log.push(MEvent::MemRead {
            cpu,
            who: Principal::KServ,
            pa: hpa,
            oracle_masked: false,
        });
        Ok(self.mem.read(hpa))
    }

    /// KServ writes a physical address through its stage-2.
    pub fn kserv_write(&mut self, cpu: usize, pa: Addr, val: Val) -> Result<(), HypercallError> {
        let pfn = pfn_of(pa);
        if self.kserv_s2.translate(&self.mem, pa).is_none() {
            self.kserv_fault(cpu, pfn)?;
        }
        let hpa = self
            .kserv_s2
            .translate(&self.mem, pa)
            .ok_or(HypercallError::Unmapped)?;
        self.log.push(MEvent::MemWrite {
            cpu,
            who: Principal::KServ,
            pa: hpa,
        });
        self.mem.write(hpa, val);
        Ok(())
    }

    /// A VM reads guest-physical memory through its stage-2.
    pub fn vm_read(&mut self, cpu: usize, vmid: u32, gpa: Addr) -> Result<Val, HypercallError> {
        let pa = {
            let vm = self.vm(vmid)?;
            vm.s2
                .translate(&self.mem, gpa)
                .ok_or(HypercallError::Unmapped)?
        };
        self.log.push(MEvent::MemRead {
            cpu,
            who: Principal::Vm(vmid),
            pa,
            oracle_masked: false,
        });
        Ok(self.mem.read(pa))
    }

    /// A VM writes guest-physical memory through its stage-2; the leaf
    /// entry's write permission is enforced like stage-2 hardware would.
    pub fn vm_write(
        &mut self,
        cpu: usize,
        vmid: u32,
        gpa: Addr,
        val: Val,
    ) -> Result<(), HypercallError> {
        let pa = {
            let vm = self.vm(vmid)?;
            let (pa, perms) = vm
                .s2
                .translate_with_perms(&self.mem, gpa)
                .ok_or(HypercallError::Unmapped)?;
            if !perms.w {
                return Err(HypercallError::Permission);
            }
            pa
        };
        self.log.push(MEvent::MemWrite {
            cpu,
            who: Principal::Vm(vmid),
            pa,
        });
        self.mem.write(pa, val);
        Ok(())
    }

    /// A device DMA write through the SMMU (write permission enforced).
    pub fn dev_dma_write(
        &mut self,
        cpu: usize,
        dev: u32,
        iova: Addr,
        val: Val,
    ) -> Result<(), HypercallError> {
        let device = self
            .devices
            .get(dev as usize)
            .ok_or(HypercallError::BadDevice)?;
        let pa = {
            let (pa, perms) = device
                .translate_with_perms(&self.mem, iova)
                .ok_or(HypercallError::Unmapped)?;
            if !perms.w {
                return Err(HypercallError::Permission);
            }
            pa
        };
        self.log.push(MEvent::MemWrite {
            cpu,
            who: Principal::Device(dev),
            pa,
        });
        self.mem.write(pa, val);
        Ok(())
    }

    /// A device DMA read through the SMMU.
    pub fn dev_dma_read(
        &mut self,
        cpu: usize,
        dev: u32,
        iova: Addr,
    ) -> Result<Val, HypercallError> {
        let device = self
            .devices
            .get(dev as usize)
            .ok_or(HypercallError::BadDevice)?;
        let pa = device
            .translate(&self.mem, iova)
            .ok_or(HypercallError::Unmapped)?;
        self.log.push(MEvent::MemRead {
            cpu,
            who: Principal::Device(dev),
            pa,
            oracle_masked: false,
        });
        Ok(self.mem.read(pa))
    }

    // --- helpers --------------------------------------------------------

    /// Computes the image hash the way `verify_vm_image` does (used by
    /// KServ/tests to stage valid images).
    pub fn image_hash(words: &[Val]) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for &w in words {
            h = (h ^ w).wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Immutable VM metadata access.
    pub fn vm(&self, vmid: u32) -> Result<&VmMeta, HypercallError> {
        self.vms.get(vmid as usize).ok_or(HypercallError::BadVm)
    }

    fn vm_mut(&mut self, vmid: u32) -> Result<&mut VmMeta, HypercallError> {
        self.vms.get_mut(vmid as usize).ok_or(HypercallError::BadVm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::VM_POOL_PFN;

    /// Stages a 2-page image in KServ memory and boots a VM end-to-end.
    pub fn boot_vm(k: &mut KCore, cpu: usize) -> u32 {
        let pfns = vec![VM_POOL_PFN.0, VM_POOL_PFN.0 + 1];
        // KServ writes the image content.
        for (i, &pfn) in pfns.iter().enumerate() {
            for w in 0..PAGE_WORDS {
                k.mem.write(page_addr(pfn) + w, (i as u64) * 1000 + w);
            }
        }
        let words: Vec<Val> = pfns
            .iter()
            .flat_map(|&pfn| (0..PAGE_WORDS).map(move |w| page_addr(pfn) + w))
            .map(|a| k.mem.read(a))
            .collect();
        let hash = KCore::image_hash(&words);
        let vmid = k.register_vm(cpu).unwrap();
        k.register_vcpu(cpu, vmid).unwrap();
        k.set_boot_info(cpu, vmid, pfns, hash).unwrap();
        k.remap_vm_image(cpu, vmid).unwrap();
        k.verify_vm_image(cpu, vmid).unwrap();
        vmid
    }

    #[test]
    fn vm_boot_end_to_end() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = boot_vm(&mut k, 0);
        assert_eq!(k.vm(vmid).unwrap().state, VmState::Verified);
        // Image readable by the VM at gpa 0.
        assert_eq!(k.vm_read(0, vmid, 0).unwrap(), 0);
        assert_eq!(k.vm_read(0, vmid, 5).unwrap(), 5);
        assert_eq!(k.vm_read(0, vmid, PAGE_WORDS + 5).unwrap(), 1005);
    }

    #[test]
    fn image_hash_mismatch_rejected() {
        let mut k = KCore::boot(KCoreConfig::default());
        let pfns = vec![VM_POOL_PFN.0];
        let vmid = k.register_vm(0).unwrap();
        k.set_boot_info(0, vmid, pfns, 0xdead).unwrap();
        k.remap_vm_image(0, vmid).unwrap();
        assert!(matches!(
            k.verify_vm_image(0, vmid),
            Err(HypercallError::HashMismatch { .. })
        ));
    }

    #[test]
    fn unique_vmids() {
        let mut k = KCore::boot(KCoreConfig::default());
        let a = k.register_vm(0).unwrap();
        let b = k.register_vm(1).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn vmid_exhaustion() {
        let mut k = KCore::boot(KCoreConfig::default());
        for _ in 0..MAX_VMS {
            k.register_vm(0).unwrap();
        }
        assert_eq!(k.register_vm(0), Err(HypercallError::NoVmidsLeft));
    }

    #[test]
    fn vcpu_run_stop_roundtrip() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = boot_vm(&mut k, 0);
        let mut ctx = k.run_vcpu(0, vmid, 0).unwrap();
        // Second CPU cannot claim it.
        assert_eq!(
            k.run_vcpu(1, vmid, 0),
            Err(HypercallError::Vcpu(VcpuError::NotInactive))
        );
        ctx.regs[3] = 7;
        k.stop_vcpu(0, vmid, 0, ctx).unwrap();
        let ctx2 = k.run_vcpu(1, vmid, 0).unwrap();
        assert_eq!(ctx2.regs[3], 7);
        k.stop_vcpu(1, vmid, 0, ctx2).unwrap();
    }

    #[test]
    fn fault_donates_scrubbed_page() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = boot_vm(&mut k, 0);
        let donor = VM_POOL_PFN.0 + 10;
        k.mem.write(page_addr(donor) + 3, 0x5ec4e7u64);
        k.handle_s2_fault(0, vmid, 16 * PAGE_WORDS, donor).unwrap();
        // Scrubbed: the VM sees zero, not KServ's old data.
        assert_eq!(k.vm_read(0, vmid, 16 * PAGE_WORDS + 3).unwrap(), 0);
        assert_eq!(k.s2pages.owner(donor).unwrap(), Owner::Vm(vmid));
    }

    #[test]
    fn kserv_cannot_fault_in_vm_pages() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = boot_vm(&mut k, 0);
        let vm_pfn = k.vm(vmid).unwrap().image_pfns[0];
        assert_eq!(
            k.kserv_read(1, page_addr(vm_pfn)),
            Err(HypercallError::AccessDenied)
        );
    }

    #[test]
    fn grant_and_revoke_sharing() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = boot_vm(&mut k, 0);
        k.vm_write(0, vmid, 7, 1234).unwrap();
        let pa = {
            let vm = k.vm(vmid).unwrap();
            vm.s2.translate(&k.mem, 7).unwrap()
        };
        // Before granting, KServ cannot read the VM page.
        assert!(k.kserv_read(1, pa).is_err());
        k.grant_page(0, vmid, 0).unwrap();
        assert_eq!(k.kserv_read(1, pa).unwrap(), 1234);
        k.revoke_page(0, vmid, 0).unwrap();
        // Mapping removed: the next access faults and is denied again
        // (page still owned by the VM, no longer shared).
        assert!(k.kserv_read(1, pa).is_err());
    }

    #[test]
    fn smmu_dma_isolation() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = boot_vm(&mut k, 0);
        // Device 0 assigned to the VM may map VM pages.
        k.assign_smmu_dev(0, 0, Owner::Vm(vmid)).unwrap();
        let vm_pfn = k.vm(vmid).unwrap().image_pfns[0];
        k.smmu_map(0, 0, 0, vm_pfn).unwrap();
        k.dev_dma_write(0, 0, 3, 42).unwrap();
        assert_eq!(k.vm_read(0, vmid, 3).unwrap(), 42);
        // Device 1 (KServ's) may not map VM pages.
        assert_eq!(
            k.smmu_map(0, 1, 0, vm_pfn),
            Err(HypercallError::AccessDenied)
        );
        // And no device may map KCore pages.
        assert_eq!(k.smmu_map(0, 0, 0, 0), Err(HypercallError::AccessDenied));
        k.smmu_unmap(0, 0, 0).unwrap();
        assert_eq!(k.dev_dma_read(0, 0, 3), Err(HypercallError::Unmapped));
    }

    #[test]
    fn reclaim_scrubs_and_returns_pages() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = boot_vm(&mut k, 0);
        k.vm_write(0, vmid, 9, 0x5ec2e7).unwrap();
        let pa = {
            let vm = k.vm(vmid).unwrap();
            vm.s2.translate(&k.mem, 9).unwrap()
        };
        k.reclaim_vm_pages(0, vmid).unwrap();
        assert_eq!(k.vm(vmid).unwrap().state, VmState::Destroyed);
        // The page is KServ's again and scrubbed.
        assert_eq!(k.s2pages.owner(pfn_of(pa)).unwrap(), Owner::KServ);
        assert_eq!(k.kserv_read(1, pa).unwrap(), 0);
    }

    #[test]
    fn migration_export_import_roundtrip() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = boot_vm(&mut k, 0);
        // VM writes a secret pattern into a faulted-in data page.
        let gpa = 64 * PAGE_WORDS;
        let donor = VM_POOL_PFN.0 + 10;
        k.handle_s2_fault(0, vmid, gpa, donor).unwrap();
        for i in 0..8 {
            k.vm_write(0, vmid, gpa + i, 0x1000 + i).unwrap();
        }
        // Export to a KServ page: ciphertext, not plaintext.
        let dest = VM_POOL_PFN.0 + 20;
        let tag = k.export_vm_page(0, vmid, gpa, dest).unwrap();
        assert_ne!(tag, 0);
        let cipher0 = k.mem.read(page_addr(dest));
        assert_ne!(cipher0, 0x1000, "export must not leak plaintext");
        // KServ can read the ciphertext (it owns the page) — that is fine.
        assert_eq!(k.kserv_read(1, page_addr(dest)).unwrap(), cipher0);
        // Simulate migration: unmap the original page, then import.
        {
            let behaviour = k.behaviour();
            let vm = k.vms.get(vmid as usize).unwrap();
            vm.s2
                .clear_s2pt(&mut k.mem, &k.s2_pool, &mut k.log, 0, behaviour, gpa)
                .unwrap();
        }
        k.s2pages.dec_map(donor).unwrap();
        // KServ must first unmap its own stage-2 view of the ciphertext
        // page before donating it (it faulted the page in to read it).
        k.import_vm_page(0, vmid, gpa, dest).unwrap_err();
        {
            let behaviour = k.behaviour();
            k.lock(1, crate::events::LockId::KServS2);
            k.kserv_s2
                .clear_s2pt(
                    &mut k.mem,
                    &k.s2_pool,
                    &mut k.log,
                    1,
                    behaviour,
                    page_addr(dest),
                )
                .unwrap();
            k.unlock(1, crate::events::LockId::KServS2);
            k.s2pages.dec_map(dest).unwrap();
        }
        k.import_vm_page(0, vmid, gpa, dest).unwrap();
        // The VM sees its exact old contents at the same gpa.
        for i in 0..8 {
            assert_eq!(k.vm_read(0, vmid, gpa + i).unwrap(), 0x1000 + i);
        }
        assert_eq!(k.s2pages.owner(dest).unwrap(), Owner::Vm(vmid));
    }

    #[test]
    fn migration_tamper_detected() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = boot_vm(&mut k, 0);
        let gpa = 64 * PAGE_WORDS;
        k.handle_s2_fault(0, vmid, gpa, VM_POOL_PFN.0 + 10).unwrap();
        k.vm_write(0, vmid, gpa, 777).unwrap();
        let dest = VM_POOL_PFN.0 + 20;
        k.export_vm_page(0, vmid, gpa, dest).unwrap();
        // KServ tampers with one ciphertext word.
        k.mem.write(page_addr(dest) + 3, 0xbad);
        {
            let behaviour = k.behaviour();
            let vm = k.vms.get(vmid as usize).unwrap();
            vm.s2
                .clear_s2pt(&mut k.mem, &k.s2_pool, &mut k.log, 0, behaviour, gpa)
                .unwrap();
        }
        k.s2pages.dec_map(VM_POOL_PFN.0 + 10).unwrap();
        assert!(matches!(
            k.import_vm_page(0, vmid, gpa, dest),
            Err(HypercallError::HashMismatch { .. })
        ));
    }

    #[test]
    fn export_requires_kserv_destination() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = boot_vm(&mut k, 0);
        // Destination owned by the VM itself: refused.
        let own = k.vm(vmid).unwrap().image_pfns[0];
        assert_eq!(
            k.export_vm_page(0, vmid, 0, own),
            Err(HypercallError::AccessDenied)
        );
        // KCore-private destination: refused.
        assert_eq!(
            k.export_vm_page(0, vmid, 0, 0),
            Err(HypercallError::AccessDenied)
        );
    }

    #[test]
    fn both_table_geometries_work() {
        for levels in [3u32, 4u32] {
            let mut k = KCore::boot(KCoreConfig {
                s2_levels: levels,
                ..Default::default()
            });
            let vmid = boot_vm(&mut k, 0);
            assert_eq!(k.vm_read(0, vmid, 1).unwrap(), 1, "levels={levels}");
        }
    }

    #[test]
    fn protect_page_enforces_permissions() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = boot_vm(&mut k, 0);
        let gpa = 64 * PAGE_WORDS;
        k.handle_s2_fault(0, vmid, gpa, VM_POOL_PFN.0 + 10).unwrap();
        k.vm_write(0, vmid, gpa, 55).unwrap();
        // Break-before-make to read-only.
        k.protect_vm_page(0, vmid, gpa, vrm_mmu::pte::Perms::RO)
            .unwrap();
        assert_eq!(k.vm_read(0, vmid, gpa).unwrap(), 55);
        assert_eq!(
            k.vm_write(0, vmid, gpa, 66),
            Err(HypercallError::Permission)
        );
        // And back to read-write.
        k.protect_vm_page(0, vmid, gpa, vrm_mmu::pte::Perms::RWX)
            .unwrap();
        k.vm_write(0, vmid, gpa, 66).unwrap();
        // The break-before-make sequences satisfy condition 5.
        assert!(crate::wdrf::validate_log(&k.log).is_empty());
    }

    #[test]
    fn protect_without_tlbi_caught_by_validator() {
        let mut k = KCore::boot(KCoreConfig {
            skip_tlbi_on_unmap: true,
            ..Default::default()
        });
        let vmid = boot_vm(&mut k, 0);
        let gpa = 64 * PAGE_WORDS;
        k.handle_s2_fault(0, vmid, gpa, VM_POOL_PFN.0 + 10).unwrap();
        k.protect_vm_page(0, vmid, gpa, vrm_mmu::pte::Perms::RO)
            .unwrap();
        let v = crate::wdrf::validate_log(&k.log);
        assert!(!v.is_empty(), "missing TLBI in BBM must be flagged");
    }

    #[test]
    fn dma_write_respects_permissions() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = boot_vm(&mut k, 0);
        k.assign_smmu_dev(0, 0, Owner::Vm(vmid)).unwrap();
        let pfn = k.vm(vmid).unwrap().image_pfns[0];
        k.smmu_map(0, 0, 0, pfn).unwrap();
        // SMMU mappings are RW: writes allowed.
        k.dev_dma_write(0, 0, 1, 9).unwrap();
        assert_eq!(k.vm_read(0, vmid, 1).unwrap(), 9);
    }

    #[test]
    fn uart_io_user_path() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = boot_vm(&mut k, 0);
        for b in b"hello" {
            k.uart_write(0, vmid, *b).unwrap();
        }
        assert_eq!(k.vm(vmid).unwrap().uart, b"hello");
        // Unverified VMs have no device model attached.
        let fresh = k.register_vm(1).unwrap();
        assert_eq!(k.uart_write(1, fresh, b'x'), Err(HypercallError::BadState));
    }

    #[test]
    fn virtual_ipi_roundtrip() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = boot_vm(&mut k, 0);
        k.register_vcpu(0, vmid).unwrap(); // second vCPU
                                           // vCPU 0 (on CPU 0) IPIs vCPU 1.
        k.send_sgi(0, vmid, 1, 2).unwrap();
        assert_eq!(k.pending_irqs(vmid, 1).unwrap(), vec![2]);
        assert_eq!(k.pending_irqs(vmid, 0).unwrap(), Vec::<u8>::new());
        // The target handles it.
        k.ack_irq(1, vmid, 1, 2).unwrap();
        assert!(k.pending_irqs(vmid, 1).unwrap().is_empty());
        // Acking twice is a guest bug surfaced as an error.
        assert!(matches!(
            k.ack_irq(1, vmid, 1, 2),
            Err(HypercallError::Vgic(_))
        ));
    }

    #[test]
    fn vcpu_limit_enforced() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = k.register_vm(0).unwrap();
        for _ in 0..MAX_VCPUS {
            k.register_vcpu(0, vmid).unwrap();
        }
        assert_eq!(k.register_vcpu(0, vmid), Err(HypercallError::BadVcpu));
    }

    #[test]
    fn unverified_vm_cannot_run_or_fault() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = k.register_vm(0).unwrap();
        k.register_vcpu(0, vmid).unwrap();
        assert_eq!(k.run_vcpu(0, vmid, 0), Err(HypercallError::BadState));
        assert_eq!(
            k.handle_s2_fault(0, vmid, 0, VM_POOL_PFN.0),
            Err(HypercallError::BadState)
        );
    }

    #[test]
    fn boot_info_rejects_non_kserv_pages() {
        let mut k = KCore::boot(KCoreConfig::default());
        let a = boot_vm(&mut k, 0);
        let stolen = k.vm(a).unwrap().image_pfns[0];
        let b = k.register_vm(0).unwrap();
        // VM b's image may not include VM a's pages...
        assert_eq!(
            k.set_boot_info(0, b, vec![stolen], 0),
            Err(HypercallError::AccessDenied)
        );
        // ...nor KCore's.
        assert_eq!(
            k.set_boot_info(0, b, vec![0], 0),
            Err(HypercallError::AccessDenied)
        );
    }

    #[test]
    fn operations_on_unknown_vm_fail() {
        let mut k = KCore::boot(KCoreConfig::default());
        assert_eq!(k.register_vcpu(0, 7), Err(HypercallError::BadVm));
        assert_eq!(k.vm_read(0, 7, 0), Err(HypercallError::BadVm));
        assert_eq!(k.grant_page(0, 7, 0), Err(HypercallError::BadVm));
    }

    #[test]
    fn double_reclaim_rejected() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = boot_vm(&mut k, 0);
        k.reclaim_vm_pages(0, vmid).unwrap();
        assert_eq!(k.reclaim_vm_pages(0, vmid), Err(HypercallError::BadState));
    }

    #[test]
    fn smmu_reassignment_requires_empty_table() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = boot_vm(&mut k, 0);
        k.assign_smmu_dev(0, 0, Owner::Vm(vmid)).unwrap();
        let pfn = k.vm(vmid).unwrap().image_pfns[0];
        k.smmu_map(0, 0, 0, pfn).unwrap();
        // Reassigning a device with live mappings is refused.
        assert_eq!(
            k.assign_smmu_dev(0, 0, Owner::KServ),
            Err(HypercallError::BadState)
        );
        k.smmu_unmap(0, 0, 0).unwrap();
        k.assign_smmu_dev(0, 0, Owner::KServ).unwrap();
    }

    #[test]
    #[should_panic(expected = "lock discipline violated")]
    fn lock_discipline_is_asserted() {
        let mut k = KCore::boot(KCoreConfig::default());
        // Calling a body without holding the primary lock panics.
        let _ = k.register_vm_locked(0);
    }
}
