//! Refinement between the concrete KCore and the abstract ownership
//! machine in `vrm-spec` (§5.2's layered proof strategy).
//!
//! Three pieces make the refinement statement executable:
//!
//! * [`abstract_of`] — the projection: which [`vrm_spec::AbsState`] a
//!   concrete [`KCore`] state denotes. Locks, page-table layout, vCPU
//!   contexts, event logs, map counts and memory *contents* are all
//!   refined away; only translation structure and ownership remain.
//! * [`label_of`] — the label function: which abstract steps a concrete
//!   operation *claims* to perform, derived from the operation and the
//!   pre-state (never from the observed effect — a mutant that skips
//!   work must disagree with its label, not relabel itself). The two
//!   data-oracle side conditions of the paper's proof appear here as
//!   evidence read back from the post-state: a donation claims
//!   [`Claim::Zeroed`]/[`Claim::Authenticated`] only if the frame really
//!   is zeroed / really hashes to the registered value, and a reclaim is
//!   `scrubbed` only if the frame contents are gone.
//! * [`check_transition`] — the simulation obligation for one concrete
//!   transition: replaying the label from the projected pre-state must
//!   be legal and land exactly on the projected post-state, and the
//!   post-state must satisfy noninterference. Operations with an empty
//!   label are stutters: their projections must be identical.
//!
//! [`Machine::check_refinement`](crate::machine::Machine::check_refinement)
//! discharges this obligation for *every* transition the exhaustive
//! schedule exploration reaches.

use vrm_spec::{
    noninterference, step, AbsActor, AbsMapping, AbsOwner, AbsPage, AbsPerms, AbsState, AbsStep,
    AbsUniverse, Claim,
};

use crate::kcore::KCore;
use crate::layout::{
    is_kcore_private, page_addr, pfn_of, EL2_POOL_PFN, KCORE_PFN, MAX_PFN, PAGE_WORDS, S2_POOL_PFN,
    SMMU_POOL_PFN,
};
use crate::machine::Op;
use crate::s2page::Owner;

/// The abstract frame universe induced by the physical memory map:
/// KCore's code/data and page-table pools are hypervisor frames forever.
pub fn universe() -> AbsUniverse {
    AbsUniverse {
        frames: MAX_PFN,
        hyp: vec![KCORE_PFN, EL2_POOL_PFN, S2_POOL_PFN, SMMU_POOL_PFN],
    }
}

fn abs_owner(o: Owner) -> AbsOwner {
    match o {
        Owner::KCore => AbsOwner::Hyp,
        Owner::KServ => AbsOwner::Host,
        Owner::Vm(v) => AbsOwner::Vm(v),
    }
}

fn abs_perms(p: vrm_mmu::pte::Perms) -> AbsPerms {
    AbsPerms {
        r: p.r,
        w: p.w,
        x: p.x,
    }
}

fn project_table(
    out: &mut std::collections::BTreeMap<u64, AbsMapping>,
    mappings: &[vrm_mmu::table::Mapping],
) {
    for m in mappings {
        for (va, pa) in m.pages(PAGE_WORDS) {
            out.insert(
                va / PAGE_WORDS,
                AbsMapping {
                    frame: pfn_of(pa),
                    perms: abs_perms(m.perms),
                },
            );
        }
    }
}

/// Projects a concrete KCore state onto the abstract ownership machine.
///
/// The projection reads only what can differ from the abstract boot
/// state: of the s2page records, those that moved from their boot
/// record ([`S2PageArray::moved`](crate::s2page::S2PageArray::moved)),
/// keeping the frames that differ from [`AbsPage::DEFAULT`] (the sparse
/// form `AbsState` stores); of each table, its live entries
/// ([`PageTable::mappings`](vrm_mmu::PageTable::mappings)).
pub fn abstract_of(k: &KCore) -> AbsState {
    let mut s = AbsState {
        translation_on: k.stage2_enabled,
        dma_protected: k.smmu_enabled,
        ..Default::default()
    };
    // An unmoved record is KCore's private frame or an unshared host
    // frame, and so is a moved record that returned to either.
    for (pfn, p) in k.s2pages.moved() {
        if (p.owner == Owner::KServ && !p.shared) || is_kcore_private(pfn) {
            continue;
        }
        s.pages.insert(
            pfn,
            AbsPage {
                owner: abs_owner(p.owner),
                shared: p.shared,
            },
        );
    }
    project_table(&mut s.host, &k.kserv_s2.mappings(&k.mem));
    for vm in &k.vms {
        let mut map = std::collections::BTreeMap::new();
        project_table(&mut map, &vm.s2.mappings(&k.mem));
        if !map.is_empty() {
            s.vms.insert(vm.vmid, map);
        }
    }
    for dev in &k.devices {
        let mut map = std::collections::BTreeMap::new();
        project_table(&mut map, &dev.mappings(&k.mem));
        if !map.is_empty() {
            let who = match dev.assigned_to {
                Owner::Vm(v) => AbsActor::Vm(v),
                _ => AbsActor::Host,
            };
            s.devs.insert(dev.dev, (who, map));
        }
    }
    s
}

/// Is the frame's post-state content fully scrubbed?
fn frame_zeroed(post: &KCore, pfn: u64) -> bool {
    (0..PAGE_WORDS).all(|w| post.mem.read(page_addr(pfn) + w) == 0)
}

/// The declassification evidence carried by a VM-image mapping: the
/// post-state image content must hash to the value KServ registered
/// *before* verification. An implementation that maps an unverified
/// image produces an `Owned` claim, which makes the donation illegal.
fn image_claim(pre: &KCore, post: &KCore, vmid: u32) -> Claim {
    let Ok(vm) = pre.vm(vmid) else {
        return Claim::Owned;
    };
    let mut words = Vec::new();
    for &pfn in &vm.image_pfns {
        for w in 0..PAGE_WORDS {
            words.push(post.mem.read(page_addr(pfn) + w));
        }
    }
    if KCore::image_hash(&words) == vm.expected_hash {
        Claim::Authenticated
    } else {
        Claim::Owned
    }
}

/// A frame that cannot exist: used when a label cannot be derived (e.g.
/// a successful walk through a VA the pre-state does not translate).
/// The resulting step is guaranteed illegal, surfacing the inconsistency
/// as a refinement violation instead of hiding it.
const BAD_FRAME: u64 = u64::MAX;

fn translated_pfn(pre: &KCore, vmid: u32, gpa: u64) -> u64 {
    pre.vm(vmid)
        .ok()
        .and_then(|vm| vm.s2.translate(&pre.mem, gpa))
        .map(pfn_of)
        .unwrap_or(BAD_FRAME)
}

/// Derives the abstract steps a concrete operation claims to perform.
///
/// `vm` is the VM the executing CPU operates on (its pre-state
/// registration), `ok` whether the operation completed without a
/// hypercall error. Failed operations and pure-management operations
/// (registration, vCPU scheduling, interrupts, I/O) are stutters.
pub fn label_of(pre: &KCore, vm: Option<u32>, op: &Op, ok: bool, post: &KCore) -> Vec<AbsStep> {
    if !ok {
        return Vec::new();
    }
    let vmid = vm.unwrap_or(u32::MAX);
    match op {
        Op::VerifyImage => {
            let Ok(meta) = pre.vm(vmid) else {
                return Vec::new();
            };
            let claim = image_claim(pre, post, vmid);
            meta.image_pfns
                .iter()
                .enumerate()
                .map(|(i, &pfn)| AbsStep::Map {
                    who: AbsActor::Vm(vmid),
                    vpn: i as u64,
                    frame: pfn,
                    perms: AbsPerms::RWX,
                    claim,
                })
                .collect()
        }
        Op::Fault { gpa, donor_pfn } => {
            let claim = if frame_zeroed(post, *donor_pfn) {
                Claim::Zeroed
            } else {
                Claim::Owned
            };
            vec![AbsStep::Map {
                who: AbsActor::Vm(vmid),
                vpn: gpa / PAGE_WORDS,
                frame: *donor_pfn,
                perms: AbsPerms::RWX,
                claim,
            }]
        }
        Op::Grant { gpa } => {
            let frame = translated_pfn(pre, vmid, *gpa);
            vec![
                AbsStep::Grant { vm: vmid, frame },
                AbsStep::Map {
                    who: AbsActor::Host,
                    vpn: frame,
                    frame,
                    perms: AbsPerms::RW,
                    claim: Claim::Owned,
                },
            ]
        }
        Op::Revoke { gpa } => {
            let frame = translated_pfn(pre, vmid, *gpa);
            vec![
                AbsStep::Unmap {
                    who: AbsActor::Host,
                    vpn: frame,
                },
                AbsStep::Revoke { vm: vmid, frame },
            ]
        }
        Op::Reclaim => {
            let mut steps = Vec::new();
            if let Ok(meta) = pre.vm(vmid) {
                for m in meta.s2.mappings(&pre.mem) {
                    for (va, _) in m.pages(PAGE_WORDS) {
                        steps.push(AbsStep::Unmap {
                            who: AbsActor::Vm(vmid),
                            vpn: va / PAGE_WORDS,
                        });
                    }
                }
            }
            for pfn in pre.s2pages.owned_by(Owner::Vm(vmid)) {
                steps.push(AbsStep::Reclaim {
                    vm: vmid,
                    frame: pfn,
                    scrubbed: frame_zeroed(post, pfn),
                });
            }
            steps
        }
        Op::VmWrite { gpa, .. } => vec![AbsStep::Walk {
            who: AbsActor::Vm(vmid),
            vpn: gpa / PAGE_WORDS,
            frame: translated_pfn(pre, vmid, *gpa),
            write: true,
        }],
        Op::VmReadExpect { gpa, .. } => vec![AbsStep::Walk {
            who: AbsActor::Vm(vmid),
            vpn: gpa / PAGE_WORDS,
            frame: translated_pfn(pre, vmid, *gpa),
            write: false,
        }],
        Op::KservRead { pa, .. } | Op::KservWrite { pa, .. } => {
            let write = matches!(op, Op::KservWrite { .. });
            let pfn = pfn_of(*pa);
            let entitled = match pre.s2pages.get(pfn) {
                Ok(p) => p.owner == Owner::KServ || p.shared,
                Err(_) => false,
            };
            let pre_mapped = pre.kserv_s2.translate(&pre.mem, *pa).is_some();
            let mut steps = Vec::new();
            if !entitled && !pre_mapped {
                // The access is denied: an abstract stutter.
                return steps;
            }
            if !pre_mapped {
                // The demand fault-in KServ's stage-2 performs.
                steps.push(AbsStep::Map {
                    who: AbsActor::Host,
                    vpn: pfn,
                    frame: pfn,
                    perms: AbsPerms::RWX,
                    claim: Claim::Owned,
                });
            }
            steps.push(AbsStep::Walk {
                who: AbsActor::Host,
                vpn: pfn,
                frame: pfn,
                write,
            });
            steps
        }
        // Registration, staging, vCPU scheduling, interrupts and I/O do
        // not change translation or ownership: abstract stutters.
        Op::RegisterVm
        | Op::RegisterVcpu
        | Op::StageImage { .. }
        | Op::RunQuantum { .. }
        | Op::AttachVm { .. }
        | Op::VcpuBegin { .. }
        | Op::VcpuEnd
        | Op::Rendezvous { .. }
        | Op::UartWrite { .. }
        | Op::SendIpi { .. }
        | Op::WaitIrq { .. } => Vec::new(),
    }
}

/// Renders the first few differences between two abstract states.
fn diff(expected: &AbsState, got: &AbsState) -> String {
    let mut out = Vec::new();
    let frames: std::collections::BTreeSet<u64> = expected
        .pages
        .keys()
        .chain(got.pages.keys())
        .copied()
        .collect();
    for f in frames {
        let (e, g) = (expected.pages.get(&f), got.pages.get(&f));
        if e != g {
            out.push(format!("frame {f:#x}: spec {e:?} vs impl {g:?}"));
        }
    }
    if expected.host != got.host {
        out.push(format!(
            "host map: spec {} entries vs impl {} entries",
            expected.host.len(),
            got.host.len()
        ));
    }
    if expected.vms != got.vms {
        out.push("per-VM maps differ".to_string());
    }
    if expected.devs != got.devs {
        out.push("device maps differ".to_string());
    }
    if out.is_empty() {
        out.push("flag bits differ".to_string());
    }
    out.truncate(4);
    out.join("; ")
}

/// Checks the forward-simulation obligation for one concrete transition
/// `pre --op--> post`, returning rendered violations (empty = refines).
pub fn check_transition(
    pre: &KCore,
    vm: Option<u32>,
    op: &Op,
    ok: bool,
    post: &KCore,
) -> Vec<String> {
    let uni = universe();
    let abs_pre = abstract_of(pre);
    let abs_post = abstract_of(post);
    let mut out = Vec::new();
    let mut cur = abs_pre;
    for st in label_of(pre, vm, op, ok, post) {
        match step(&uni, &cur, &st) {
            Ok(next) => cur = next,
            Err(e) => {
                out.push(format!("illegal abstract step {st:?}: {e}"));
                break;
            }
        }
    }
    if out.is_empty() && cur != abs_post {
        out.push(format!(
            "abstract post-state mismatch: {}",
            diff(&cur, &abs_post)
        ));
    }
    for v in noninterference(&uni, &abs_post) {
        out.push(format!("noninterference violated: {v:?}"));
    }
    out
}

/// The dense projection [`abstract_of`] replaced, kept as its oracle: a
/// `get` and a `set_page` for each of the 16K frames, and a table walk
/// that reads all 512 entries of every table.
#[cfg(test)]
pub(crate) fn dense_abstract_of(k: &KCore) -> AbsState {
    use vrm_mmu::pte::{Pte, PteKind};
    use vrm_mmu::table::Mapping;
    fn collect(
        mem: &vrm_mmu::PhysMem,
        geo: vrm_mmu::Geometry,
        table: u64,
        level: u32,
        va_base: u64,
        out: &mut Vec<Mapping>,
    ) {
        let span = geo.span(level);
        for i in 0..1u64 << geo.index_bits {
            let va = va_base + i * span;
            match Pte::decode(mem.read(table + i)) {
                None => {}
                Some(p) if p.kind == PteKind::Table && level < geo.levels - 1 => {
                    collect(mem, geo, p.base, level + 1, va, out);
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
    let mappings = |t: &crate::npt::Stage2| {
        let mut out = Vec::new();
        collect(&k.mem, t.geometry(), t.root(), 0, 0, &mut out);
        out
    };
    let mut s = AbsState {
        translation_on: k.stage2_enabled,
        dma_protected: k.smmu_enabled,
        ..Default::default()
    };
    for pfn in 0..MAX_PFN {
        if is_kcore_private(pfn) {
            continue;
        }
        if let Ok(p) = k.s2pages.get(pfn) {
            s.set_page(
                pfn,
                AbsPage {
                    owner: abs_owner(p.owner),
                    shared: p.shared,
                },
            );
        }
    }
    project_table(&mut s.host, &mappings(&k.kserv_s2));
    for vm in &k.vms {
        let mut map = std::collections::BTreeMap::new();
        project_table(&mut map, &mappings(&vm.s2));
        if !map.is_empty() {
            s.vms.insert(vm.vmid, map);
        }
    }
    for dev in &k.devices {
        let mut map = std::collections::BTreeMap::new();
        project_table(&mut map, &mappings(dev.table()));
        if !map.is_empty() {
            let who = match dev.assigned_to {
                Owner::Vm(v) => AbsActor::Vm(v),
                _ => AbsActor::Host,
            };
            s.devs.insert(dev.dev, (who, map));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kcore::KCoreConfig;
    use crate::layout::{KSERV_PFN, VM_POOL_PFN};

    fn booted(k: &mut KCore, cpu: usize, base: u64) -> u32 {
        let pfns = vec![base, base + 1];
        let mut words = Vec::new();
        for &pfn in &pfns {
            for w in 0..PAGE_WORDS {
                let v = pfn * 7 + w;
                k.mem.write(page_addr(pfn) + w, v);
                words.push(v);
            }
        }
        let hash = KCore::image_hash(&words);
        let vmid = k.register_vm(cpu).unwrap();
        k.register_vcpu(cpu, vmid).unwrap();
        k.set_boot_info(cpu, vmid, pfns, hash).unwrap();
        k.remap_vm_image(cpu, vmid).unwrap();
        k.verify_vm_image(cpu, vmid).unwrap();
        vmid
    }

    /// Holds the sparse projection to the dense oracle on `k`, and
    /// says whether `k` has a non-default frame, a shared one, a host
    /// mapping and a device mapping.
    fn projects_as_dense(k: &KCore, at: &str) -> [bool; 4] {
        let s = abstract_of(k);
        assert_eq!(s, dense_abstract_of(k), "{at}");
        [
            !s.pages.is_empty(),
            s.pages.values().any(|p| p.shared),
            !s.host.is_empty(),
            !s.devs.is_empty(),
        ]
    }

    #[test]
    fn projection_oracle_holds_on_seeded_runs_under_every_mutant() {
        // The refinement mutants (`reclaim_leaks_ownership`,
        // `revoke_keeps_share`, `revoke_skips_unmap`,
        // `skip_ownership_check`, `skip_scrub_on_reclaim`) among them.
        let configs = std::iter::once(("default", KCoreConfig::default()))
            .chain(crate::mutants::all().into_iter().map(|m| (m.name, m.cfg)));
        let mut seen = [false; 4];
        for (config, cfg) in configs {
            for &name in crate::workloads::NAMES {
                let scripts = crate::workloads::by_name(name).expect("registered workload");
                for seed in 0..2 {
                    // `run(1)` continues the seeded schedule one step at
                    // a time: every prefix is checked.
                    let mut m = crate::machine::Machine::new(cfg, scripts.clone(), seed);
                    for step in 0..400 {
                        let at = format!("{config}, {name}, seed {seed}, step {step}");
                        let has = projects_as_dense(&m.kcore, &at);
                        for (s, h) in seen.iter_mut().zip(has) {
                            *s |= h;
                        }
                        if m.run(1).steps == 0 {
                            break;
                        }
                    }
                }
            }
        }
        assert_eq!(
            seen[..3],
            [true; 3],
            "non-default, shared and host-mapped frames"
        );
    }

    #[test]
    fn projection_oracle_holds_with_a_device_mapping() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = booted(&mut k, 0, VM_POOL_PFN.0);
        k.assign_smmu_dev(0, 0, Owner::Vm(vmid)).unwrap();
        k.smmu_map(0, 0, 0, VM_POOL_PFN.0).unwrap();
        let [_, _, _, device_mapped] = projects_as_dense(&k, "VM device mapping");
        assert!(device_mapped);
        k.smmu_map(0, 1, 2 * PAGE_WORDS, KSERV_PFN.0).unwrap();
        projects_as_dense(&k, "host device mapping");
    }

    #[test]
    fn boot_projects_to_the_abstract_boot_state() {
        let k = KCore::boot(KCoreConfig::default());
        assert_eq!(abstract_of(&k), AbsState::boot());
    }

    #[test]
    fn projection_tracks_ownership_and_maps() {
        let mut k = KCore::boot(KCoreConfig::default());
        let vmid = booted(&mut k, 0, VM_POOL_PFN.0);
        let s = abstract_of(&k);
        assert_eq!(s.page(&universe(), VM_POOL_PFN.0).owner, AbsOwner::Vm(vmid));
        let map = s.map_of(AbsActor::Vm(vmid));
        assert_eq!(map.get(&0).map(|m| m.frame), Some(VM_POOL_PFN.0));
        assert_eq!(map.get(&1).map(|m| m.frame), Some(VM_POOL_PFN.0 + 1));
        assert!(noninterference(&universe(), &s).is_empty());
    }

    #[test]
    fn registration_is_a_stutter_and_boot_roundtrips_reclaim() {
        let mut k = KCore::boot(KCoreConfig::default());
        let before = abstract_of(&k);
        let vmid = k.register_vm(0).unwrap();
        k.register_vcpu(0, vmid).unwrap();
        // Registration created concrete state (VM metadata, an empty
        // stage-2 root) but no abstract state.
        assert_eq!(abstract_of(&k), before);
        // A full boot + reclaim returns to the abstract boot state even
        // though the concrete state (destroyed VM metadata, consumed
        // pool pages, logs) is permanently different.
        let vmid = booted(&mut k, 0, VM_POOL_PFN.0);
        k.reclaim_vm_pages(0, vmid).unwrap();
        assert_eq!(abstract_of(&k), before);
    }

    #[test]
    fn verify_image_transition_refines() {
        let mut k = KCore::boot(KCoreConfig::default());
        let pfns = vec![VM_POOL_PFN.0, VM_POOL_PFN.0 + 1];
        let mut words = Vec::new();
        for &pfn in &pfns {
            for w in 0..PAGE_WORDS {
                let v = pfn * 7 + w;
                k.mem.write(page_addr(pfn) + w, v);
                words.push(v);
            }
        }
        let hash = KCore::image_hash(&words);
        let vmid = k.register_vm(0).unwrap();
        k.register_vcpu(0, vmid).unwrap();
        k.set_boot_info(0, vmid, pfns, hash).unwrap();
        k.remap_vm_image(0, vmid).unwrap();
        let pre = k.clone();
        k.verify_vm_image(0, vmid).unwrap();
        let v = check_transition(&pre, Some(vmid), &Op::VerifyImage, true, &k);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_skipped_scrub_is_not_a_legal_reclaim() {
        let mut k = KCore::boot(KCoreConfig {
            skip_scrub_on_reclaim: true,
            ..Default::default()
        });
        let vmid = booted(&mut k, 0, VM_POOL_PFN.0);
        let pre = k.clone();
        k.reclaim_vm_pages(0, vmid).unwrap();
        let v = check_transition(&pre, Some(vmid), &Op::Reclaim, true, &k);
        assert!(
            v.iter().any(|s| s.contains("unscrubbed")),
            "expected an unscrubbed-reclaim violation, got {v:?}"
        );
    }
}
