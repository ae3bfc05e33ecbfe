//! The abstract ownership machine — the refinement spec for the SeKVM
//! model (§5.2–5.3 of the paper).
//!
//! SeKVM's security theorem is *not* proved against the concrete KCore
//! implementation directly. Instead the paper states a small abstract
//! machine — per-principal VA→frame maps, a per-frame owner, a shared
//! bit — proves noninterference of that machine once and for all, and
//! then shows the concrete implementation *refines* it: every concrete
//! transition projects to a legal abstract step (or a stutter). This
//! crate is that abstract machine, reproduced executably:
//!
//! * [`AbsState`] — the abstract state: page ownership ([`AbsPage`]) and
//!   one sparse VA→frame map per principal, nothing else. Lock tickets,
//!   page-table layout, TLBs, map counts and memory *contents* are all
//!   refined away.
//! * [`AbsStep`] — the step relation: `map`, `unmap`, `grant`, `revoke`,
//!   `reclaim` and `walk`, with declassification evidence ([`Claim`])
//!   where the paper's proofs use data oracles (scrubbing, image
//!   authentication).
//! * [`step`] — the legality judgment + transition function.
//! * [`noninterference`] — the security predicate over abstract states,
//!   from which the concrete invariant sweeps in `vrm-sekvm::security`
//!   are re-derived as corollaries.
//! * [`AbsSpace`] — an exploration space over `vrm-explore`, so abstract
//!   programs can be enumerated exhaustively and their state counts
//!   compared against concrete schedule exploration (they are orders of
//!   magnitude smaller — that gap is the point of the abstraction).
//!
//! The projection from the concrete `KCore` and the per-transition label
//! function live in `vrm-sekvm::refine`; this crate deliberately knows
//! nothing about the concrete machine, so the spec cannot be
//! accidentally entangled with the implementation it judges.

#![deny(missing_docs)]

use std::collections::BTreeMap;

use vrm_explore::{Sink, StateSpace};

// --- actors, owners, permissions ------------------------------------

/// A principal that owns translation state: the host (KServ) or a VM.
///
/// The hypervisor itself ([`AbsOwner::Hyp`]) owns frames but has no
/// abstract VA map — its private translation (EL2) is invisible to
/// untrusted principals and is refined away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbsActor {
    /// The untrusted host OS (KServ).
    Host,
    /// A guest VM.
    Vm(u32),
}

/// The owner of one physical frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbsOwner {
    /// The hypervisor's private memory: never mappable by any actor.
    Hyp,
    /// The host OS.
    Host,
    /// A guest VM.
    Vm(u32),
}

impl AbsOwner {
    /// The owner an actor's mappings must agree with.
    pub fn of_actor(a: AbsActor) -> AbsOwner {
        match a {
            AbsActor::Host => AbsOwner::Host,
            AbsActor::Vm(v) => AbsOwner::Vm(v),
        }
    }
}

/// Abstract access permissions on a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AbsPerms {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
}

impl AbsPerms {
    /// Read-write-execute.
    pub const RWX: AbsPerms = AbsPerms {
        r: true,
        w: true,
        x: true,
    };
    /// Read-write.
    pub const RW: AbsPerms = AbsPerms {
        r: true,
        w: true,
        x: false,
    };
    /// Read-only.
    pub const RO: AbsPerms = AbsPerms {
        r: true,
        w: false,
        x: false,
    };
}

// --- the abstract state ---------------------------------------------

/// Per-frame abstract ownership state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AbsPage {
    /// Current owner.
    pub owner: AbsOwner,
    /// Shared with the host (grant/revoke window).
    pub shared: bool,
}

impl AbsPage {
    /// The boot-time state of every non-hypervisor frame.
    pub const DEFAULT: AbsPage = AbsPage {
        owner: AbsOwner::Host,
        shared: false,
    };
}

/// One entry in an actor's VA→frame map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AbsMapping {
    /// Target physical frame.
    pub frame: u64,
    /// Access permissions.
    pub perms: AbsPerms,
}

/// The static shape of the abstract machine: how many frames exist and
/// which of them are hypervisor-private. This never changes at runtime,
/// so it is configuration, not state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsUniverse {
    /// Total number of physical frames.
    pub frames: u64,
    /// Half-open frame ranges owned by the hypervisor forever.
    pub hyp: Vec<(u64, u64)>,
}

impl AbsUniverse {
    /// Is the frame hypervisor-private?
    pub fn is_hyp(&self, frame: u64) -> bool {
        self.hyp.iter().any(|&(lo, hi)| frame >= lo && frame < hi)
    }
}

/// The abstract machine state.
///
/// Both page and mapping tables are *sparse*: `pages` holds only frames
/// that deviate from [`AbsPage::DEFAULT`], and empty per-VM maps are
/// dropped. This canonical form is what makes stuttering precise — a
/// concrete transition that only touches refined-away state (locks, VM
/// metadata, memory contents) projects to a bit-identical `AbsState`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AbsState {
    /// Stage-2 translation is enforced for every actor.
    pub translation_on: bool,
    /// DMA goes through hypervisor-controlled translation.
    pub dma_protected: bool,
    /// Frames deviating from [`AbsPage::DEFAULT`] (hyp frames excluded —
    /// they are fixed by the [`AbsUniverse`]).
    pub pages: BTreeMap<u64, AbsPage>,
    /// The host's VA→frame map.
    pub host: BTreeMap<u64, AbsMapping>,
    /// Per-VM VA→frame maps (no empty maps are stored).
    pub vms: BTreeMap<u32, BTreeMap<u64, AbsMapping>>,
    /// Per-device DMA maps with the principal each device serves
    /// (devices with empty maps are not stored).
    pub devs: BTreeMap<u32, (AbsActor, BTreeMap<u64, AbsMapping>)>,
}

impl AbsState {
    /// The boot state: translation on, no mappings, every frame at its
    /// default owner.
    pub fn boot() -> AbsState {
        AbsState {
            translation_on: true,
            dma_protected: true,
            ..Default::default()
        }
    }

    /// The ownership state of a frame (hyp frames are pinned by the
    /// universe and never appear in `pages`).
    pub fn page(&self, uni: &AbsUniverse, frame: u64) -> AbsPage {
        if uni.is_hyp(frame) {
            return AbsPage {
                owner: AbsOwner::Hyp,
                shared: false,
            };
        }
        self.pages.get(&frame).copied().unwrap_or(AbsPage::DEFAULT)
    }

    /// Stores a frame's state, keeping the sparse map canonical.
    pub fn set_page(&mut self, frame: u64, page: AbsPage) {
        if page == AbsPage::DEFAULT {
            self.pages.remove(&frame);
        } else {
            self.pages.insert(frame, page);
        }
    }

    /// An actor's map (empty for actors with no stored map).
    pub fn map_of(&self, who: AbsActor) -> &BTreeMap<u64, AbsMapping> {
        static EMPTY: BTreeMap<u64, AbsMapping> = BTreeMap::new();
        match who {
            AbsActor::Host => &self.host,
            AbsActor::Vm(v) => self.vms.get(&v).unwrap_or(&EMPTY),
        }
    }

    /// Inserts a mapping into an actor's map.
    pub fn insert_mapping(&mut self, who: AbsActor, vpn: u64, m: AbsMapping) {
        match who {
            AbsActor::Host => {
                self.host.insert(vpn, m);
            }
            AbsActor::Vm(v) => {
                self.vms.entry(v).or_default().insert(vpn, m);
            }
        }
    }

    /// Removes a mapping, dropping now-empty per-VM maps to keep the
    /// state canonical.
    pub fn remove_mapping(&mut self, who: AbsActor, vpn: u64) -> Option<AbsMapping> {
        match who {
            AbsActor::Host => self.host.remove(&vpn),
            AbsActor::Vm(v) => {
                let map = self.vms.get_mut(&v)?;
                let removed = map.remove(&vpn);
                if map.is_empty() {
                    self.vms.remove(&v);
                }
                removed
            }
        }
    }

    /// Is the frame the target of *any* mapping (host, VM or device)?
    pub fn mapped_anywhere(&self, frame: u64) -> bool {
        self.host.values().any(|m| m.frame == frame)
            || self
                .vms
                .values()
                .any(|t| t.values().any(|m| m.frame == frame))
            || self
                .devs
                .values()
                .any(|(_, t)| t.values().any(|m| m.frame == frame))
    }
}

// --- the step relation ----------------------------------------------

/// Declassification evidence attached to a [`AbsStep::Map`].
///
/// The paper's noninterference proof masks two information flows with
/// data oracles: freshly donated frames are *scrubbed* before a VM can
/// see them, and VM boot images are *authenticated* before they run. A
/// map step that moves a frame across the host/VM boundary is only
/// legal when it carries the corresponding evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Claim {
    /// The actor already owns (or is entitled to) the frame; no
    /// boundary is crossed.
    Owned,
    /// The frame's contents were zeroed before the mapping appeared.
    Zeroed,
    /// The frame holds an image whose hash was verified against the
    /// value registered before the mapping appeared.
    Authenticated,
}

/// One step of the abstract machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbsStep {
    /// `who` gains `vpn → frame` with `perms`; donation from the host
    /// to a VM requires declassification evidence in `claim`.
    Map {
        /// Mapping actor.
        who: AbsActor,
        /// Virtual page number.
        vpn: u64,
        /// Target frame.
        frame: u64,
        /// Permissions.
        perms: AbsPerms,
        /// Declassification evidence.
        claim: Claim,
    },
    /// `who` loses its mapping at `vpn`.
    Unmap {
        /// Unmapping actor.
        who: AbsActor,
        /// Virtual page number.
        vpn: u64,
    },
    /// VM `vm` opens a sharing window on a frame it owns.
    Grant {
        /// Granting VM.
        vm: u32,
        /// Shared frame.
        frame: u64,
    },
    /// VM `vm` closes the sharing window (the host must already have
    /// unmapped the frame).
    Revoke {
        /// Revoking VM.
        vm: u32,
        /// Unshared frame.
        frame: u64,
    },
    /// A frame owned by `vm` returns to the host. Legal only when the
    /// frame is mapped nowhere and its contents were scrubbed.
    Reclaim {
        /// Previous owner.
        vm: u32,
        /// Reclaimed frame.
        frame: u64,
        /// Scrub evidence (the data oracle for confidentiality).
        scrubbed: bool,
    },
    /// `who` performs a read (`write = false`) or write through its map
    /// at `vpn`, reaching `frame`. Leaves the state unchanged; legal
    /// only if the mapping exists with sufficient permissions.
    Walk {
        /// Accessing actor.
        who: AbsActor,
        /// Virtual page number.
        vpn: u64,
        /// Frame the access must reach.
        frame: u64,
        /// Whether the access writes.
        write: bool,
    },
}

/// Why a step was illegal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepError {
    /// The frame does not exist or is hypervisor-private.
    BadFrame(u64),
    /// The VA is already mapped by this actor.
    AlreadyMapped(AbsActor, u64),
    /// The VA is not mapped by this actor.
    NotMapped(AbsActor, u64),
    /// The actor may not map this frame (wrong owner / not shared).
    NotEntitled(AbsActor, u64, AbsOwner),
    /// A host→VM donation without scrub or authentication evidence.
    UndeclassifiedDonation(u32, u64),
    /// The frame is still mapped somewhere, so ownership cannot move.
    StillMapped(u64),
    /// A reclaim without scrub evidence (would leak VM data).
    Unscrubbed(u64),
    /// A grant/revoke/reclaim on a frame the VM does not own.
    NotOwner(u32, u64, AbsOwner),
    /// A walk reached the wrong frame or lacked permission.
    BadWalk(AbsActor, u64),
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::BadFrame(fr) => write!(f, "frame {fr:#x} unusable"),
            StepError::AlreadyMapped(w, v) => write!(f, "{w:?} already maps vpn {v:#x}"),
            StepError::NotMapped(w, v) => write!(f, "{w:?} does not map vpn {v:#x}"),
            StepError::NotEntitled(w, fr, o) => {
                write!(f, "{w:?} may not map frame {fr:#x} owned by {o:?}")
            }
            StepError::UndeclassifiedDonation(vm, fr) => {
                write!(f, "donation of frame {fr:#x} to VM {vm} without evidence")
            }
            StepError::StillMapped(fr) => write!(f, "frame {fr:#x} still mapped"),
            StepError::Unscrubbed(fr) => write!(f, "frame {fr:#x} reclaimed unscrubbed"),
            StepError::NotOwner(vm, fr, o) => {
                write!(f, "VM {vm} does not own frame {fr:#x} (owner {o:?})")
            }
            StepError::BadWalk(w, v) => write!(f, "illegal walk by {w:?} at vpn {v:#x}"),
        }
    }
}

/// Applies one abstract step, returning the successor state or why the
/// step is illegal. [`AbsStep::Walk`] steps leave the state unchanged.
pub fn step(uni: &AbsUniverse, s: &AbsState, st: &AbsStep) -> Result<AbsState, StepError> {
    let mut next = s.clone();
    match *st {
        AbsStep::Map {
            who,
            vpn,
            frame,
            perms,
            claim,
        } => {
            if frame >= uni.frames || uni.is_hyp(frame) {
                return Err(StepError::BadFrame(frame));
            }
            if s.map_of(who).contains_key(&vpn) {
                return Err(StepError::AlreadyMapped(who, vpn));
            }
            let page = s.page(uni, frame);
            match who {
                AbsActor::Host => {
                    // The host may map what it owns or what is shared
                    // with it.
                    if page.owner != AbsOwner::Host && !page.shared {
                        return Err(StepError::NotEntitled(who, frame, page.owner));
                    }
                }
                AbsActor::Vm(v) => {
                    if page.owner == AbsOwner::Vm(v) {
                        // Mapping its own frame: always fine.
                    } else if page.owner == AbsOwner::Host && !page.shared {
                        // Host→VM donation: the frame must be mapped
                        // nowhere and carry declassification evidence.
                        if s.mapped_anywhere(frame) {
                            return Err(StepError::StillMapped(frame));
                        }
                        if !matches!(claim, Claim::Zeroed | Claim::Authenticated) {
                            return Err(StepError::UndeclassifiedDonation(v, frame));
                        }
                        next.set_page(
                            frame,
                            AbsPage {
                                owner: AbsOwner::Vm(v),
                                shared: false,
                            },
                        );
                    } else {
                        return Err(StepError::NotEntitled(who, frame, page.owner));
                    }
                }
            }
            next.insert_mapping(who, vpn, AbsMapping { frame, perms });
        }
        AbsStep::Unmap { who, vpn } => {
            if next.remove_mapping(who, vpn).is_none() {
                return Err(StepError::NotMapped(who, vpn));
            }
        }
        AbsStep::Grant { vm, frame } => {
            let page = s.page(uni, frame);
            if page.owner != AbsOwner::Vm(vm) {
                return Err(StepError::NotOwner(vm, frame, page.owner));
            }
            next.set_page(
                frame,
                AbsPage {
                    shared: true,
                    ..page
                },
            );
        }
        AbsStep::Revoke { vm, frame } => {
            let page = s.page(uni, frame);
            if page.owner != AbsOwner::Vm(vm) {
                return Err(StepError::NotOwner(vm, frame, page.owner));
            }
            // The sharing window only closes once the host's view is
            // gone — a revoke that leaves the host mapping in place
            // would be a stale-translation hole.
            if s.host.values().any(|m| m.frame == frame) {
                return Err(StepError::StillMapped(frame));
            }
            next.set_page(
                frame,
                AbsPage {
                    shared: false,
                    ..page
                },
            );
        }
        AbsStep::Reclaim {
            vm,
            frame,
            scrubbed,
        } => {
            let page = s.page(uni, frame);
            if page.owner != AbsOwner::Vm(vm) {
                return Err(StepError::NotOwner(vm, frame, page.owner));
            }
            if s.mapped_anywhere(frame) {
                return Err(StepError::StillMapped(frame));
            }
            if !scrubbed {
                return Err(StepError::Unscrubbed(frame));
            }
            next.set_page(frame, AbsPage::DEFAULT);
        }
        AbsStep::Walk {
            who,
            vpn,
            frame,
            write,
        } => {
            let Some(m) = s.map_of(who).get(&vpn) else {
                return Err(StepError::NotMapped(who, vpn));
            };
            let allowed = m.frame == frame && (if write { m.perms.w } else { m.perms.r });
            if !allowed {
                return Err(StepError::BadWalk(who, vpn));
            }
            // Ownership consistency: reads/writes only land on frames
            // the actor is entitled to see (noninterference would flag
            // the mapping too; the walk check localises the fault).
            let page = s.page(uni, frame);
            let entitled =
                page.owner == AbsOwner::of_actor(who) || (who == AbsActor::Host && page.shared);
            if !entitled {
                return Err(StepError::BadWalk(who, vpn));
            }
        }
    }
    Ok(next)
}

// --- noninterference ------------------------------------------------

/// A table whose mappings violated noninterference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbsTable {
    /// The host's map.
    Host,
    /// A VM's map.
    Vm(u32),
    /// A device's DMA map.
    Dev(u32),
}

/// One noninterference violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NiViolation {
    /// Stage-2 translation is off: actors address physical memory raw.
    TranslationOff,
    /// DMA is untranslated.
    DmaUnprotected,
    /// A hypervisor-private frame is visible to an actor.
    HypFrameMapped {
        /// Offending table.
        table: AbsTable,
        /// Mapped frame.
        frame: u64,
    },
    /// A mapping disagrees with frame ownership.
    OwnershipMismatch {
        /// Offending table.
        table: AbsTable,
        /// Mapped frame.
        frame: u64,
        /// The frame's recorded owner.
        owner: AbsOwner,
    },
}

/// The noninterference predicate (§5.3): each actor's map reaches only
/// frames it owns (the host additionally: frames shared with it), no
/// actor reaches hypervisor frames, and translation stays on. A state
/// satisfying this gives actors disjoint views up to explicit sharing —
/// the isolation theorem is a corollary.
pub fn noninterference(uni: &AbsUniverse, s: &AbsState) -> Vec<NiViolation> {
    let mut out = Vec::new();
    if !s.translation_on {
        out.push(NiViolation::TranslationOff);
    }
    if !s.dma_protected {
        out.push(NiViolation::DmaUnprotected);
    }
    let mut check =
        |table: AbsTable, owner_ok: &dyn Fn(AbsPage) -> bool, map: &BTreeMap<u64, AbsMapping>| {
            for m in map.values() {
                if uni.is_hyp(m.frame) {
                    out.push(NiViolation::HypFrameMapped {
                        table,
                        frame: m.frame,
                    });
                    continue;
                }
                let page = s.page(uni, m.frame);
                if !owner_ok(page) {
                    out.push(NiViolation::OwnershipMismatch {
                        table,
                        frame: m.frame,
                        owner: page.owner,
                    });
                }
            }
        };
    check(
        AbsTable::Host,
        &|p| p.owner == AbsOwner::Host || p.shared,
        &s.host,
    );
    for (&v, map) in &s.vms {
        check(AbsTable::Vm(v), &|p| p.owner == AbsOwner::Vm(v), map);
    }
    for (&d, (who, map)) in &s.devs {
        let want = AbsOwner::of_actor(*who);
        check(AbsTable::Dev(d), &|p| p.owner == want, map);
    }
    out
}

// --- abstract exploration -------------------------------------------

/// A concurrent abstract program: one step sequence per thread.
#[derive(Debug, Clone)]
pub struct AbsProgram {
    /// Per-thread step sequences.
    pub threads: Vec<Vec<AbsStep>>,
}

/// What a terminal abstract execution observed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum AbsOutcome {
    /// Every interleaving step was legal and the final state satisfies
    /// noninterference.
    Clean,
    /// A thread attempted an illegal step (rendered).
    IllegalStep(String),
    /// The final state violated noninterference (rendered).
    Insecure(String),
}

/// Exhaustive interleaving exploration of an [`AbsProgram`] over the
/// shared engine. The state is just `(AbsState, per-thread pc)` — no
/// locks, tickets, logs or memory images — which is why abstract
/// exploration is orders of magnitude smaller than the concrete
/// schedule walk for the same scenario.
#[derive(Debug, Clone)]
pub struct AbsSpace {
    /// The frame universe.
    pub uni: AbsUniverse,
    /// The initial state.
    pub init: AbsState,
    /// The program.
    pub prog: AbsProgram,
}

/// One node of the abstract interleaving walk.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AbsNode {
    /// Current abstract state.
    pub state: AbsState,
    /// Per-thread program counters.
    pub pcs: Vec<usize>,
}

impl StateSpace for AbsSpace {
    type State = AbsNode;
    type Emit = AbsOutcome;

    fn initial(&self) -> Vec<AbsNode> {
        vec![AbsNode {
            state: self.init.clone(),
            pcs: vec![0; self.prog.threads.len()],
        }]
    }

    fn expand(&self, node: &AbsNode, sink: &mut Sink<AbsNode, AbsOutcome>) {
        let mut terminal = true;
        for (t, thread) in self.prog.threads.iter().enumerate() {
            let pc = node.pcs[t];
            if pc >= thread.len() {
                continue;
            }
            terminal = false;
            match step(&self.uni, &node.state, &thread[pc]) {
                Ok(state) => {
                    let mut pcs = node.pcs.clone();
                    pcs[t] += 1;
                    sink.push(AbsNode { state, pcs });
                }
                Err(e) => sink.emit(AbsOutcome::IllegalStep(format!(
                    "thread {t} step {pc}: {e}"
                ))),
            }
        }
        if terminal {
            let ni = noninterference(&self.uni, &node.state);
            sink.emit(if ni.is_empty() {
                AbsOutcome::Clean
            } else {
                AbsOutcome::Insecure(format!("{ni:?}"))
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uni() -> AbsUniverse {
        AbsUniverse {
            frames: 0x100,
            hyp: vec![(0, 0x10)],
        }
    }

    fn donate(s: &AbsState, vm: u32, vpn: u64, frame: u64) -> Result<AbsState, StepError> {
        step(
            &uni(),
            s,
            &AbsStep::Map {
                who: AbsActor::Vm(vm),
                vpn,
                frame,
                perms: AbsPerms::RWX,
                claim: Claim::Zeroed,
            },
        )
    }

    #[test]
    fn donation_moves_ownership_and_requires_evidence() {
        let s = AbsState::boot();
        let s2 = donate(&s, 1, 0, 0x20).unwrap();
        assert_eq!(
            s2.page(&uni(), 0x20).owner,
            AbsOwner::Vm(1),
            "donation transfers ownership"
        );
        // Without evidence the same step is illegal.
        let bad = step(
            &uni(),
            &s,
            &AbsStep::Map {
                who: AbsActor::Vm(1),
                vpn: 0,
                frame: 0x20,
                perms: AbsPerms::RWX,
                claim: Claim::Owned,
            },
        );
        assert_eq!(bad, Err(StepError::UndeclassifiedDonation(1, 0x20)));
    }

    #[test]
    fn host_cannot_map_vm_frames_unless_shared() {
        let s = donate(&AbsState::boot(), 1, 0, 0x20).unwrap();
        let host_map = AbsStep::Map {
            who: AbsActor::Host,
            vpn: 0x20,
            frame: 0x20,
            perms: AbsPerms::RW,
            claim: Claim::Owned,
        };
        assert!(matches!(
            step(&uni(), &s, &host_map),
            Err(StepError::NotEntitled(..))
        ));
        let shared = step(&uni(), &s, &AbsStep::Grant { vm: 1, frame: 0x20 }).unwrap();
        let s2 = step(&uni(), &shared, &host_map).unwrap();
        assert!(noninterference(&uni(), &s2).is_empty());
    }

    #[test]
    fn revoke_requires_host_unmap_first() {
        let s = donate(&AbsState::boot(), 1, 0, 0x20).unwrap();
        let s = step(&uni(), &s, &AbsStep::Grant { vm: 1, frame: 0x20 }).unwrap();
        let s = step(
            &uni(),
            &s,
            &AbsStep::Map {
                who: AbsActor::Host,
                vpn: 0x20,
                frame: 0x20,
                perms: AbsPerms::RW,
                claim: Claim::Owned,
            },
        )
        .unwrap();
        assert_eq!(
            step(&uni(), &s, &AbsStep::Revoke { vm: 1, frame: 0x20 }),
            Err(StepError::StillMapped(0x20))
        );
        let s = step(
            &uni(),
            &s,
            &AbsStep::Unmap {
                who: AbsActor::Host,
                vpn: 0x20,
            },
        )
        .unwrap();
        let s = step(&uni(), &s, &AbsStep::Revoke { vm: 1, frame: 0x20 }).unwrap();
        assert!(!s.page(&uni(), 0x20).shared);
    }

    #[test]
    fn reclaim_requires_scrub_and_no_mappings() {
        let s = donate(&AbsState::boot(), 1, 0, 0x20).unwrap();
        assert_eq!(
            step(
                &uni(),
                &s,
                &AbsStep::Reclaim {
                    vm: 1,
                    frame: 0x20,
                    scrubbed: true
                }
            ),
            Err(StepError::StillMapped(0x20))
        );
        let s = step(
            &uni(),
            &s,
            &AbsStep::Unmap {
                who: AbsActor::Vm(1),
                vpn: 0,
            },
        )
        .unwrap();
        assert_eq!(
            step(
                &uni(),
                &s,
                &AbsStep::Reclaim {
                    vm: 1,
                    frame: 0x20,
                    scrubbed: false
                }
            ),
            Err(StepError::Unscrubbed(0x20))
        );
        let s = step(
            &uni(),
            &s,
            &AbsStep::Reclaim {
                vm: 1,
                frame: 0x20,
                scrubbed: true,
            },
        )
        .unwrap();
        // Back to the boot state: the sparse maps are canonical.
        assert_eq!(s, AbsState::boot());
    }

    #[test]
    fn walk_enforces_perms_and_ownership() {
        let s = donate(&AbsState::boot(), 1, 4, 0x21).unwrap();
        let ok = AbsStep::Walk {
            who: AbsActor::Vm(1),
            vpn: 4,
            frame: 0x21,
            write: true,
        };
        assert!(step(&uni(), &s, &ok).is_ok());
        assert!(matches!(
            step(
                &uni(),
                &s,
                &AbsStep::Walk {
                    who: AbsActor::Vm(1),
                    vpn: 5,
                    frame: 0x21,
                    write: false
                }
            ),
            Err(StepError::NotMapped(..))
        ));
    }

    #[test]
    fn hyp_frames_are_unmappable_and_flagged() {
        let s = AbsState::boot();
        assert_eq!(donate(&s, 1, 0, 0x5), Err(StepError::BadFrame(0x5)));
        // Even a forged state is caught by noninterference.
        let mut forged = s;
        forged.insert_mapping(
            AbsActor::Host,
            0x5,
            AbsMapping {
                frame: 0x5,
                perms: AbsPerms::RO,
            },
        );
        assert!(noninterference(&uni(), &forged)
            .iter()
            .any(|v| matches!(v, NiViolation::HypFrameMapped { .. })));
    }

    #[test]
    fn abstract_exploration_is_small_and_clean() {
        // Two independent donation threads: the diamond interleaving
        // lattice has (2+2 choose 2) = 6 interior nodes + terminals.
        let prog = AbsProgram {
            threads: vec![
                vec![
                    AbsStep::Map {
                        who: AbsActor::Vm(1),
                        vpn: 0,
                        frame: 0x20,
                        perms: AbsPerms::RWX,
                        claim: Claim::Zeroed,
                    },
                    AbsStep::Unmap {
                        who: AbsActor::Vm(1),
                        vpn: 0,
                    },
                ],
                vec![
                    AbsStep::Map {
                        who: AbsActor::Vm(2),
                        vpn: 0,
                        frame: 0x30,
                        perms: AbsPerms::RWX,
                        claim: Claim::Zeroed,
                    },
                    AbsStep::Unmap {
                        who: AbsActor::Vm(2),
                        vpn: 0,
                    },
                ],
            ],
        };
        let space = AbsSpace {
            uni: uni(),
            init: AbsState::boot(),
            prog,
        };
        let cfg = vrm_explore::ExploreConfig::with_max_states(1024);
        let ex = vrm_explore::explore(&space, &cfg, None);
        assert!(ex.stats.completeness.is_exhaustive());
        assert_eq!(ex.stats.states, 9, "3x3 pc lattice, states dedup by pcs");
        assert!(ex.emits.iter().all(|o| *o == AbsOutcome::Clean));
    }
}
