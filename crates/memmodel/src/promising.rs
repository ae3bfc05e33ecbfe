//! The Promising Arm operational model (Pulte et al., PLDI 2019), extended
//! with the MMU/TLB behaviour modelled by the VRM paper and with the ghost
//! push/pull ownership machinery of VRM's push/pull Promising model (§4.1).
//!
//! # Model summary
//!
//! Memory is a growing list of *messages* `⟨loc, val, tid⟩`; a message's
//! timestamp is its 1-based index (timestamp 0 denotes the initial memory).
//! Threads execute their instructions *in order* but relaxed behaviour
//! arises from two mechanisms:
//!
//! * **views** — each thread tracks per-location coherence views `coh(x)`
//!   and the views `vrOld/vwOld` (past reads/writes), `vrNew/vwNew`
//!   (barrier-imposed floors for future reads/writes), `vCAP` (address and
//!   control dependencies), and `vRel` (last release write). A read may
//!   return any sufficiently-recent message: stale values model read-read
//!   reordering, and barriers/acquire-release constrain staleness exactly
//!   as Armv8's `dob`/`bob` relations demand;
//! * **promises** — a thread may append a message for a store it has not
//!   yet executed, letting other threads read it "early" (modelling
//!   store-load reordering such as load buffering, Example 1 of the paper).
//!   Every promise must remain *certifiable*: the promising thread, running
//!   solo without further promises, must be able to fulfil it.
//!
//! The MMU extension gives each CPU a TLB and performs page-table walks as
//! relaxed reads chained by address dependencies. A broadcast `TLBI`
//! carries the issuing thread's barrier views and imposes them as a floor
//! on subsequent walks of the invalidated pages — capturing precisely why
//! Sequential-TLB-Invalidation (unmap, *barrier*, TLBI) is required
//! (Example 6).
//!
//! Exhaustive enumeration with state memoization yields the complete set of
//! observable outcomes, cross-validated against the independent
//! [`axiomatic`](crate::axiomatic) implementation in `litmus::conformance`.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use vrm_explore::{digest128, ExploreConfig, Footprint, Sink, StateSpace};

use crate::ir::{Addr, Expr, Fence, Inst, Observable, Program, Val};
use crate::outcome::{Outcome, OutcomeSet, ThreadExit};
use crate::sc::ExploreError;
use crate::symm;
use crate::values::{analyze, ValueAnalysis, ValueConfig};

/// Promise certifications attempted (each is its own bounded engine
/// sub-exploration); surfaced in `vrm-obs` metrics snapshots.
static OBS_CERTIFICATIONS: vrm_obs::Counter = vrm_obs::Counter::new("promising.certifications");
/// Certifications that failed or were inconclusive — the promise was
/// refused. The gap between this and `promising.certifications` is the
/// accepted-promise rate.
static OBS_CERT_REFUSED: vrm_obs::Counter = vrm_obs::Counter::new("promising.cert_refused");

/// A timestamp into the message list (0 = initial memory).
pub type Ts = u32;

/// A view: a lower bound on timestamps, as a timestamp.
pub type View = u32;

/// One message in the global memory (promise list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Msg {
    /// Location written.
    pub loc: Addr,
    /// Value written.
    pub val: Val,
    /// Writing (or promising) thread.
    pub tid: usize,
}

/// Push/pull ownership violations detected by the ghost machinery.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GhostViolation {
    /// A `Pull` targeted a location already owned (by anyone).
    PullOwned {
        /// The pulling thread.
        tid: usize,
        /// The contended location.
        loc: Addr,
        /// The current owner.
        owner: usize,
    },
    /// A `Push` targeted a location not owned by the pushing thread.
    PushNotOwned {
        /// The pushing thread.
        tid: usize,
        /// The location.
        loc: Addr,
    },
    /// A data access to a location owned by a different thread.
    AccessNotOwner {
        /// The accessing thread.
        tid: usize,
        /// The location.
        loc: Addr,
        /// The owner.
        owner: usize,
    },
    /// A data access to a *declared shared* location while not owning it.
    UnprotectedShared {
        /// The accessing thread.
        tid: usize,
        /// The location.
        loc: Addr,
    },
    /// A `Pull` not covered by an acquire-flavoured barrier
    /// (No-Barrier-Misuse).
    PullWithoutBarrier {
        /// The pulling thread.
        tid: usize,
    },
    /// A `Push` not followed by a release-flavoured barrier before the next
    /// data access (No-Barrier-Misuse).
    PushWithoutBarrier {
        /// The pushing thread.
        tid: usize,
    },
    /// A write to a monitored kernel-page-table cell whose coherence
    /// predecessor was non-zero (Write-Once-Kernel-Mapping).
    WriteOnce {
        /// The writing thread.
        tid: usize,
        /// The page-table cell.
        loc: Addr,
        /// The non-empty entry that was overwritten.
        old: Val,
    },
}

/// Configuration of the ghost push/pull checker.
#[derive(Debug, Clone, Default)]
pub struct GhostConfig {
    /// Data locations that must only be accessed while owned
    /// (DRF-Kernel's "shared memory accesses" minus the synchronization
    /// variables and page tables, which the condition exempts).
    pub shared: BTreeSet<Addr>,
    /// Check the No-Barrier-Misuse barrier-fulfilment discipline.
    pub check_barriers: bool,
    /// Half-open address ranges of the kernel's own page table; writes to
    /// these cells must only ever replace empty (zero) entries
    /// (Write-Once-Kernel-Mapping).
    pub kernel_pt: Vec<(Addr, Addr)>,
}

/// Tunables for [`enumerate_promising_with`].
#[derive(Debug, Clone)]
pub struct PromisingConfig {
    /// Abort after visiting this many distinct states.
    pub max_states: usize,
    /// Enable promise steps (required for load-buffering behaviours).
    pub promises: bool,
    /// Maximum outstanding promises per thread.
    pub max_promises_per_thread: usize,
    /// State bound for each certification search.
    pub max_cert_states: usize,
    /// Value-analysis bounds (promise domain computation).
    pub value_cfg: ValueConfig,
    /// Optional ghost push/pull checking.
    pub ghost: Option<GhostConfig>,
    /// Worker threads for the exploration; `1` (the default, unless
    /// `VRM_JOBS` overrides it) selects the sequential reference driver.
    pub jobs: usize,
    /// Dynamic partial-order + thread-symmetry reduction (see
    /// `docs/REDUCTION.md`). On by default; automatically disabled when
    /// ghost checking is active, because ghost violations are emitted at
    /// interior states and must be observed on every interleaving. With
    /// promises enabled the per-instruction footprints are conservative
    /// (a promise can append anywhere, so active threads never commute)
    /// and the reduction comes from completion-step squashing plus
    /// symmetry; with promises off the full footprint-based DPOR kicks
    /// in. Either way the outcome set is identical to the reference
    /// walk's.
    pub reduction: bool,
}

impl Default for PromisingConfig {
    fn default() -> Self {
        Self {
            max_states: 4_000_000,
            promises: true,
            max_promises_per_thread: 2,
            max_cert_states: 100_000,
            value_cfg: ValueConfig::default(),
            ghost: None,
            jobs: ExploreConfig::jobs_from_env(),
            reduction: true,
        }
    }
}

/// Result of exhaustive Promising-model exploration.
#[derive(Debug, Clone)]
pub struct PromisingResult {
    /// The observable outcomes of all complete executions.
    pub outcomes: OutcomeSet,
    /// Distinct states visited.
    pub states_explored: usize,
    /// Push/pull violations encountered (deduplicated), if ghost checking
    /// was enabled.
    pub violations: BTreeSet<GhostViolation>,
    /// `true` if any internal bound was hit (result may be incomplete).
    pub truncated: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Status {
    Running,
    Done,
    Fault,
    Panic,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Fwd {
    ts: Ts,
    view: View,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TlbEntry {
    page: Addr,
    view: View,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum WalkKind {
    Load { dst: u8, acq: bool },
    Store { val: Val, vview: View, rel: bool },
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Walk {
    va: Addr,
    level: u32,
    table: Addr,
    view: View,
    kind: WalkKind,
    pa: Option<(Addr, View)>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ThreadState {
    pc: usize,
    regs: Vec<(Val, View)>,
    coh: BTreeMap<Addr, View>,
    v_rold: View,
    v_wold: View,
    v_rnew: View,
    v_wnew: View,
    v_cap: View,
    v_rel: View,
    prom: BTreeSet<Ts>,
    fwd: BTreeMap<Addr, Fwd>,
    status: Status,
    walk: Option<Walk>,
    tlb: BTreeMap<Addr, TlbEntry>,
    walk_floor: BTreeMap<Addr, View>,
    walk_floor_all: View,
    /// Exclusive monitor: (address, timestamp read by the last LoadEx).
    excl: Option<(Addr, Ts)>,
    /// Ghost: an acquire-flavoured barrier has occurred and may cover a Pull.
    armed_acq: bool,
    /// Ghost: a Push awaits its release-flavoured barrier.
    pending_push: bool,
}

impl ThreadState {
    fn new(nregs: usize) -> Self {
        ThreadState {
            pc: 0,
            regs: vec![(0, 0); nregs],
            coh: BTreeMap::new(),
            v_rold: 0,
            v_wold: 0,
            v_rnew: 0,
            v_wnew: 0,
            v_cap: 0,
            v_rel: 0,
            prom: BTreeSet::new(),
            fwd: BTreeMap::new(),
            status: Status::Running,
            walk: None,
            tlb: BTreeMap::new(),
            walk_floor: BTreeMap::new(),
            walk_floor_all: 0,
            excl: None,
            armed_acq: false,
            pending_push: false,
        }
    }

    fn coh(&self, loc: Addr) -> View {
        self.coh.get(&loc).copied().unwrap_or(0)
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PState {
    mem: Vec<Msg>,
    threads: Vec<ThreadState>,
    /// Ghost ownership map (push/pull Promising model).
    owner: BTreeMap<Addr, usize>,
}

impl PState {
    fn initial(prog: &Program) -> Self {
        let nregs = prog.reg_count();
        PState {
            mem: Vec::new(),
            threads: (0..prog.threads.len())
                .map(|_| ThreadState::new(nregs))
                .collect(),
            owner: BTreeMap::new(),
        }
    }

    fn all_finished(&self) -> bool {
        self.threads
            .iter()
            .all(|t| t.status != Status::Running && t.prom.is_empty())
    }

    fn final_val(&self, loc: Addr, prog: &Program) -> Val {
        self.mem
            .iter()
            .rev()
            .find(|m| m.loc == loc)
            .map(|m| m.val)
            .unwrap_or_else(|| prog.init_val(loc))
    }

    fn outcome(&self, prog: &Program) -> Outcome {
        let values = prog
            .observables
            .iter()
            .map(|o| match o {
                Observable::Reg { name, tid, reg } => {
                    (name.clone(), self.threads[*tid].regs[reg.0 as usize].0)
                }
                Observable::Mem { name, addr } => (name.clone(), self.final_val(*addr, prog)),
            })
            .collect();
        let exits = self
            .threads
            .iter()
            .map(|t| match t.status {
                Status::Done => ThreadExit::Done,
                Status::Fault => ThreadExit::Fault,
                Status::Panic => ThreadExit::Panic,
                Status::Running => ThreadExit::Stuck,
            })
            .collect();
        Outcome { values, exits }
    }
}

fn eval(e: &Expr, regs: &[(Val, View)]) -> (Val, View) {
    match e {
        Expr::Imm(v) => (*v, 0),
        Expr::Reg(r) => regs[r.0 as usize],
        Expr::Bin(op, a, b) => {
            let (av, avw) = eval(a, regs);
            let (bv, bvw) = eval(b, regs);
            use crate::ir::BinOp::*;
            let v = match op {
                Add => av.wrapping_add(bv),
                Sub => av.wrapping_sub(bv),
                And => av & bv,
                Or => av | bv,
                Xor => av ^ bv,
                Mul => av.wrapping_mul(bv),
                Shr => av.wrapping_shr(bv as u32),
                Shl => av.wrapping_shl(bv as u32),
                Eq => (av == bv) as Val,
                Ne => (av != bv) as Val,
                Lt => (av < bv) as Val,
            };
            (v, avw.max(bvw))
        }
    }
}

/// Timestamps a thread with view floor `limit` may read for `loc`.
///
/// The readable set is every message to `loc` no older than the newest
/// message to `loc` at or below `limit` (reading *newer* than your view is
/// always allowed; reading *staler* than what you must be aware of is not).
fn readable(mem: &[Msg], loc: Addr, limit: View) -> Vec<Ts> {
    let mut t_min: Ts = 0;
    for ts in 1..=(limit as usize).min(mem.len()) {
        if mem[ts - 1].loc == loc {
            t_min = ts as Ts;
        }
    }
    let mut out = Vec::new();
    if t_min == 0 {
        out.push(0);
    }
    for (i, m) in mem.iter().enumerate() {
        let ts = (i + 1) as Ts;
        if m.loc == loc && ts >= t_min {
            out.push(ts);
        }
    }
    out
}

fn msg_val(mem: &[Msg], loc: Addr, ts: Ts, prog: &Program) -> Val {
    if ts == 0 {
        prog.init_val(loc)
    } else {
        mem[ts as usize - 1].val
    }
}

/// The immutable context a successor expansion reads: the program, the
/// configuration and the promise-value domain. Shared by reference
/// across the engine's workers, so everything a step *writes* —
/// ghost violations, truncation — goes into an [`Effects`] buffer
/// instead of `&mut self`.
struct StepCtx<'a> {
    prog: &'a Program,
    cfg: &'a PromisingConfig,
    domain: ValueAnalysis,
}

/// Side effects of expanding one state, reported through the engine's
/// sink by the caller.
#[derive(Debug, Default)]
struct Effects {
    violations: Vec<GhostViolation>,
    truncated: bool,
}

impl<'a> StepCtx<'a> {
    /// Records a ghost violation and marks the state as panicked, so the
    /// branch stops (the push/pull hardware "panics").
    fn ghost_panic(&self, eff: &mut Effects, st: &mut PState, tid: usize, v: GhostViolation) {
        eff.violations.push(v);
        st.threads[tid].status = Status::Panic;
    }

    /// Checks a data access against the ownership discipline.
    ///
    /// Accesses between a `Push` and its fulfilling release barrier are
    /// permitted when they belong to the synchronization method itself
    /// (DRF-Kernel exempts lock implementations); the push promise's
    /// fulfilment is instead enforced at the next `Pull` and at thread
    /// termination.
    fn ghost_access(
        &self,
        eff: &mut Effects,
        st: &mut PState,
        tid: usize,
        loc: Addr,
        _releasing: bool,
    ) -> bool {
        let Some(g) = &self.cfg.ghost else {
            return true;
        };
        if let Some(&owner) = st.owner.get(&loc) {
            if owner != tid {
                self.ghost_panic(
                    eff,
                    st,
                    tid,
                    GhostViolation::AccessNotOwner { tid, loc, owner },
                );
                return false;
            }
        } else if g.shared.contains(&loc) {
            self.ghost_panic(eff, st, tid, GhostViolation::UnprotectedShared { tid, loc });
            return false;
        }
        true
    }

    /// Write-Once-Kernel-Mapping monitor: flags a write to a monitored
    /// page-table cell whose coherence-latest predecessor is non-zero.
    fn ghost_write_once(
        &self,
        eff: &mut Effects,
        st: &mut PState,
        tid: usize,
        loc: Addr,
        mem_before: &[Msg],
    ) {
        let Some(g) = &self.cfg.ghost else {
            return;
        };
        if !g.kernel_pt.iter().any(|&(lo, hi)| loc >= lo && loc < hi) {
            return;
        }
        let old = mem_before
            .iter()
            .rev()
            .find(|m| m.loc == loc)
            .map(|m| m.val)
            .unwrap_or_else(|| self.prog.init_val(loc));
        if old != 0 {
            eff.violations
                .push(GhostViolation::WriteOnce { tid, loc, old });
            st.threads[tid].status = Status::Panic;
        }
    }

    /// All successor states of `st` where thread `tid` takes one step.
    fn thread_successors(&self, st: &PState, tid: usize, eff: &mut Effects) -> Vec<PState> {
        let mut out = Vec::new();
        let code = &self.prog.threads[tid].code;
        let t = &st.threads[tid];
        if t.status != Status::Running {
            return out;
        }

        // In-progress page-table walk: one level per step.
        if let Some(walk) = t.walk.clone() {
            let vm = self.prog.vm.expect("walk requires VmConfig");
            if let Some((pa, pa_view)) = walk.pa {
                // Final data access with address view from the translation.
                match walk.kind {
                    WalkKind::Load { dst, acq } => {
                        self.read_successors(st, tid, pa, pa_view, dst, acq, true, eff, &mut out);
                    }
                    WalkKind::Store { val, vview, rel } => {
                        self.write_successors(
                            st, tid, pa, pa_view, val, vview, rel, true, eff, &mut out,
                        );
                    }
                }
                return out;
            }
            let cell = walk.table + vm.index(walk.va, walk.level);
            for ts in readable(&st.mem, cell, walk.view) {
                let entry = msg_val(&st.mem, cell, ts, self.prog);
                let mut next = st.clone();
                let nt = &mut next.threads[tid];
                let w = nt.walk.as_mut().expect("walk in progress");
                w.view = w.view.max(ts);
                if entry == 0 {
                    nt.status = Status::Fault;
                    nt.walk = None;
                } else if walk.level + 1 == vm.levels {
                    let vpn = vm.vpn(walk.va);
                    let wv = w.view;
                    w.pa = Some((entry + vm.offset(walk.va), wv));
                    nt.tlb.insert(
                        vpn,
                        TlbEntry {
                            page: entry,
                            view: wv,
                        },
                    );
                } else {
                    w.level += 1;
                    w.table = entry;
                }
                out.push(next);
            }
            return out;
        }

        if t.pc >= code.len() {
            let mut next = st.clone();
            if self.cfg.ghost.as_ref().is_some_and(|g| g.check_barriers)
                && next.threads[tid].pending_push
            {
                self.ghost_panic(
                    eff,
                    &mut next,
                    tid,
                    GhostViolation::PushWithoutBarrier { tid },
                );
            } else {
                next.threads[tid].status = Status::Done;
            }
            out.push(next);
            return out;
        }
        let inst = code[t.pc].clone();
        match inst {
            Inst::Mov { dst, src } => {
                let mut next = st.clone();
                let (v, vw) = eval(&src, &next.threads[tid].regs);
                next.threads[tid].regs[dst.0 as usize] = (v, vw);
                next.threads[tid].pc += 1;
                out.push(next);
            }
            Inst::Load { dst, addr, acq } => {
                let (a, aview) = eval(&addr, &t.regs);
                self.read_successors(st, tid, a, aview, dst.0, acq, false, eff, &mut out);
            }
            Inst::Store { val, addr, rel } => {
                let (a, aview) = eval(&addr, &t.regs);
                let (v, dview) = eval(&val, &t.regs);
                self.write_successors(st, tid, a, aview, v, dview, rel, false, eff, &mut out);
            }
            Inst::Rmw {
                dst,
                addr,
                op,
                rhs,
                acq,
                rel,
            } => {
                let (a, aview) = eval(&addr, &t.regs);
                let (r, rview) = eval(&rhs, &t.regs);
                {
                    let mut probe = st.clone();
                    if !self.ghost_access(eff, &mut probe, tid, a, rel) {
                        out.push(probe);
                        return out;
                    }
                }
                let v_pre_r = aview.max(t.v_rnew).max(if acq { t.v_rel } else { 0 });
                // Atomicity: the read half must observe the message
                // immediately co-before our write (no intervening write).
                // Option 1: append fresh — read the current co-maximal
                // message. Option 2: fulfil an outstanding promise at ts —
                // read the co-maximal message *below* ts.
                let co_max_below = |limit: Ts| -> Ts {
                    st.mem
                        .iter()
                        .enumerate()
                        .rev()
                        .filter(|(i, m)| m.loc == a && ((i + 1) as Ts) < limit)
                        .map(|(i, _)| (i + 1) as Ts)
                        .next()
                        .unwrap_or(0)
                };
                let commit_rmw = |next: &mut PState, t_r: Ts, t_w: Ts, old: Val| {
                    let nt = &mut next.threads[tid];
                    let v_post_r = if nt.fwd.get(&a).map(|f| f.ts) == Some(t_r) {
                        v_pre_r.max(nt.fwd[&a].view)
                    } else {
                        v_pre_r.max(t_r)
                    };
                    nt.regs[dst.0 as usize] = (old, v_post_r);
                    let c = nt.coh.entry(a).or_insert(0);
                    *c = (*c).max(t_w);
                    nt.v_rold = nt.v_rold.max(v_post_r);
                    nt.v_wold = nt.v_wold.max(t_w);
                    nt.v_cap = nt.v_cap.max(aview);
                    if acq {
                        nt.v_rnew = nt.v_rnew.max(v_post_r);
                        nt.v_wnew = nt.v_wnew.max(v_post_r);
                        nt.armed_acq = true;
                    }
                    if rel {
                        nt.v_rel = nt.v_rel.max(t_w);
                        nt.pending_push = false;
                    }
                    nt.fwd.insert(
                        a,
                        Fwd {
                            ts: t_w,
                            view: aview.max(rview).max(v_post_r),
                        },
                    );
                    nt.pc += 1;
                };
                // Readable floor: the read may not be staler than the
                // newest same-location message at or below the view limit.
                let limit = v_pre_r.max(t.coh(a));
                let t_min = {
                    let mut m = 0;
                    for ts in 1..=(limit as usize).min(st.mem.len()) {
                        if st.mem[ts - 1].loc == a {
                            m = ts as Ts;
                        }
                    }
                    m
                };
                // Option 1: append fresh at the end of memory.
                {
                    let t_r = co_max_below(Ts::MAX);
                    if t_r >= t_min {
                        let old = msg_val(&st.mem, a, t_r, self.prog);
                        let new = op.apply(old, r);
                        let mut next = st.clone();
                        let t_w = (next.mem.len() + 1) as Ts;
                        next.mem.push(Msg {
                            loc: a,
                            val: new,
                            tid,
                        });
                        commit_rmw(&mut next, t_r, t_w, old);
                        self.ghost_write_once(eff, &mut next, tid, a, &st.mem);
                        out.push(next);
                    }
                }
                // Option 2: fulfil an outstanding promise (exclusive-write
                // promising, needed e.g. when a program-order-earlier store
                // must land co-later than this RMW's write).
                for &ts in &t.prom {
                    let m = st.mem[ts as usize - 1];
                    if m.loc != a || m.tid != tid || ts <= t.coh(a) {
                        continue;
                    }
                    let t_r = co_max_below(ts);
                    if t_r < t_min {
                        continue; // would read staler than the view allows
                    }
                    let old = msg_val(&st.mem, a, t_r, self.prog);
                    let new = op.apply(old, r);
                    if new != m.val {
                        continue;
                    }
                    // The write-half pre-view must stay below ts.
                    let v_post_r = if t.fwd.get(&a).map(|f| f.ts) == Some(t_r) {
                        v_pre_r.max(t.fwd[&a].view)
                    } else {
                        v_pre_r.max(t_r)
                    };
                    let v_pre_w = aview
                        .max(rview)
                        .max(t.v_cap.max(aview))
                        .max(t.v_wnew)
                        .max(v_post_r)
                        .max(if rel {
                            t.v_rold.max(t.v_wold).max(t.v_rnew).max(t.v_rel)
                        } else {
                            0
                        });
                    if ts <= v_pre_w {
                        continue;
                    }
                    let mut next = st.clone();
                    next.threads[tid].prom.remove(&ts);
                    commit_rmw(&mut next, t_r, ts, old);
                    let before: Vec<Msg> = st.mem[..ts as usize - 1].to_vec();
                    self.ghost_write_once(eff, &mut next, tid, a, &before);
                    out.push(next);
                }
            }
            Inst::LoadEx { dst, addr, acq } => {
                let (a, aview) = eval(&addr, &t.regs);
                self.read_successors_ex(st, tid, a, aview, dst.0, acq, false, true, eff, &mut out);
            }
            Inst::StoreEx {
                status,
                val,
                addr,
                rel,
            } => {
                let (a, aview) = eval(&addr, &t.regs);
                let (v, dview) = eval(&val, &t.regs);
                {
                    let mut probe = st.clone();
                    if !self.ghost_access(eff, &mut probe, tid, a, rel) {
                        out.push(probe);
                        return out;
                    }
                }
                // Failure is always allowed (spurious or real).
                {
                    let mut next = st.clone();
                    let nt = &mut next.threads[tid];
                    nt.regs[status.0 as usize] = (1, aview.max(dview));
                    nt.excl = None;
                    nt.pc += 1;
                    out.push(next);
                }
                // Success requires an armed monitor on this address with
                // no intervening write (our read is still co-maximal below
                // the write's slot).
                let Some((ea, t_r)) = t.excl else {
                    return out;
                };
                if ea != a {
                    return out;
                }
                let v_pre_w = aview
                    .max(dview)
                    .max(t.v_cap.max(aview))
                    .max(t.v_wnew)
                    .max(if rel {
                        t.v_rold.max(t.v_wold).max(t.v_rnew).max(t.v_rel)
                    } else {
                        0
                    });
                let co_max_below = |limit: Ts| -> Ts {
                    st.mem
                        .iter()
                        .enumerate()
                        .rev()
                        .filter(|(i, m)| m.loc == a && ((i + 1) as Ts) < limit)
                        .map(|(i, _)| (i + 1) as Ts)
                        .next()
                        .unwrap_or(0)
                };
                let commit_success = |next: &mut PState, t_w: Ts| {
                    let nt = &mut next.threads[tid];
                    nt.regs[status.0 as usize] = (0, aview.max(dview));
                    let c = nt.coh.entry(a).or_insert(0);
                    *c = (*c).max(t_w);
                    nt.v_wold = nt.v_wold.max(t_w);
                    nt.v_cap = nt.v_cap.max(aview);
                    if rel {
                        nt.v_rel = nt.v_rel.max(t_w);
                        nt.pending_push = false;
                    }
                    nt.fwd.insert(
                        a,
                        Fwd {
                            ts: t_w,
                            view: aview.max(dview),
                        },
                    );
                    nt.excl = None;
                    nt.pc += 1;
                };
                // Append fresh.
                if co_max_below(Ts::MAX) == t_r {
                    let mut next = st.clone();
                    let t_w = (next.mem.len() + 1) as Ts;
                    next.mem.push(Msg {
                        loc: a,
                        val: v,
                        tid,
                    });
                    commit_success(&mut next, t_w);
                    self.ghost_write_once(eff, &mut next, tid, a, &st.mem);
                    out.push(next);
                }
                // Fulfil a promise (exclusive-write promising).
                for &ts in &t.prom {
                    let m = st.mem[ts as usize - 1];
                    if m.loc == a
                        && m.val == v
                        && m.tid == tid
                        && ts > v_pre_w
                        && ts > t.coh(a)
                        && co_max_below(ts) == t_r
                    {
                        let mut next = st.clone();
                        next.threads[tid].prom.remove(&ts);
                        commit_success(&mut next, ts);
                        let before: Vec<Msg> = st.mem[..ts as usize - 1].to_vec();
                        self.ghost_write_once(eff, &mut next, tid, a, &before);
                        out.push(next);
                    }
                }
            }
            Inst::Fence(f) => {
                let mut next = st.clone();
                let nt = &mut next.threads[tid];
                match f {
                    Fence::Sy => {
                        let v = nt.v_rold.max(nt.v_wold);
                        nt.v_rnew = nt.v_rnew.max(v);
                        nt.v_wnew = nt.v_wnew.max(v);
                        nt.armed_acq = true;
                        nt.pending_push = false;
                    }
                    Fence::Ld => {
                        nt.v_rnew = nt.v_rnew.max(nt.v_rold);
                        nt.v_wnew = nt.v_wnew.max(nt.v_rold);
                        nt.armed_acq = true;
                    }
                    Fence::St => {
                        nt.v_wnew = nt.v_wnew.max(nt.v_wold);
                        nt.pending_push = false;
                    }
                    Fence::Isb => {
                        nt.v_rnew = nt.v_rnew.max(nt.v_cap);
                    }
                }
                nt.pc += 1;
                out.push(next);
            }
            Inst::Br {
                cond,
                lhs,
                rhs,
                target,
            } => {
                let (l, lview) = eval(&lhs, &t.regs);
                let (r, rview) = eval(&rhs, &t.regs);
                let mut next = st.clone();
                let nt = &mut next.threads[tid];
                nt.v_cap = nt.v_cap.max(lview).max(rview);
                nt.pc = if cond.eval(l, r) { target } else { t.pc + 1 };
                out.push(next);
            }
            Inst::Jmp(target) => {
                let mut next = st.clone();
                next.threads[tid].pc = target;
                out.push(next);
            }
            Inst::LoadVirt { dst, va, acq } => {
                let vm = self.prog.vm.expect("LoadVirt requires VmConfig");
                let (vaddr, vview) = eval(&va, &t.regs);
                let vpn = vm.vpn(vaddr);
                let mut next = st.clone();
                let nt = &mut next.threads[tid];
                nt.v_cap = nt.v_cap.max(vview);
                if let Some(e) = nt.tlb.get(&vpn) {
                    nt.walk = Some(Walk {
                        va: vaddr,
                        level: 0,
                        table: 0,
                        view: vview,
                        kind: WalkKind::Load { dst: dst.0, acq },
                        pa: Some((e.page + vm.offset(vaddr), vview.max(e.view))),
                    });
                } else {
                    let floor = nt
                        .walk_floor
                        .get(&vpn)
                        .copied()
                        .unwrap_or(0)
                        .max(nt.walk_floor_all);
                    nt.walk = Some(Walk {
                        va: vaddr,
                        level: 0,
                        table: vm.root,
                        view: vview.max(floor),
                        kind: WalkKind::Load { dst: dst.0, acq },
                        pa: None,
                    });
                }
                out.push(next);
            }
            Inst::StoreVirt { val, va, rel } => {
                let vm = self.prog.vm.expect("StoreVirt requires VmConfig");
                let (vaddr, vview) = eval(&va, &t.regs);
                let (v, dview) = eval(&val, &t.regs);
                let vpn = vm.vpn(vaddr);
                let mut next = st.clone();
                let nt = &mut next.threads[tid];
                nt.v_cap = nt.v_cap.max(vview);
                if let Some(e) = nt.tlb.get(&vpn) {
                    nt.walk = Some(Walk {
                        va: vaddr,
                        level: 0,
                        table: 0,
                        view: vview,
                        kind: WalkKind::Store {
                            val: v,
                            vview: dview,
                            rel,
                        },
                        pa: Some((e.page + vm.offset(vaddr), vview.max(e.view))),
                    });
                } else {
                    let floor = nt
                        .walk_floor
                        .get(&vpn)
                        .copied()
                        .unwrap_or(0)
                        .max(nt.walk_floor_all);
                    nt.walk = Some(Walk {
                        va: vaddr,
                        level: 0,
                        table: vm.root,
                        view: vview.max(floor),
                        kind: WalkKind::Store {
                            val: v,
                            vview: dview,
                            rel,
                        },
                        pa: None,
                    });
                }
                out.push(next);
            }
            Inst::Tlbi { va } => {
                let vm = self.prog.vm.expect("Tlbi requires VmConfig");
                let vpn = va.map(|e| vm.vpn(eval(&e, &t.regs).0));
                let v_tlbi = t.v_rnew.max(t.v_wnew);
                let mut next = st.clone();
                for u in &mut next.threads {
                    match vpn {
                        Some(p) => {
                            u.tlb.remove(&p);
                            let f = u.walk_floor.entry(p).or_insert(0);
                            *f = (*f).max(v_tlbi);
                        }
                        None => {
                            u.tlb.clear();
                            u.walk_floor_all = u.walk_floor_all.max(v_tlbi);
                        }
                    }
                }
                next.threads[tid].pc += 1;
                out.push(next);
            }
            Inst::Pull(locs) => {
                let locs: Vec<Addr> = locs.iter().map(|e| eval(e, &t.regs).0).collect();
                let mut next = st.clone();
                if self.cfg.ghost.is_some() {
                    if self.cfg.ghost.as_ref().is_some_and(|g| g.check_barriers)
                        && next.threads[tid].pending_push
                    {
                        self.ghost_panic(
                            eff,
                            &mut next,
                            tid,
                            GhostViolation::PushWithoutBarrier { tid },
                        );
                        out.push(next);
                        return out;
                    }
                    if self.cfg.ghost.as_ref().is_some_and(|g| g.check_barriers)
                        && !next.threads[tid].armed_acq
                    {
                        self.ghost_panic(
                            eff,
                            &mut next,
                            tid,
                            GhostViolation::PullWithoutBarrier { tid },
                        );
                        out.push(next);
                        return out;
                    }
                    for &loc in &locs {
                        if let Some(&owner) = next.owner.get(&loc) {
                            self.ghost_panic(
                                eff,
                                &mut next,
                                tid,
                                GhostViolation::PullOwned { tid, loc, owner },
                            );
                            out.push(next);
                            return out;
                        }
                        next.owner.insert(loc, tid);
                    }
                }
                next.threads[tid].pc += 1;
                out.push(next);
            }
            Inst::Push(locs) => {
                let locs: Vec<Addr> = locs.iter().map(|e| eval(e, &t.regs).0).collect();
                let mut next = st.clone();
                if self.cfg.ghost.is_some() {
                    for &loc in &locs {
                        if next.owner.get(&loc) != Some(&tid) {
                            self.ghost_panic(
                                eff,
                                &mut next,
                                tid,
                                GhostViolation::PushNotOwned { tid, loc },
                            );
                            out.push(next);
                            return out;
                        }
                        next.owner.remove(&loc);
                    }
                    if self.cfg.ghost.as_ref().is_some_and(|g| g.check_barriers) {
                        next.threads[tid].pending_push = true;
                        next.threads[tid].armed_acq = false;
                    }
                }
                next.threads[tid].pc += 1;
                out.push(next);
            }
            Inst::Oracle { dst, choices } => {
                for v in choices {
                    let mut next = st.clone();
                    next.threads[tid].regs[dst.0 as usize] = (v, 0);
                    next.threads[tid].pc += 1;
                    out.push(next);
                }
            }
            Inst::Halt => {
                let mut next = st.clone();
                if self.cfg.ghost.as_ref().is_some_and(|g| g.check_barriers)
                    && next.threads[tid].pending_push
                {
                    self.ghost_panic(
                        eff,
                        &mut next,
                        tid,
                        GhostViolation::PushWithoutBarrier { tid },
                    );
                } else {
                    next.threads[tid].status = Status::Done;
                }
                out.push(next);
            }
            Inst::Panic => {
                let mut next = st.clone();
                next.threads[tid].status = Status::Panic;
                out.push(next);
            }
            Inst::Nop => {
                let mut next = st.clone();
                next.threads[tid].pc += 1;
                out.push(next);
            }
        }
        out
    }

    /// Generates read successors (one per readable timestamp).
    #[allow(clippy::too_many_arguments)]
    fn read_successors(
        &self,
        st: &PState,
        tid: usize,
        a: Addr,
        aview: View,
        dst: u8,
        acq: bool,
        from_walk: bool,
        eff: &mut Effects,
        out: &mut Vec<PState>,
    ) {
        self.read_successors_ex(st, tid, a, aview, dst, acq, from_walk, false, eff, out)
    }

    /// [`Self::read_successors`] with an exclusive-monitor arming flag.
    #[allow(clippy::too_many_arguments)]
    fn read_successors_ex(
        &self,
        st: &PState,
        tid: usize,
        a: Addr,
        aview: View,
        dst: u8,
        acq: bool,
        from_walk: bool,
        exclusive: bool,
        eff: &mut Effects,
        out: &mut Vec<PState>,
    ) {
        {
            let mut probe = st.clone();
            if !self.ghost_access(eff, &mut probe, tid, a, false) {
                out.push(probe);
                return;
            }
        }
        let t = &st.threads[tid];
        let v_pre = aview.max(t.v_rnew).max(if acq { t.v_rel } else { 0 });
        let limit = v_pre.max(t.coh(a));
        for ts in readable(&st.mem, a, limit) {
            let val = msg_val(&st.mem, a, ts, self.prog);
            let mut next = st.clone();
            let nt = &mut next.threads[tid];
            let v_post = if nt.fwd.get(&a).map(|f| f.ts) == Some(ts) {
                v_pre.max(nt.fwd[&a].view)
            } else {
                v_pre.max(ts)
            };
            nt.regs[dst as usize] = (val, v_post);
            let c = nt.coh.entry(a).or_insert(0);
            *c = (*c).max(ts);
            nt.v_rold = nt.v_rold.max(v_post);
            nt.v_cap = nt.v_cap.max(aview);
            if acq {
                nt.v_rnew = nt.v_rnew.max(v_post);
                nt.v_wnew = nt.v_wnew.max(v_post);
                nt.armed_acq = true;
            }
            if exclusive {
                nt.excl = Some((a, ts));
            }
            if from_walk {
                nt.walk = None;
            }
            nt.pc += 1;
            out.push(next);
        }
    }

    /// Generates write successors: append a fresh message, and additionally
    /// fulfil each matching outstanding promise.
    #[allow(clippy::too_many_arguments)]
    fn write_successors(
        &self,
        st: &PState,
        tid: usize,
        a: Addr,
        aview: View,
        v: Val,
        dview: View,
        rel: bool,
        from_walk: bool,
        eff: &mut Effects,
        out: &mut Vec<PState>,
    ) {
        {
            let mut probe = st.clone();
            if !self.ghost_access(eff, &mut probe, tid, a, rel) {
                out.push(probe);
                return;
            }
        }
        let t = &st.threads[tid];
        let v_pre = aview
            .max(dview)
            .max(t.v_cap.max(aview))
            .max(t.v_wnew)
            .max(if rel {
                t.v_rold.max(t.v_wold).max(t.v_rnew).max(t.v_rel)
            } else {
                0
            });
        let commit = |next: &mut PState, ts: Ts| {
            let nt = &mut next.threads[tid];
            let c = nt.coh.entry(a).or_insert(0);
            *c = (*c).max(ts);
            nt.v_wold = nt.v_wold.max(ts);
            nt.v_cap = nt.v_cap.max(aview);
            if rel {
                nt.v_rel = nt.v_rel.max(ts);
                nt.pending_push = false;
            }
            nt.fwd.insert(
                a,
                Fwd {
                    ts,
                    view: aview.max(dview),
                },
            );
            if from_walk {
                nt.walk = None;
            }
            nt.pc += 1;
        };
        // Option 1: append fresh.
        {
            let mut next = st.clone();
            let ts = (next.mem.len() + 1) as Ts;
            next.mem.push(Msg {
                loc: a,
                val: v,
                tid,
            });
            commit(&mut next, ts);
            self.ghost_write_once(eff, &mut next, tid, a, &st.mem);
            out.push(next);
        }
        // Option 2: fulfil an outstanding promise.
        for &ts in &t.prom {
            let m = st.mem[ts as usize - 1];
            if m.loc == a && m.val == v && m.tid == tid && ts > v_pre && ts > t.coh(a) {
                let mut next = st.clone();
                next.threads[tid].prom.remove(&ts);
                commit(&mut next, ts);
                let before: Vec<Msg> = st.mem[..ts as usize - 1].to_vec();
                self.ghost_write_once(eff, &mut next, tid, a, &before);
                out.push(next);
            }
        }
    }

    /// Candidate promise steps for thread `tid`: one successor per
    /// store in the thread's value-analysis domain (not yet certified).
    /// Returns `(state, loc, val, ts)` so witness searches can describe
    /// the promise.
    fn promise_steps(&self, st: &PState, tid: usize) -> Vec<(PState, Addr, Val, Ts)> {
        let mut out = Vec::new();
        if !self.cfg.promises || st.threads[tid].prom.len() >= self.cfg.max_promises_per_thread {
            return out;
        }
        let mut dom = self.domain.plain_stores[tid].clone();
        dom.extend(self.domain.rmw_stores[tid].iter().copied());
        for (loc, val) in dom {
            let mut next = st.clone();
            let ts = (next.mem.len() + 1) as Ts;
            next.mem.push(Msg { loc, val, tid });
            next.threads[tid].prom.insert(ts);
            out.push((next, loc, val, ts));
        }
        out
    }

    /// Checks that thread `tid` can fulfil all its outstanding promises
    /// running solo with no new promises.
    ///
    /// The certification search is itself an engine exploration —
    /// always sequential (it already runs inside a worker's expansion)
    /// and bounded by [`PromisingConfig::max_cert_states`] instead of
    /// the top-level state limit.
    fn certify(&self, st: &PState, tid: usize, eff: &mut Effects) -> bool {
        if st.threads[tid].prom.is_empty() {
            return true;
        }
        OBS_CERTIFICATIONS.add(1);
        let _span = vrm_obs::span!("certify", tid = tid, promises = st.threads[tid].prom.len());
        let ecfg = ExploreConfig::with_max_states(self.cfg.max_cert_states);
        let space = CertifySpace {
            ctx: self,
            root: st,
            tid,
        };
        let expl = vrm_explore::explore(&space, &ecfg, None);
        let mut ok = false;
        for e in expl.emits {
            match e {
                CertEmit::Fulfilled => ok = true,
                CertEmit::Violation(v) => eff.violations.push(v),
            }
        }
        // A truncated certification that found no fulfilment is
        // inconclusive: conservatively refuse the promise, and flag the
        // whole enumeration as incomplete (a fulfilment might exist past
        // the bound). A fulfilment found before the bound is sound
        // regardless of truncation.
        if !ok && expl.stats.completeness.is_truncated() {
            eff.truncated = true;
        }
        if !ok {
            OBS_CERT_REFUSED.add(1);
        }
        ok
    }
}

/// The certification search as a state space: the promising thread runs
/// solo, making no further promises, halting at the first state whose
/// promise set is empty.
struct CertifySpace<'a, 'b> {
    ctx: &'b StepCtx<'a>,
    root: &'b PState,
    tid: usize,
}

enum CertEmit {
    Fulfilled,
    Violation(GhostViolation),
}

impl StateSpace for CertifySpace<'_, '_> {
    type State = PState;
    type Emit = CertEmit;

    fn initial(&self) -> Vec<PState> {
        vec![self.root.clone()]
    }

    fn expand(&self, s: &PState, sink: &mut Sink<PState, CertEmit>) {
        if s.threads[self.tid].prom.is_empty() {
            sink.emit(CertEmit::Fulfilled);
            sink.halt();
            return;
        }
        if s.threads[self.tid].status != Status::Running {
            return;
        }
        let mut eff = Effects::default();
        for next in self.ctx.thread_successors(s, self.tid, &mut eff) {
            sink.push(next);
        }
        for v in eff.violations {
            sink.emit(CertEmit::Violation(v));
        }
    }
}

/// What the Promising-model expansion reports through the engine.
enum PEmit {
    Outcome(Outcome),
    Violation(GhostViolation),
    Truncated,
}

/// The full Promising model as a state space: every runnable thread
/// steps (including promise steps), each step gated on the stepping
/// thread's promises staying certifiable. The reduction hooks name
/// per-thread footprints and the program's thread symmetry; see
/// `docs/REDUCTION.md` for why the footprints are conservative when
/// promises are enabled.
struct PromisingSpace<'a> {
    ctx: StepCtx<'a>,
    /// Non-identity tid permutations of the program's symmetry group
    /// (identical code *and* identical promise domains); empty when
    /// there is no symmetry.
    perms: Vec<Vec<usize>>,
    /// Static per-`[tid][pc]` future footprints (with the
    /// [`symm::MEM_APPEND`] token on stores); consulted when promises
    /// are off, and for pure-reader threads even when they are on.
    futures: Vec<Vec<Footprint>>,
    /// Per-thread: `true` when the thread's code contains no store of
    /// any kind, so it can never promise (its promise domain is empty),
    /// is never certification-gated, and never mutates shared memory —
    /// which makes precise footprints sound even with promises enabled.
    readers: Vec<bool>,
}

/// Whether a thread's code is free of store-like instructions (plain,
/// exclusive, RMW, or virtual): such a *pure reader* only ever changes
/// its own thread-local state.
fn is_pure_reader(code: &[Inst]) -> bool {
    !code.iter().any(|i| {
        matches!(
            i,
            Inst::Store { .. } | Inst::StoreEx { .. } | Inst::Rmw { .. } | Inst::StoreVirt { .. }
        )
    })
}

/// Applies a tid permutation to a promising state: per-thread machine
/// state moves with its thread, message and ownership tid labels are
/// renamed, shared memory order stays put.
fn permute_pstate(st: &PState, perm: &[usize]) -> PState {
    let mut img = st.clone();
    for (old, &new) in perm.iter().enumerate() {
        img.threads[new] = st.threads[old].clone();
    }
    for m in &mut img.mem {
        m.tid = perm[m.tid];
    }
    for owner in img.owner.values_mut() {
        *owner = perm[*owner];
    }
    img
}

impl StateSpace for PromisingSpace<'_> {
    type State = PState;
    type Emit = PEmit;

    fn initial(&self) -> Vec<PState> {
        vec![PState::initial(self.ctx.prog)]
    }

    fn expand(&self, st: &PState, sink: &mut Sink<PState, PEmit>) {
        if st.all_finished() {
            sink.emit(PEmit::Outcome(st.outcome(self.ctx.prog)));
            return;
        }
        for tid in 0..self.ctx.prog.threads.len() {
            self.expand_proc(st, tid, sink);
        }
    }

    fn enabled(&self, st: &PState) -> Vec<usize> {
        st.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Running)
            .map(|(tid, _)| tid)
            .collect()
    }

    fn expand_proc(&self, st: &PState, tid: usize, sink: &mut Sink<PState, PEmit>) {
        let ctx = &self.ctx;
        if st.threads[tid].status != Status::Running {
            return;
        }
        let mut eff = Effects::default();
        for next in ctx.thread_successors(st, tid, &mut eff) {
            // Steps must preserve certifiability of the stepping
            // thread's outstanding promises.
            if next.threads[tid].prom.is_empty() || ctx.certify(&next, tid, &mut eff) {
                sink.push(next);
            }
        }
        // Promise steps.
        for (next, _, _, _) in ctx.promise_steps(st, tid) {
            if ctx.certify(&next, tid, &mut eff) {
                sink.push(next);
            }
        }
        for v in eff.violations {
            sink.emit(PEmit::Violation(v));
        }
        if eff.truncated {
            sink.emit(PEmit::Truncated);
        }
    }

    fn now(&self, st: &PState, tid: usize) -> Footprint {
        let t = &st.threads[tid];
        if t.status != Status::Running {
            return Footprint::empty();
        }
        if t.walk.is_some() {
            // Mid page-table walk: reads page-table cells and updates
            // the TLB — treat as touching everything.
            return Footprint::top();
        }
        let code = &self.ctx.prog.threads[tid].code;
        if t.pc >= code.len() {
            // Completion step: flips the thread's own status, touches
            // nothing. (With ghost off, which reduction requires, the
            // step is unconditional.)
            return Footprint::empty();
        }
        if self.ctx.cfg.promises && !(self.readers[tid] && t.prom.is_empty()) {
            // Any unfinished storing thread may promise (appending to
            // the global message order) and its steps are gated on
            // certification, whose result reads arbitrary memory —
            // nothing short of `top` covers that. Pure readers are
            // exempt: they cannot promise and are never cert-gated.
            return Footprint::top();
        }
        let mut fp = Footprint::empty();
        match &code[t.pc] {
            Inst::Load { addr, .. } | Inst::LoadEx { addr, .. } => {
                fp.read(eval(addr, &t.regs).0);
            }
            Inst::Store { addr, .. } => {
                fp.write(eval(addr, &t.regs).0);
                fp.write(symm::MEM_APPEND);
            }
            Inst::StoreEx { addr, .. } | Inst::Rmw { addr, .. } => {
                let a = eval(addr, &t.regs).0;
                fp.read(a);
                fp.write(a);
                fp.write(symm::MEM_APPEND);
            }
            Inst::LoadVirt { .. } | Inst::StoreVirt { .. } | Inst::Tlbi { .. } => {
                return Footprint::top();
            }
            _ => {}
        }
        fp
    }

    fn future(&self, st: &PState, tid: usize) -> Footprint {
        let t = &st.threads[tid];
        if t.status != Status::Running {
            // Done threads have no promises left (certification prunes
            // the alternative), so nothing further happens here.
            return Footprint::empty();
        }
        if t.walk.is_some() {
            return Footprint::top();
        }
        if self.ctx.cfg.promises && !self.readers[tid] {
            if t.pc >= self.ctx.prog.threads[tid].code.len() {
                // Only the completion step remains.
                return Footprint::empty();
            }
            return Footprint::top();
        }
        self.futures[tid].get(t.pc).cloned().unwrap_or_default()
    }

    fn canon(&self, st: &PState) -> Option<PState> {
        if self.perms.is_empty() {
            return None;
        }
        let mut best: Option<(u128, PState)> = None;
        let d0 = digest128(st);
        for perm in &self.perms {
            let img = permute_pstate(st, perm);
            let d = digest128(&img);
            if d < best.as_ref().map_or(d0, |(bd, _)| *bd) {
                best = Some((d, img));
            }
        }
        best.map(|(_, img)| img)
    }

    fn orbit(&self, st: &PState) -> Vec<PState> {
        self.perms.iter().map(|p| permute_pstate(st, p)).collect()
    }
}

/// Exhaustively enumerates the observable outcomes of `prog` on the
/// Promising Arm model with default bounds.
///
/// # Examples
///
/// ```
/// use vrm_memmodel::builder::ProgramBuilder;
/// use vrm_memmodel::ir::Reg;
/// use vrm_memmodel::promising::enumerate_promising;
///
/// // Load buffering (paper Example 1): both reads may see 1 on Arm.
/// let (x, y) = (0x10, 0x20);
/// let mut p = ProgramBuilder::new("LB");
/// p.thread("CPU 1", |t| {
///     t.load(Reg(0), x, false);
///     t.store(y, 1, false);
/// });
/// p.thread("CPU 2", |t| {
///     t.load(Reg(1), y, false);
///     t.store(x, Reg(1), false);
/// });
/// p.observe_reg("r0", 0, Reg(0));
/// p.observe_reg("r1", 1, Reg(1));
/// let rm = enumerate_promising(&p.build()).unwrap();
/// assert!(rm.contains_binding(&[("r0", 1), ("r1", 1)]));
/// ```
pub fn enumerate_promising(prog: &Program) -> Result<OutcomeSet, ExploreError> {
    enumerate_promising_with(prog, &PromisingConfig::default()).map(|r| r.outcomes)
}

/// [`enumerate_promising`] with explicit configuration, returning detailed
/// exploration results (ghost violations, truncation).
pub fn enumerate_promising_with(
    prog: &Program,
    cfg: &PromisingConfig,
) -> Result<PromisingResult, ExploreError> {
    let _span = vrm_obs::span!(
        "enumerate.promising",
        prog = prog.name.as_str(),
        jobs = cfg.jobs,
        promises = u64::from(cfg.promises),
    );
    let domain = if cfg.promises {
        analyze(prog, &cfg.value_cfg)
    } else {
        ValueAnalysis {
            plain_stores: vec![Default::default(); prog.threads.len()],
            rmw_stores: vec![Default::default(); prog.threads.len()],
            ..Default::default()
        }
    };
    let mut truncated = domain.truncated;
    // Symmetric threads must also have identical promise domains, or a
    // permuted state would not step identically (identical code makes
    // this automatic, but the guard keeps symmetry sound even if the
    // value analysis ever becomes context-sensitive).
    let mut groups = symm::symmetric_groups(prog);
    groups.retain(|g| {
        g.iter().all(|&i| {
            domain.plain_stores[i] == domain.plain_stores[g[0]]
                && domain.rmw_stores[i] == domain.rmw_stores[g[0]]
        })
    });
    let futures = prog
        .threads
        .iter()
        .map(|t| symm::thread_futures(&t.code, true))
        .collect();
    let space = PromisingSpace {
        ctx: StepCtx { prog, cfg, domain },
        perms: symm::group_permutations(prog.threads.len(), &groups),
        futures,
        readers: prog
            .threads
            .iter()
            .map(|t| is_pure_reader(&t.code))
            .collect(),
    };
    // Ghost violations are emitted at interior states of particular
    // interleavings, which reduction is free to cut — so the reduced
    // walk only runs when ghost checking is off.
    let ecfg = ExploreConfig::with_max_states(cfg.max_states)
        .jobs(cfg.jobs)
        .reduction(cfg.reduction && cfg.ghost.is_none());
    let exploration = vrm_explore::explore(&space, &ecfg, None);
    truncated |= exploration.stats.completeness.is_truncated();
    let mut outcomes = OutcomeSet::new();
    let mut violations = BTreeSet::new();
    for e in exploration.emits {
        match e {
            PEmit::Outcome(o) => {
                outcomes.insert(o);
            }
            PEmit::Violation(v) => {
                violations.insert(v);
            }
            PEmit::Truncated => truncated = true,
        }
    }
    outcomes.stats = exploration.stats;
    Ok(PromisingResult {
        outcomes,
        states_explored: exploration.stats.states,
        violations,
        truncated,
    })
}

/// One step of a witness execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessStep {
    /// The stepping thread.
    pub tid: usize,
    /// Its program counter before the step.
    pub pc: usize,
    /// Human-readable description of what happened.
    pub what: String,
}

impl std::fmt::Display for WitnessStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{} @{}: {}", self.tid, self.pc, self.what)
    }
}

/// Searches for one Promising-model execution whose outcome satisfies the
/// given bindings, returning the step-by-step witness.
///
/// This is the counterexample producer: when the wDRF theorem check finds
/// an RM-only outcome, `find_witness` explains *how* the hardware gets
/// there (which promises were made, which stale timestamps were read).
///
/// # Examples
///
/// ```
/// use vrm_memmodel::builder::ProgramBuilder;
/// use vrm_memmodel::ir::Reg;
/// use vrm_memmodel::promising::{find_witness, PromisingConfig};
///
/// let (x, f) = (0x10, 0x20);
/// let mut p = ProgramBuilder::new("MP");
/// p.thread("T0", |t| {
///     t.store(x, 42, false);
///     t.store(f, 1, false);
/// });
/// p.thread("T1", |t| {
///     t.load(Reg(0), f, false);
///     t.load(Reg(1), x, false);
/// });
/// p.observe_reg("flag", 1, Reg(0));
/// p.observe_reg("data", 1, Reg(1));
/// let cfg = PromisingConfig { promises: false, ..Default::default() };
/// let w = find_witness(&p.build(), &cfg, &[("flag", 1), ("data", 0)]).unwrap();
/// assert!(w.is_some(), "the stale read must be witnessable");
/// ```
pub fn find_witness(
    prog: &Program,
    cfg: &PromisingConfig,
    bindings: &[(&str, Val)],
) -> Result<Option<Vec<WitnessStep>>, ExploreError> {
    let domain = if cfg.promises {
        analyze(prog, &cfg.value_cfg)
    } else {
        ValueAnalysis {
            plain_stores: vec![Default::default(); prog.threads.len()],
            rmw_stores: vec![Default::default(); prog.threads.len()],
            ..Default::default()
        }
    };
    let space = WitnessSpace {
        ctx: StepCtx { prog, cfg, domain },
        bindings,
    };
    let ecfg = ExploreConfig::with_max_states(cfg.max_states).jobs(cfg.jobs);
    let exploration = vrm_explore::explore(&space, &ecfg, None);
    Ok(exploration.emits.into_iter().next())
}

/// A witness-search node: a Promising state plus the path that reached
/// it. Deduplication is on the state alone — the first path to reach a
/// state is the one kept, exactly like the visited set the search used
/// to maintain beside its stack.
#[derive(Clone)]
struct WNode {
    st: PState,
    path: Vec<WitnessStep>,
}

impl PartialEq for WNode {
    fn eq(&self, other: &Self) -> bool {
        self.st == other.st
    }
}

impl Eq for WNode {}

impl std::hash::Hash for WNode {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.st.hash(h)
    }
}

/// The witness search as a state space: identical expansion to
/// [`PromisingSpace`], but carrying the step path and halting at the
/// first finished state whose outcome matches the bindings.
struct WitnessSpace<'a, 'b> {
    ctx: StepCtx<'a>,
    bindings: &'b [(&'b str, Val)],
}

impl StateSpace for WitnessSpace<'_, '_> {
    type State = WNode;
    type Emit = Vec<WitnessStep>;

    fn initial(&self) -> Vec<WNode> {
        vec![WNode {
            st: PState::initial(self.ctx.prog),
            path: Vec::new(),
        }]
    }

    fn expand(&self, node: &WNode, sink: &mut Sink<WNode, Vec<WitnessStep>>) {
        let ctx = &self.ctx;
        let st = &node.st;
        if st.all_finished() {
            let outcome = st.outcome(ctx.prog);
            if self.bindings.iter().all(|(n, v)| outcome.get(n) == *v) {
                sink.emit(node.path.clone());
                sink.halt();
            }
            return;
        }
        let mut eff = Effects::default();
        for tid in 0..ctx.prog.threads.len() {
            if st.threads[tid].status != Status::Running {
                continue;
            }
            let pc = st.threads[tid].pc;
            for next in ctx.thread_successors(st, tid, &mut eff) {
                if !next.threads[tid].prom.is_empty() && !ctx.certify(&next, tid, &mut eff) {
                    continue;
                }
                let mut p = node.path.clone();
                p.push(WitnessStep {
                    tid,
                    pc,
                    what: describe_step(ctx.prog, st, &next, tid),
                });
                sink.push(WNode { st: next, path: p });
            }
            for (next, loc, val, ts) in ctx.promise_steps(st, tid) {
                if ctx.certify(&next, tid, &mut eff) {
                    let mut p = node.path.clone();
                    p.push(WitnessStep {
                        tid,
                        pc,
                        what: format!("PROMISE [{loc:#x}] := {val} @ts{ts}"),
                    });
                    sink.push(WNode { st: next, path: p });
                }
            }
        }
    }
}

/// Renders a step by diffing the successor against the predecessor.
fn describe_step(prog: &Program, before: &PState, after: &PState, tid: usize) -> String {
    let t0 = &before.threads[tid];
    let t1 = &after.threads[tid];
    let mut parts: Vec<String> = Vec::new();
    let mut shown_dst: Option<u8> = None;
    if t0.pc < prog.threads[tid].code.len() {
        let inst = &prog.threads[tid].code[t0.pc];
        parts.push(inst_mnemonic(inst));
        // Always show a load's destination, even when the value happens to
        // equal the register's previous contents.
        if let Inst::Load { dst, .. } | Inst::LoadEx { dst, .. } | Inst::Rmw { dst, .. } = inst {
            let (v, view) = t1.regs[dst.0 as usize];
            parts.push(format!("r{} = {} (view ts{})", dst.0, v, view));
            shown_dst = Some(dst.0);
        }
    }
    if after.mem.len() > before.mem.len() {
        for (i, m) in after.mem.iter().enumerate().skip(before.mem.len()) {
            parts.push(format!("wrote [{:#x}] := {} @ts{}", m.loc, m.val, i + 1));
        }
    }
    if t1.prom.len() < t0.prom.len() {
        for ts in t0.prom.difference(&t1.prom) {
            parts.push(format!("fulfilled promise @ts{ts}"));
        }
    }
    for r in 0..t0.regs.len() {
        if t0.regs[r] != t1.regs[r] && shown_dst != Some(r as u8) {
            parts.push(format!(
                "r{} = {} (view ts{})",
                r, t1.regs[r].0, t1.regs[r].1
            ));
        }
    }
    if t1.status != t0.status {
        parts.push(format!("-> {:?}", t1.status));
    }
    parts.join("; ")
}

/// Short mnemonic for an instruction.
fn inst_mnemonic(i: &Inst) -> String {
    match i {
        Inst::Mov { .. } => "MOV".into(),
        Inst::Load { acq, .. } => if *acq { "LDAR" } else { "LDR" }.into(),
        Inst::Store { rel, .. } => if *rel { "STLR" } else { "STR" }.into(),
        Inst::Rmw { .. } => "RMW".into(),
        Inst::LoadEx { acq, .. } => if *acq { "LDAXR" } else { "LDXR" }.into(),
        Inst::StoreEx { rel, .. } => if *rel { "STLXR" } else { "STXR" }.into(),
        Inst::Fence(f) => format!("DMB.{f:?}"),
        Inst::Br { .. } => "B.cond".into(),
        Inst::Jmp(_) => "B".into(),
        Inst::LoadVirt { .. } => "LDR(virt)".into(),
        Inst::StoreVirt { .. } => "STR(virt)".into(),
        Inst::Tlbi { .. } => "TLBI".into(),
        Inst::Pull(_) => "PULL".into(),
        Inst::Push(_) => "PUSH".into(),
        Inst::Oracle { .. } => "ORACLE".into(),
        Inst::Halt => "HALT".into(),
        Inst::Panic => "PANIC".into(),
        Inst::Nop => "NOP".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ir::{Reg, VmConfig};
    use crate::sc::enumerate_sc;

    fn no_promises() -> PromisingConfig {
        PromisingConfig {
            promises: false,
            ..Default::default()
        }
    }

    #[test]
    fn mp_plain_allows_stale_data() {
        // Message passing without barriers: flag=1 with data=0 is allowed
        // on Arm (read-read reordering) but not on SC.
        let (x, f) = (0x10u64, 0x20u64);
        let mut p = ProgramBuilder::new("MP");
        p.thread("T0", |t| {
            t.store(x, 42u64, false);
            t.store(f, 1u64, false);
        });
        p.thread("T1", |t| {
            t.load(Reg(0), f, false);
            t.load(Reg(1), x, false);
        });
        p.observe_reg("flag", 1, Reg(0));
        p.observe_reg("data", 1, Reg(1));
        let prog = p.build();
        let rm = enumerate_promising_with(&prog, &no_promises())
            .unwrap()
            .outcomes;
        assert!(rm.contains_binding(&[("flag", 1), ("data", 0)]));
        let sc = enumerate_sc(&prog).unwrap();
        assert!(!sc.contains_binding(&[("flag", 1), ("data", 0)]));
        assert!(sc.is_subset(&rm));
    }

    #[test]
    fn mp_release_acquire_forbids_stale_data() {
        let (x, f) = (0x10u64, 0x20u64);
        let mut p = ProgramBuilder::new("MP+rel+acq");
        p.thread("T0", |t| {
            t.store(x, 42u64, false);
            t.store(f, 1u64, true);
        });
        p.thread("T1", |t| {
            t.load(Reg(0), f, true);
            t.load(Reg(1), x, false);
        });
        p.observe_reg("flag", 1, Reg(0));
        p.observe_reg("data", 1, Reg(1));
        let rm = enumerate_promising(&p.build()).unwrap();
        assert!(!rm.contains_binding(&[("flag", 1), ("data", 0)]));
        assert!(rm.contains_binding(&[("flag", 1), ("data", 42)]));
    }

    #[test]
    fn mp_dmb_forbids_stale_data() {
        let (x, f) = (0x10u64, 0x20u64);
        let mut p = ProgramBuilder::new("MP+dmbs");
        p.thread("T0", |t| {
            t.store(x, 42u64, false);
            t.dmb();
            t.store(f, 1u64, false);
        });
        p.thread("T1", |t| {
            t.load(Reg(0), f, false);
            t.dmb();
            t.load(Reg(1), x, false);
        });
        p.observe_reg("flag", 1, Reg(0));
        p.observe_reg("data", 1, Reg(1));
        let rm = enumerate_promising(&p.build()).unwrap();
        assert!(!rm.contains_binding(&[("flag", 1), ("data", 0)]));
    }

    #[test]
    fn sb_allows_both_zero_on_rm() {
        let (x, y) = (0x10u64, 0x20u64);
        let mut p = ProgramBuilder::new("SB");
        p.thread("T0", |t| {
            t.store(x, 1u64, false);
            t.load(Reg(0), y, false);
        });
        p.thread("T1", |t| {
            t.store(y, 1u64, false);
            t.load(Reg(0), x, false);
        });
        p.observe_reg("r0", 0, Reg(0));
        p.observe_reg("r1", 1, Reg(0));
        let rm = enumerate_promising_with(&p.build(), &no_promises())
            .unwrap()
            .outcomes;
        assert!(rm.contains_binding(&[("r0", 0), ("r1", 0)]));
    }

    #[test]
    fn lb_requires_promises() {
        let (x, y) = (0x10u64, 0x20u64);
        let mut p = ProgramBuilder::new("LB");
        p.thread("T0", |t| {
            t.load(Reg(0), x, false);
            t.store(y, 1u64, false);
        });
        p.thread("T1", |t| {
            t.load(Reg(1), y, false);
            t.store(x, Reg(1), false);
        });
        p.observe_reg("r0", 0, Reg(0));
        p.observe_reg("r1", 1, Reg(1));
        let prog = p.build();
        let without = enumerate_promising_with(&prog, &no_promises())
            .unwrap()
            .outcomes;
        assert!(!without.contains_binding(&[("r0", 1), ("r1", 1)]));
        let with = enumerate_promising(&prog).unwrap();
        assert!(with.contains_binding(&[("r0", 1), ("r1", 1)]));
    }

    #[test]
    fn lb_data_dependency_forbids_thin_air() {
        // LB+datas: both stores data-depend on the loads; r0=r1=1 would be
        // out-of-thin-air and must be forbidden (certification fails).
        let (x, y) = (0x10u64, 0x20u64);
        let mut p = ProgramBuilder::new("LB+datas");
        p.thread("T0", |t| {
            t.load(Reg(0), x, false);
            t.store(y, Reg(0), false);
        });
        p.thread("T1", |t| {
            t.load(Reg(1), y, false);
            t.store(x, Reg(1), false);
        });
        p.observe_reg("r0", 0, Reg(0));
        p.observe_reg("r1", 1, Reg(1));
        let rm = enumerate_promising(&p.build()).unwrap();
        assert!(!rm.contains_binding(&[("r0", 1), ("r1", 1)]));
    }

    #[test]
    fn coherence_same_location() {
        // CoRR: two reads of the same location by one thread may not go
        // backwards in coherence order.
        let x = 0x10u64;
        let mut p = ProgramBuilder::new("CoRR");
        p.thread("T0", |t| {
            t.store(x, 1u64, false);
        });
        p.thread("T1", |t| {
            t.load(Reg(0), x, false);
            t.load(Reg(1), x, false);
        });
        p.observe_reg("a", 1, Reg(0));
        p.observe_reg("b", 1, Reg(1));
        let rm = enumerate_promising(&p.build()).unwrap();
        assert!(!rm.contains_binding(&[("a", 1), ("b", 0)]));
        assert!(rm.contains_binding(&[("a", 0), ("b", 1)]));
    }

    #[test]
    fn rmw_atomicity_two_increments() {
        let c = 0x10u64;
        let mut p = ProgramBuilder::new("inc2");
        for _ in 0..2 {
            p.thread("t", |t| {
                t.fetch_and_inc_acq(Reg(0), c);
            });
        }
        p.observe_mem("ctr", c);
        p.observe_reg("t0", 0, Reg(0));
        p.observe_reg("t1", 1, Reg(0));
        let rm = enumerate_promising(&p.build()).unwrap();
        for o in rm.iter() {
            assert_eq!(o.get("ctr"), 2, "lost update: {o}");
            assert_ne!(o.get("t0"), o.get("t1"), "duplicate ticket: {o}");
        }
    }

    #[test]
    fn example4_out_of_order_page_table_reads() {
        // Paper Example 4: remap two pages; a reader may see the *second*
        // new mapping but the *first* old one (impossible on SC).
        let vm = VmConfig {
            levels: 1,
            root: 0x100,
            page_bits: 4,
            index_bits: 4,
        };
        // Virtual pages 0x8 and 0x9 (va 0x80, 0x90); physical pages:
        // 0x10/0x11 all-zero, 0x20/0x21 all-one.
        let mut p = ProgramBuilder::new("Example 4");
        p.vm(vm);
        p.init(0x108, 0x10);
        p.init(0x109, 0x11);
        p.init_range(0x20, 16, 1);
        p.init_range(0x21, 16, 1);
        p.thread("CPU 1", |t| {
            t.store(0x108u64, 0x20u64, false); // pte[x] := new
            t.store(0x109u64, 0x21u64, false); // pte[y] := new
        });
        p.thread("CPU 2", |t| {
            t.load_virt(Reg(0), 0x90u64, false); // r0 := [y]
            t.load_virt(Reg(1), 0x80u64, false); // r1 := [x]
        });
        p.observe_reg("r0", 1, Reg(0));
        p.observe_reg("r1", 1, Reg(1));
        let prog = p.build();
        let rm = enumerate_promising_with(&prog, &no_promises())
            .unwrap()
            .outcomes;
        assert!(rm.contains_binding(&[("r0", 1), ("r1", 0)]));
        let sc = enumerate_sc(&prog).unwrap();
        assert!(!sc.contains_binding(&[("r0", 1), ("r1", 0)]));
    }

    #[test]
    fn example6_stale_tlb_without_barrier() {
        // Paper Example 6: unmap + TLBI *without* a barrier lets another
        // CPU walk the old mapping after the invalidation and cache it.
        let vm = VmConfig {
            levels: 1,
            root: 0x100,
            page_bits: 4,
            index_bits: 4,
        };
        let mut p = ProgramBuilder::new("Example 6 (buggy)");
        p.vm(vm);
        p.init(0x108, 0x10); // va page 8 -> pa page 0x10
        p.init_range(0x10, 16, 7);
        p.thread("CPU 1", |t| {
            t.store(0x108u64, 0u64, false); // (a) unmap
            t.tlbi_va(0x80u64); // (b) invalidate, NO barrier
        });
        p.thread("CPU 2", |t| {
            t.load_virt(Reg(0), 0x80u64, false); // (c)
            t.load_virt(Reg(1), 0x80u64, false); // (d)
        });
        p.observe_reg("r0", 1, Reg(0));
        p.observe_reg("r1", 1, Reg(1));
        let prog = p.build();
        let rm = enumerate_promising_with(&prog, &no_promises())
            .unwrap()
            .outcomes;
        // Both reads may still see the old page on RM even when they both
        // executed after the TLBI; detectable as r0=r1=7 with CPU 1 done
        // first is indistinguishable here, so instead check the repaired
        // version forbids nothing extra vs SC in test below.
        assert!(rm.contains_binding(&[("r0", 7), ("r1", 7)]));
    }

    #[test]
    fn example6_fixed_with_barrier_matches_sc() {
        let vm = VmConfig {
            levels: 1,
            root: 0x100,
            page_bits: 4,
            index_bits: 4,
        };
        let build = |barrier: bool| {
            let mut p = ProgramBuilder::new("Example 6");
            p.vm(vm);
            p.init(0x108, 0x10);
            p.init_range(0x10, 16, 7);
            p.thread("CPU 1", |t| {
                t.store(0x108u64, 0u64, false);
                if barrier {
                    t.dmb();
                }
                t.tlbi_va(0x80u64);
                t.store(0x30u64, 1u64, false); // signal: TLBI complete
            });
            p.thread("CPU 2", |t| {
                t.load(Reg(2), 0x30u64, true); // wait-free observation
                t.load_virt(Reg(0), 0x80u64, false);
            });
            p.observe_reg("saw_signal", 1, Reg(2));
            p.observe_reg("r0", 1, Reg(0));
            p.build()
        };
        // Buggy: CPU 2 observed the post-TLBI signal yet still read the old
        // page through a fresh walk.
        let rm_buggy = enumerate_promising_with(&build(false), &no_promises())
            .unwrap()
            .outcomes;
        assert!(rm_buggy.contains_binding(&[("saw_signal", 1), ("r0", 7)]));
        // Fixed: after the barrier'd TLBI is observed, walks must see the
        // unmap, so the access faults rather than reading stale data.
        let rm_fixed = enumerate_promising_with(&build(true), &no_promises())
            .unwrap()
            .outcomes;
        assert!(!rm_fixed.contains_binding(&[("saw_signal", 1), ("r0", 7)]));
    }

    #[test]
    fn witness_found_for_allowed_outcome() {
        let (x, f) = (0x10u64, 0x20u64);
        let mut p = crate::builder::ProgramBuilder::new("MP");
        p.thread("T0", |t| {
            t.store(x, 42u64, false);
            t.store(f, 1u64, false);
        });
        p.thread("T1", |t| {
            t.load(Reg(0), f, false);
            t.load(Reg(1), x, false);
        });
        p.observe_reg("flag", 1, Reg(0));
        p.observe_reg("data", 1, Reg(1));
        let prog = p.build();
        let w = find_witness(&prog, &no_promises(), &[("flag", 1), ("data", 0)])
            .unwrap()
            .expect("witness");
        assert!(!w.is_empty());
        // The witness must contain both stores and both loads.
        let text: String = w
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("STR"), "{text}");
        assert!(text.contains("LDR"), "{text}");
    }

    #[test]
    fn no_witness_for_forbidden_outcome() {
        let (x, f) = (0x10u64, 0x20u64);
        let mut p = crate::builder::ProgramBuilder::new("MP+rel+acq");
        p.thread("T0", |t| {
            t.store(x, 42u64, false);
            t.store(f, 1u64, true);
        });
        p.thread("T1", |t| {
            t.load(Reg(0), f, true);
            t.load(Reg(1), x, false);
        });
        p.observe_reg("flag", 1, Reg(0));
        p.observe_reg("data", 1, Reg(1));
        let prog = p.build();
        let w = find_witness(
            &prog,
            &PromisingConfig::default(),
            &[("flag", 1), ("data", 0)],
        )
        .unwrap();
        assert!(w.is_none());
    }

    #[test]
    fn witness_shows_promise_for_lb() {
        let (x, y) = (0x10u64, 0x20u64);
        let mut p = crate::builder::ProgramBuilder::new("LB");
        p.thread("T0", |t| {
            t.load(Reg(0), x, false);
            t.store(y, 1u64, false);
        });
        p.thread("T1", |t| {
            t.load(Reg(1), y, false);
            t.store(x, Reg(1), false);
        });
        p.observe_reg("r0", 0, Reg(0));
        p.observe_reg("r1", 1, Reg(1));
        let prog = p.build();
        let w = find_witness(&prog, &PromisingConfig::default(), &[("r0", 1), ("r1", 1)])
            .unwrap()
            .expect("witness");
        let text: String = w
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("PROMISE"), "{text}");
        assert!(text.contains("fulfilled promise"), "{text}");
    }

    #[test]
    fn ghost_pull_detects_race() {
        // Two threads access a shared counter; T0 pulls correctly, T1
        // accesses without pulling -> UnprotectedShared.
        let c = 0x10u64;
        let mut p = ProgramBuilder::new("ghost");
        p.thread("T0", |t| {
            t.pull(vec![Expr::Imm(c)]);
            t.load(Reg(0), c, false);
            t.store(c, 1u64, false);
            t.push(vec![Expr::Imm(c)]);
        });
        p.thread("T1", |t| {
            t.store(c, 2u64, false);
        });
        let cfg = PromisingConfig {
            promises: false,
            ghost: Some(GhostConfig {
                shared: [c].into(),
                check_barriers: false,
                kernel_pt: Vec::new(),
            }),
            ..Default::default()
        };
        let r = enumerate_promising_with(&p.build(), &cfg).unwrap();
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, GhostViolation::UnprotectedShared { tid: 1, .. })));
    }

    #[test]
    fn ghost_overlapping_critical_sections() {
        let c = 0x10u64;
        let mut p = ProgramBuilder::new("ghost2");
        for _ in 0..2 {
            p.thread("t", |t| {
                t.pull(vec![Expr::Imm(c)]);
                t.store(c, 1u64, false);
                t.push(vec![Expr::Imm(c)]);
            });
        }
        let cfg = PromisingConfig {
            promises: false,
            ghost: Some(GhostConfig {
                shared: [c].into(),
                check_barriers: false,
                kernel_pt: Vec::new(),
            }),
            ..Default::default()
        };
        let r = enumerate_promising_with(&p.build(), &cfg).unwrap();
        // Both threads pull unconditionally -> some interleaving must show
        // a pull of an owned location.
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, GhostViolation::PullOwned { .. })));
    }
}
