//! The sequentially consistent (SC) hardware model.
//!
//! SC is the interleaving model of Lamport: memory accesses of all CPUs
//! execute in some global sequential order that respects each CPU's program
//! order. [`enumerate_sc`] explores *every* interleaving (with state
//! memoization) and returns the set of observable outcomes — the right-hand
//! side of the wDRF theorem ("any behavior on RM is also observable on SC").
//!
//! Virtual accesses translate through a per-CPU TLB and, on a miss, a
//! page-table walk. Following the SC abstraction used by verification
//! frameworks (and by the paper's "on an SC model" arguments in Examples
//! 4-6), a walk is a *single atomic step* over the current page-table
//! snapshot; only the relaxed [`promising`](crate::promising) model walks
//! incrementally and can observe mixed old/new entries.

use std::collections::BTreeMap;

use vrm_explore::{digest128, ExploreConfig, Footprint, Sink, StateSpace};

use crate::ir::{Addr, Expr, Inst, Observable, Program, Val};
use crate::outcome::{Outcome, OutcomeSet, ThreadExit};
use crate::symm;
use crate::trace::{Event, EventKind, Trace};

/// Exploration limits for [`enumerate_sc`].
#[derive(Debug, Clone, Copy)]
pub struct ScConfig {
    /// Abort after visiting this many distinct states.
    pub max_states: usize,
    /// Worker threads for the exploration; `1` (the default, unless
    /// `VRM_JOBS` overrides it) selects the sequential reference driver.
    pub jobs: usize,
    /// Dynamic partial-order + thread-symmetry reduction (see
    /// `docs/REDUCTION.md`). On by default; the reduced walk visits
    /// fewer states but returns the identical outcome set. Turn off to
    /// run the exhaustive reference walk.
    pub reduction: bool,
}

impl Default for ScConfig {
    fn default() -> Self {
        Self {
            max_states: 4_000_000,
            jobs: ExploreConfig::jobs_from_env(),
            reduction: true,
        }
    }
}

/// Why a program could not be explored. Budget exhaustion is *not* an
/// error: it truncates the enumeration, which callers see as
/// [`Completeness::Truncated`](vrm_explore::Completeness) on the
/// returned outcome set's stats. What remains is a program the model
/// cannot run at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// A virtual access was executed without [`Program::vm`] being set.
    NoVmConfig,
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::NoVmConfig => write!(f, "virtual access without VmConfig"),
        }
    }
}

impl std::error::Error for ExploreError {}

/// Run status of one modelled CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Status {
    Running,
    Done,
    Fault,
    Panic,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CpuState {
    pc: usize,
    regs: Vec<Val>,
    status: Status,
    /// Exclusive monitor: address and the write sequence observed by the
    /// last LoadEx.
    excl: Option<(Addr, u64)>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ScState {
    mem: BTreeMap<Addr, Val>,
    cpus: Vec<CpuState>,
    /// Per-CPU TLB: virtual page number -> physical page base.
    tlbs: Vec<BTreeMap<Addr, Addr>>,
    /// Write sequence number per address (exclusive-monitor bookkeeping).
    wseq: BTreeMap<Addr, u64>,
}

impl ScState {
    fn initial(prog: &Program) -> Self {
        let nregs = prog.reg_count();
        ScState {
            mem: prog.init_mem.clone(),
            cpus: (0..prog.threads.len())
                .map(|_| CpuState {
                    pc: 0,
                    regs: vec![0; nregs],
                    status: Status::Running,
                    excl: None,
                })
                .collect(),
            tlbs: vec![BTreeMap::new(); prog.threads.len()],
            wseq: BTreeMap::new(),
        }
    }

    fn read(&self, addr: Addr, prog: &Program) -> Val {
        self.mem
            .get(&addr)
            .copied()
            .unwrap_or_else(|| prog.init_val(addr))
    }

    fn bump_wseq(&mut self, addr: Addr) {
        *self.wseq.entry(addr).or_insert(0) += 1;
    }

    fn all_finished(&self) -> bool {
        self.cpus.iter().all(|c| c.status != Status::Running)
    }

    fn outcome(&self, prog: &Program) -> Outcome {
        let values = prog
            .observables
            .iter()
            .map(|o| match o {
                Observable::Reg { name, tid, reg } => {
                    (name.clone(), self.cpus[*tid].regs[reg.0 as usize])
                }
                Observable::Mem { name, addr } => (name.clone(), self.read(*addr, prog)),
            })
            .collect();
        let exits = self
            .cpus
            .iter()
            .map(|c| match c.status {
                Status::Done => ThreadExit::Done,
                Status::Fault => ThreadExit::Fault,
                Status::Panic => ThreadExit::Panic,
                Status::Running => ThreadExit::Stuck,
            })
            .collect();
        Outcome { values, exits }
    }
}

fn eval(e: &Expr, regs: &[Val]) -> Val {
    match e {
        Expr::Imm(v) => *v,
        Expr::Reg(r) => regs[r.0 as usize],
        Expr::Bin(op, a, b) => {
            let (a, b) = (eval(a, regs), eval(b, regs));
            use crate::ir::BinOp::*;
            match op {
                Add => a.wrapping_add(b),
                Sub => a.wrapping_sub(b),
                And => a & b,
                Or => a | b,
                Xor => a ^ b,
                Mul => a.wrapping_mul(b),
                Shr => a.wrapping_shr(b as u32),
                Shl => a.wrapping_shl(b as u32),
                Eq => (a == b) as Val,
                Ne => (a != b) as Val,
                Lt => (a < b) as Val,
            }
        }
    }
}

/// Atomically translates `va` for CPU `tid`: TLB hit, or a full walk of
/// the current page-table snapshot (this is the SC model's abstraction of
/// translation — on SC a walk is a single step, unlike on RM hardware).
///
/// Returns `Ok(None)` on a translation fault (after emitting the events).
fn translate(
    st: &mut ScState,
    prog: &Program,
    tid: usize,
    va: Addr,
    pc: usize,
    trace: &mut Option<&mut Trace>,
) -> Result<Option<Addr>, ExploreError> {
    let vm = prog.vm.ok_or(ExploreError::NoVmConfig)?;
    let emit = |e: EventKind, trace: &mut Option<&mut Trace>| {
        if let Some(t) = trace.as_deref_mut() {
            t.push(Event { tid, pc, kind: e });
        }
    };
    let vpn = vm.vpn(va);
    if let Some(&page) = st.tlbs[tid].get(&vpn) {
        emit(EventKind::TlbHit { vpn, page }, trace);
        return Ok(Some(page + vm.offset(va)));
    }
    let mut table = vm.root;
    for level in 0..vm.levels {
        let cell = table + vm.index(va, level);
        let entry = st.read(cell, prog);
        emit(
            EventKind::WalkRead {
                va,
                addr: cell,
                val: entry,
                level,
            },
            trace,
        );
        if entry == 0 {
            emit(EventKind::Fault { va }, trace);
            return Ok(None);
        }
        table = entry;
    }
    st.tlbs[tid].insert(vpn, table);
    emit(EventKind::TlbFill { vpn, page: table }, trace);
    Ok(Some(table + vm.offset(va)))
}

/// Advances thread `tid` by one atomic SC step.
///
/// Returns `Ok(true)` if the thread took a step, `Ok(false)` if it is not
/// runnable. Emits trace events into `trace` if provided.
fn step(
    st: &mut ScState,
    prog: &Program,
    tid: usize,
    mut trace: Option<&mut Trace>,
) -> Result<bool, ExploreError> {
    let code = &prog.threads[tid].code;
    if st.cpus[tid].status != Status::Running {
        return Ok(false);
    }
    let emit = |e: EventKind, pc: usize, trace: &mut Option<&mut Trace>| {
        if let Some(t) = trace.as_deref_mut() {
            t.push(Event { tid, pc, kind: e });
        }
    };

    let cpu_pc = st.cpus[tid].pc;
    if cpu_pc >= code.len() {
        st.cpus[tid].status = Status::Done;
        return Ok(true);
    }
    let inst = code[cpu_pc].clone();
    let mut next_pc = cpu_pc + 1;
    match inst {
        Inst::Mov { dst, src } => {
            let v = eval(&src, &st.cpus[tid].regs);
            st.cpus[tid].regs[dst.0 as usize] = v;
        }
        Inst::Load { dst, addr, acq } => {
            let a = eval(&addr, &st.cpus[tid].regs);
            let v = st.read(a, prog);
            st.cpus[tid].regs[dst.0 as usize] = v;
            emit(
                EventKind::Read {
                    addr: a,
                    val: v,
                    acq,
                },
                cpu_pc,
                &mut trace,
            );
        }
        Inst::Store { val, addr, rel } => {
            let a = eval(&addr, &st.cpus[tid].regs);
            let v = eval(&val, &st.cpus[tid].regs);
            st.mem.insert(a, v);
            st.bump_wseq(a);
            emit(
                EventKind::Write {
                    addr: a,
                    val: v,
                    rel,
                },
                cpu_pc,
                &mut trace,
            );
        }
        Inst::Rmw {
            dst,
            addr,
            op,
            rhs,
            acq,
            rel,
        } => {
            let a = eval(&addr, &st.cpus[tid].regs);
            let r = eval(&rhs, &st.cpus[tid].regs);
            let old = st.read(a, prog);
            let new = op.apply(old, r);
            st.mem.insert(a, new);
            st.bump_wseq(a);
            st.cpus[tid].regs[dst.0 as usize] = old;
            emit(
                EventKind::Rmw {
                    addr: a,
                    old,
                    new,
                    acq,
                    rel,
                },
                cpu_pc,
                &mut trace,
            );
        }
        Inst::LoadEx { dst, addr, acq } => {
            let a = eval(&addr, &st.cpus[tid].regs);
            let v = st.read(a, prog);
            st.cpus[tid].regs[dst.0 as usize] = v;
            let seq = st.wseq.get(&a).copied().unwrap_or(0);
            st.cpus[tid].excl = Some((a, seq));
            emit(
                EventKind::Read {
                    addr: a,
                    val: v,
                    acq,
                },
                cpu_pc,
                &mut trace,
            );
        }
        Inst::StoreEx {
            status,
            val,
            addr,
            rel,
        } => {
            let a = eval(&addr, &st.cpus[tid].regs);
            let v = eval(&val, &st.cpus[tid].regs);
            let armed = st.cpus[tid].excl == Some((a, st.wseq.get(&a).copied().unwrap_or(0)));
            st.cpus[tid].excl = None;
            if armed {
                st.mem.insert(a, v);
                st.bump_wseq(a);
                st.cpus[tid].regs[status.0 as usize] = 0;
                emit(
                    EventKind::Write {
                        addr: a,
                        val: v,
                        rel,
                    },
                    cpu_pc,
                    &mut trace,
                );
            } else {
                st.cpus[tid].regs[status.0 as usize] = 1;
            }
        }
        Inst::Fence(f) => emit(EventKind::Fence(f), cpu_pc, &mut trace),
        Inst::Br {
            cond,
            lhs,
            rhs,
            target,
        } => {
            let l = eval(&lhs, &st.cpus[tid].regs);
            let r = eval(&rhs, &st.cpus[tid].regs);
            if cond.eval(l, r) {
                next_pc = target;
            }
        }
        Inst::Jmp(t) => next_pc = t,
        Inst::LoadVirt { dst, va, acq } => {
            let vaddr = eval(&va, &st.cpus[tid].regs);
            match translate(st, prog, tid, vaddr, cpu_pc, &mut trace)? {
                Some(pa) => {
                    let v = st.read(pa, prog);
                    st.cpus[tid].regs[dst.0 as usize] = v;
                    emit(
                        EventKind::Read {
                            addr: pa,
                            val: v,
                            acq,
                        },
                        cpu_pc,
                        &mut trace,
                    );
                }
                None => {
                    st.cpus[tid].status = Status::Fault;
                    return Ok(true);
                }
            }
        }
        Inst::StoreVirt { val, va, rel } => {
            let vaddr = eval(&va, &st.cpus[tid].regs);
            let v = eval(&val, &st.cpus[tid].regs);
            match translate(st, prog, tid, vaddr, cpu_pc, &mut trace)? {
                Some(pa) => {
                    st.mem.insert(pa, v);
                    st.bump_wseq(pa);
                    emit(
                        EventKind::Write {
                            addr: pa,
                            val: v,
                            rel,
                        },
                        cpu_pc,
                        &mut trace,
                    );
                }
                None => {
                    st.cpus[tid].status = Status::Fault;
                    return Ok(true);
                }
            }
        }
        Inst::Tlbi { va } => {
            let vm = prog.vm.ok_or(ExploreError::NoVmConfig)?;
            let vpn = va.map(|e| vm.vpn(eval(&e, &st.cpus[tid].regs)));
            for tlb in &mut st.tlbs {
                match vpn {
                    Some(p) => {
                        tlb.remove(&p);
                    }
                    None => tlb.clear(),
                }
            }
            emit(EventKind::Tlbi { vpn }, cpu_pc, &mut trace);
        }
        Inst::Pull(locs) => {
            let locs = locs.iter().map(|e| eval(e, &st.cpus[tid].regs)).collect();
            emit(EventKind::Pull { locs }, cpu_pc, &mut trace);
        }
        Inst::Push(locs) => {
            let locs = locs.iter().map(|e| eval(e, &st.cpus[tid].regs)).collect();
            emit(EventKind::Push { locs }, cpu_pc, &mut trace);
        }
        Inst::Oracle { dst, choices } => {
            // Deterministic contexts (run_schedule) take the first choice;
            // exhaustive enumeration branches over all choices separately.
            st.cpus[tid].regs[dst.0 as usize] = choices[0];
        }
        Inst::Halt => {
            st.cpus[tid].status = Status::Done;
            return Ok(true);
        }
        Inst::Panic => {
            emit(EventKind::Panic, cpu_pc, &mut trace);
            st.cpus[tid].status = Status::Panic;
            return Ok(true);
        }
        Inst::Nop => {}
    }
    st.cpus[tid].pc = next_pc;
    Ok(true)
}

/// Exhaustively enumerates every SC interleaving of `prog`.
///
/// Returns the set of observable outcomes. Livelocked branches (states whose
/// successors were all already visited without any thread finishing) yield
/// no outcome, matching the paper's treatment of execution *results*.
///
/// # Examples
///
/// ```
/// use vrm_memmodel::builder::ProgramBuilder;
/// use vrm_memmodel::ir::Reg;
/// use vrm_memmodel::sc::enumerate_sc;
///
/// // Store buffering: on SC at least one thread must see the other's write.
/// let (x, y) = (0x10, 0x20);
/// let mut p = ProgramBuilder::new("SB");
/// p.thread("T0", |t| {
///     t.store(x, 1, false);
///     t.load(Reg(0), y, false);
/// });
/// p.thread("T1", |t| {
///     t.store(y, 1, false);
///     t.load(Reg(0), x, false);
/// });
/// p.observe_reg("r0", 0, Reg(0));
/// p.observe_reg("r1", 1, Reg(0));
/// let outcomes = enumerate_sc(&p.build()).unwrap();
/// assert!(!outcomes.contains_binding(&[("r0", 0), ("r1", 0)]));
/// ```
pub fn enumerate_sc(prog: &Program) -> Result<OutcomeSet, ExploreError> {
    enumerate_sc_with(prog, &ScConfig::default())
}

/// The SC interleaving space as seen by the exploration engine: one
/// state per memoized machine configuration, expansion steps each
/// runnable thread (forking over `Oracle` choices), and finished states
/// emit their [`Outcome`]. The reduction hooks additionally name
/// per-thread footprints and the program's thread symmetry, which is
/// what the reduced drivers cut interleavings with.
struct ScSpace<'a> {
    prog: &'a Program,
    /// Non-identity tid permutations of the program's symmetry group
    /// (threads with identical code); empty when there is no symmetry.
    perms: Vec<Vec<usize>>,
    /// Static per-`[tid][pc]` future footprints: everything thread
    /// `tid` might still read or write from `pc` onward.
    futures: Vec<Vec<Footprint>>,
}

/// Applies a tid permutation to an SC state: per-thread slots (cpu
/// state, TLB) move with their thread; shared memory and the write
/// sequence are global and stay put.
fn permute_sc(st: &ScState, perm: &[usize]) -> ScState {
    let mut img = st.clone();
    for (old, &new) in perm.iter().enumerate() {
        img.cpus[new] = st.cpus[old].clone();
        img.tlbs[new] = st.tlbs[old].clone();
    }
    img
}

impl<'a> ScSpace<'a> {
    fn new(prog: &'a Program) -> Self {
        let groups = symm::symmetric_groups(prog);
        Self::with_groups(prog, &groups)
    }

    fn with_groups(prog: &'a Program, groups: &[Vec<usize>]) -> Self {
        ScSpace {
            prog,
            perms: symm::group_permutations(prog.threads.len(), groups),
            futures: prog
                .threads
                .iter()
                .map(|t| symm::thread_futures(&t.code, false))
                .collect(),
        }
    }
}

impl StateSpace for ScSpace<'_> {
    type State = ScState;
    type Emit = Result<Outcome, ExploreError>;

    fn initial(&self) -> Vec<ScState> {
        vec![ScState::initial(self.prog)]
    }

    fn expand(&self, st: &ScState, sink: &mut Sink<ScState, Self::Emit>) {
        if st.all_finished() {
            sink.emit(Ok(st.outcome(self.prog)));
            return;
        }
        for tid in 0..self.prog.threads.len() {
            self.expand_proc(st, tid, sink);
        }
    }

    fn enabled(&self, st: &ScState) -> Vec<usize> {
        st.cpus
            .iter()
            .enumerate()
            .filter(|(_, c)| c.status == Status::Running)
            .map(|(tid, _)| tid)
            .collect()
    }

    fn expand_proc(&self, st: &ScState, tid: usize, sink: &mut Sink<ScState, Self::Emit>) {
        let prog = self.prog;
        if st.cpus[tid].status != Status::Running {
            return;
        }
        // Oracle choices fork the exploration.
        let pc = st.cpus[tid].pc;
        let code = &prog.threads[tid].code;
        if pc < code.len() {
            if let Inst::Oracle { dst, choices } = &code[pc] {
                for &v in choices {
                    let mut next = st.clone();
                    next.cpus[tid].regs[dst.0 as usize] = v;
                    next.cpus[tid].pc += 1;
                    sink.push(next);
                }
                return;
            }
        }
        let mut next = st.clone();
        match step(&mut next, prog, tid, None) {
            Ok(_) => sink.push(next),
            Err(e) => sink.emit(Err(e)),
        }
    }

    fn now(&self, st: &ScState, tid: usize) -> Footprint {
        let cpu = &st.cpus[tid];
        if cpu.status != Status::Running {
            return Footprint::empty();
        }
        let code = &self.prog.threads[tid].code;
        if cpu.pc >= code.len() {
            // Done-step: flips the thread's own status, touches nothing.
            return Footprint::empty();
        }
        let mut fp = Footprint::empty();
        match &code[cpu.pc] {
            Inst::Load { addr, .. } | Inst::LoadEx { addr, .. } => {
                fp.read(eval(addr, &cpu.regs));
            }
            Inst::Store { addr, .. } => {
                fp.write(eval(addr, &cpu.regs));
            }
            Inst::StoreEx { addr, .. } | Inst::Rmw { addr, .. } => {
                let a = eval(addr, &cpu.regs);
                fp.read(a);
                fp.write(a);
            }
            Inst::LoadVirt { .. } | Inst::StoreVirt { .. } | Inst::Tlbi { .. } => {
                return Footprint::top();
            }
            _ => {}
        }
        fp
    }

    fn future(&self, st: &ScState, tid: usize) -> Footprint {
        let cpu = &st.cpus[tid];
        if cpu.status != Status::Running {
            return Footprint::empty();
        }
        self.futures[tid].get(cpu.pc).cloned().unwrap_or_default()
    }

    fn canon(&self, st: &ScState) -> Option<ScState> {
        if self.perms.is_empty() {
            return None;
        }
        let mut best: Option<(u128, ScState)> = None;
        let d0 = digest128(st);
        for perm in &self.perms {
            let img = permute_sc(st, perm);
            let d = digest128(&img);
            if d < best.as_ref().map_or(d0, |(bd, _)| *bd) {
                best = Some((d, img));
            }
        }
        best.map(|(_, img)| img)
    }

    fn orbit(&self, st: &ScState) -> Vec<ScState> {
        self.perms.iter().map(|p| permute_sc(st, p)).collect()
    }
}

/// [`enumerate_sc`] with explicit limits.
///
/// Exceeding `max_states` no longer errors: the returned set holds the
/// outcomes found so far and its `stats.completeness` records the
/// truncation, which the theorem layer turns into an `Unknown` verdict.
pub fn enumerate_sc_with(prog: &Program, cfg: &ScConfig) -> Result<OutcomeSet, ExploreError> {
    let _span = vrm_obs::span!("enumerate.sc", prog = prog.name.as_str(), jobs = cfg.jobs);
    let space = ScSpace::new(prog);
    collect_sc(&space, cfg)
}

#[doc(hidden)]
/// Campaign-mutant hook (`canon-identity`): the reduced SC enumeration
/// with every thread forced into one symmetry group regardless of code.
/// Exists so the mutation campaign can prove an unsound over-prune
/// flips a corpus verdict; not part of the public API.
pub fn enumerate_sc_all_symmetric(
    prog: &Program,
    cfg: &ScConfig,
) -> Result<OutcomeSet, ExploreError> {
    let groups = symm::all_threads_one_group(prog);
    let space = ScSpace::with_groups(prog, &groups);
    collect_sc(
        &space,
        &ScConfig {
            reduction: true,
            ..*cfg
        },
    )
}

#[doc(hidden)]
/// Campaign-mutant hook (`dpor-sleep-set-never-blocks`): the reduced SC
/// enumeration with sleep-set pruning disabled — every sibling process
/// stays awake, so the sequential walk re-derives interleavings the
/// sleep sets would have cut. Outcome-equivalent by construction, but
/// strictly larger on any program with independent steps; the campaign
/// kills the mutant by its deterministic popped-count mismatch against
/// the sound reduced walk. Not part of the public API.
pub fn enumerate_sc_sleepless(prog: &Program, cfg: &ScConfig) -> Result<OutcomeSet, ExploreError> {
    let cfg = ScConfig {
        jobs: 1,
        reduction: true,
        ..*cfg
    };
    collect_sc(&Sleepless(ScSpace::new(prog)), &cfg)
}

/// Thread ids as [`Sleepless`] hands them to the engine: shifted past
/// its 64-bit sleep mask.
const PAST_SLEEP_MASK: usize = 64;

/// The SC space with every thread id shifted past the engine's sleep
/// mask. The sequential driver never sleeps such ids, so the walk keeps
/// ample sets and symmetry but loses sleep-set pruning.
struct Sleepless<'a>(ScSpace<'a>);

impl StateSpace for Sleepless<'_> {
    type State = ScState;
    type Emit = Result<Outcome, ExploreError>;

    fn initial(&self) -> Vec<ScState> {
        self.0.initial()
    }

    fn expand(&self, st: &ScState, sink: &mut Sink<ScState, Self::Emit>) {
        self.0.expand(st, sink);
    }

    fn enabled(&self, st: &ScState) -> Vec<usize> {
        let tids = self.0.enabled(st).into_iter();
        tids.map(|tid| tid + PAST_SLEEP_MASK).collect()
    }

    fn expand_proc(&self, st: &ScState, p: usize, sink: &mut Sink<ScState, Self::Emit>) {
        self.0.expand_proc(st, p - PAST_SLEEP_MASK, sink);
    }

    fn now(&self, st: &ScState, p: usize) -> Footprint {
        self.0.now(st, p - PAST_SLEEP_MASK)
    }

    fn future(&self, st: &ScState, p: usize) -> Footprint {
        self.0.future(st, p - PAST_SLEEP_MASK)
    }

    fn canon(&self, st: &ScState) -> Option<ScState> {
        self.0.canon(st)
    }

    fn orbit(&self, st: &ScState) -> Vec<ScState> {
        self.0.orbit(st)
    }
}

/// Runs the exploration (reduced or not, per [`ScConfig::reduction`])
/// and folds emissions into an [`OutcomeSet`].
fn collect_sc<SP>(space: &SP, cfg: &ScConfig) -> Result<OutcomeSet, ExploreError>
where
    SP: StateSpace<Emit = Result<Outcome, ExploreError>>,
{
    let ecfg = ExploreConfig::with_max_states(cfg.max_states)
        .jobs(cfg.jobs)
        .reduction(cfg.reduction);
    let exploration = vrm_explore::explore(space, &ecfg, None);
    let mut outcomes = OutcomeSet::new();
    for emit in exploration.emits {
        outcomes.insert(emit?);
    }
    outcomes.stats = exploration.stats;
    Ok(outcomes)
}

/// Runs one SC execution under an explicit schedule, returning the outcome
/// and the full event trace.
///
/// `schedule` lists thread ids; each entry advances that thread by one
/// atomic step (entries for finished threads are skipped). After the
/// schedule is exhausted, remaining threads run round-robin until everything
/// finishes or `max_steps` is hit.
pub fn run_schedule(
    prog: &Program,
    schedule: &[usize],
    max_steps: usize,
) -> Result<(Outcome, Trace), ExploreError> {
    let mut st = ScState::initial(prog);
    let mut trace = Trace::new();
    for &tid in schedule {
        if st.all_finished() {
            break;
        }
        step(&mut st, prog, tid, Some(&mut trace))?;
    }
    let mut steps = 0usize;
    'outer: while !st.all_finished() {
        let mut progressed = false;
        for tid in 0..prog.threads.len() {
            if st.cpus[tid].status == Status::Running {
                step(&mut st, prog, tid, Some(&mut trace))?;
                progressed = true;
                steps += 1;
                if steps > max_steps {
                    break 'outer;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    Ok((st.outcome(prog), trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ir::{Cond, Reg, VmConfig};

    fn sb() -> Program {
        let (x, y) = (0x10, 0x20);
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
        p.build()
    }

    #[test]
    fn sb_on_sc_forbids_both_zero() {
        let o = enumerate_sc(&sb()).unwrap();
        assert!(o.contains_binding(&[("r0", 1), ("r1", 1)]));
        assert!(o.contains_binding(&[("r0", 0), ("r1", 1)]));
        assert!(o.contains_binding(&[("r0", 1), ("r1", 0)]));
        assert!(!o.contains_binding(&[("r0", 0), ("r1", 0)]));
        assert_eq!(o.len(), 3);
    }

    #[test]
    fn message_passing_on_sc() {
        let (x, flag) = (0x10, 0x20);
        let mut p = ProgramBuilder::new("MP");
        p.thread("T0", |t| {
            t.store(x, 42u64, false);
            t.store(flag, 1u64, false);
        });
        p.thread("T1", |t| {
            t.load(Reg(0), flag, false);
            t.load(Reg(1), x, false);
        });
        p.observe_reg("flag", 1, Reg(0));
        p.observe_reg("data", 1, Reg(1));
        let o = enumerate_sc(&p.build()).unwrap();
        // flag=1 implies data=42 on SC.
        assert!(!o.contains_binding(&[("flag", 1), ("data", 0)]));
        assert!(o.contains_binding(&[("flag", 1), ("data", 42)]));
        assert!(o.contains_binding(&[("flag", 0), ("data", 0)]));
    }

    #[test]
    fn spin_loop_terminates_exploration() {
        let flag = 0x10;
        let mut p = ProgramBuilder::new("spin");
        p.thread("waiter", |t| {
            t.label("spin");
            t.load(Reg(0), flag, false);
            t.br(Cond::Ne, Reg(0), 1u64, "spin");
            t.mov(Reg(1), 99u64);
        });
        p.thread("setter", |t| {
            t.store(flag, 1u64, false);
        });
        p.observe_reg("r1", 0, Reg(1));
        let o = enumerate_sc(&p.build()).unwrap();
        // The only completed outcome has the waiter released.
        assert_eq!(o.len(), 1);
        assert!(o.contains_binding(&[("r1", 99)]));
    }

    #[test]
    fn rmw_is_atomic() {
        // Two increments always sum to 2 on SC thanks to RMW atomicity.
        let ctr = 0x10;
        let mut p = ProgramBuilder::new("inc2");
        for _ in 0..2 {
            p.thread("inc", |t| {
                t.fetch_and_inc_acq(Reg(0), ctr);
            });
        }
        p.observe_mem("ctr", ctr);
        p.observe_reg("t0", 0, Reg(0));
        p.observe_reg("t1", 1, Reg(0));
        let o = enumerate_sc(&p.build()).unwrap();
        assert_eq!(o.len(), 2); // tickets 0/1 drawn in either order
        assert!(o.iter().all(|oc| oc.get("ctr") == 2));
        assert!(o.iter().all(|oc| oc.get("t0") != oc.get("t1")));
    }

    #[test]
    fn virtual_load_walks_and_faults() {
        // 1-level table at 0x100; page 0x200 holds 7 at offset 3.
        let vm = VmConfig {
            levels: 1,
            root: 0x100,
            page_bits: 4,
            index_bits: 4,
        };
        let mut p = ProgramBuilder::new("vm");
        p.vm(vm);
        p.init(0x100, 0x200); // vpn 0 -> page 0x200
        p.init(0x203, 7);
        p.thread("T0", |t| {
            t.load_virt(Reg(0), 0x3u64, false); // va 3: vpn 0 offset 3
            t.load_virt(Reg(1), 0x13u64, false); // vpn 1: unmapped -> fault
        });
        p.observe_reg("r0", 0, Reg(0));
        let o = enumerate_sc(&p.build()).unwrap();
        assert_eq!(o.len(), 1);
        let oc = o.iter().next().unwrap();
        assert_eq!(oc.get("r0"), 7);
        assert_eq!(oc.exits[0], ThreadExit::Fault);
    }

    #[test]
    fn tlb_caches_translation_and_tlbi_flushes() {
        let vm = VmConfig {
            levels: 1,
            root: 0x100,
            page_bits: 4,
            index_bits: 4,
        };
        let mut p = ProgramBuilder::new("tlb");
        p.vm(vm);
        p.init(0x100, 0x200);
        p.init(0x200, 5);
        p.thread("T0", |t| {
            t.load_virt(Reg(0), 0u64, false); // walk, fill TLB
            t.store(0x100u64, 0u64, false); // unmap in the page table
            t.load_virt(Reg(1), 0u64, false); // TLB hit: stale OK
            t.tlbi_all();
            t.load_virt(Reg(2), 0u64, false); // walk again: fault
        });
        p.observe_reg("r0", 0, Reg(0));
        p.observe_reg("r1", 0, Reg(1));
        let o = enumerate_sc(&p.build()).unwrap();
        let oc = o.iter().next().unwrap();
        assert_eq!(oc.get("r0"), 5);
        assert_eq!(oc.get("r1"), 5); // served from stale TLB
        assert_eq!(oc.exits[0], ThreadExit::Fault);
    }

    #[test]
    fn run_schedule_produces_trace() {
        let p = sb();
        let (outcome, trace) = run_schedule(&p, &[0, 0, 1, 1], 100).unwrap();
        assert_eq!(outcome.get("r0"), 0);
        assert_eq!(outcome.get("r1"), 1);
        assert_eq!(trace.iter().filter(|e| e.is_write()).count(), 2);
        assert_eq!(trace.iter().filter(|e| e.is_read()).count(), 2);
    }

    #[test]
    fn panic_is_recorded() {
        let mut p = ProgramBuilder::new("panic");
        p.thread("T0", |t| {
            t.inst(Inst::Panic);
        });
        let o = enumerate_sc(&p.build()).unwrap();
        assert_eq!(o.iter().next().unwrap().exits[0], ThreadExit::Panic);
    }
}
