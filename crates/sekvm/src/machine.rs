//! The multiprocessor machine: CPUs running scripted operations against
//! one shared [`KCore`], with contended ticket-lock acquisition.
//!
//! Every operation is split into phases: the CPU first draws a ticket on
//! the operation's *primary* lock and spins (one scheduler step per spin
//! iteration, so lock hand-off interleaves across CPUs exactly like the
//! ticket lock of Figure 7), then executes the operation body, then
//! releases. A seeded scheduler picks the next CPU each step, so runs are
//! reproducible while exercising many interleavings.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use vrm_explore::{Deps, ExploreConfig, ExploreStats, Sink, StateSpace};
use vrm_memmodel::ir::{Addr, Val};
use vrm_memmodel::symm;

use crate::events::{LockId, MEvent};
use crate::kcore::{HypercallError, KCore, KCoreConfig};
use crate::ticketlock::Ticket;

/// One scripted operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Register a VM; the resulting vmid is stored in the CPU's vm slot.
    RegisterVm,
    /// Register a vCPU on the CPU's current VM.
    RegisterVcpu,
    /// Stage an image in KServ pages and set boot info for the CPU's VM.
    StageImage {
        /// Page frames to use (must be KServ-owned).
        pfns: Vec<u64>,
    },
    /// Remap + verify the CPU's VM image (boot completion).
    VerifyImage,
    /// Claim and immediately release a vCPU (a scheduling quantum).
    RunQuantum {
        /// vCPU index.
        vcpu: u32,
    },
    /// Handle a stage-2 fault for the CPU's VM.
    Fault {
        /// Guest physical address.
        gpa: Addr,
        /// Donated KServ page.
        donor_pfn: u64,
    },
    /// Grant the page backing `gpa` to KServ.
    Grant {
        /// Guest physical address.
        gpa: Addr,
    },
    /// Revoke the page backing `gpa` from KServ.
    Revoke {
        /// Guest physical address.
        gpa: Addr,
    },
    /// The VM writes a value.
    VmWrite {
        /// Guest physical address.
        gpa: Addr,
        /// Value.
        val: Val,
    },
    /// The VM reads and checks a value.
    VmReadExpect {
        /// Guest physical address.
        gpa: Addr,
        /// Expected value.
        expect: Val,
    },
    /// KServ attempts to read a physical address (attack or I/O).
    KservRead {
        /// Physical address.
        pa: Addr,
        /// Whether the read is expected to be allowed.
        expect_allowed: bool,
    },
    /// KServ attempts to write a physical address.
    KservWrite {
        /// Physical address.
        pa: Addr,
        /// Value.
        val: Val,
        /// Whether the write is expected to be allowed.
        expect_allowed: bool,
    },
    /// Tear down the CPU's VM.
    Reclaim,
    /// Adopt another CPU's VM (multiprocessor VM): waits until that CPU
    /// has registered *and verified* its VM.
    AttachVm {
        /// The CPU whose VM to adopt.
        owner_cpu: usize,
    },
    /// Claim a vCPU (`restore_vm`) and keep running it until
    /// [`Op::VcpuEnd`]. Waits (retrying under the lock) while the vCPU is
    /// ACTIVE on another CPU.
    VcpuBegin {
        /// vCPU index.
        vcpu: u32,
    },
    /// Save and release the vCPU claimed by [`Op::VcpuBegin`], after
    /// bumping its context (simulated guest progress).
    VcpuEnd,
    /// Rendezvous: waits until every CPU whose script contains the same
    /// barrier id has arrived.
    Rendezvous {
        /// Barrier identifier.
        id: u32,
    },
    /// Write a byte to the VM's emulated UART (the I/O User exit path).
    UartWrite {
        /// The byte.
        byte: u8,
    },
    /// Send a virtual IPI (SGI) to a vCPU of the CPU's VM.
    SendIpi {
        /// Target vCPU.
        to_vcpu: u32,
        /// Interrupt id.
        irq: u8,
    },
    /// Wait until `irq` is pending on `vcpu`, then acknowledge it.
    WaitIrq {
        /// Receiving vCPU.
        vcpu: u32,
        /// Interrupt id.
        irq: u8,
    },
}

impl Op {
    /// The primary lock the machine acquires (with contention) before
    /// running the body. `None` = lock-free operation.
    pub fn primary_lock(&self, vmid: Option<u32>) -> Option<LockId> {
        match self {
            Op::RegisterVm => Some(LockId::VmId),
            Op::RegisterVcpu
            | Op::StageImage { .. }
            | Op::VerifyImage
            | Op::RunQuantum { .. }
            | Op::Fault { .. }
            | Op::Grant { .. }
            | Op::Revoke { .. }
            | Op::Reclaim => vmid.map(LockId::Vm),
            Op::VcpuBegin { .. } | Op::SendIpi { .. } | Op::UartWrite { .. } => {
                vmid.map(LockId::Vm)
            }
            Op::KservRead { .. } | Op::KservWrite { .. } => None,
            Op::VmWrite { .. } | Op::VmReadExpect { .. } => None,
            Op::AttachVm { .. } | Op::VcpuEnd | Op::Rendezvous { .. } => None,
            Op::WaitIrq { .. } => None,
        }
    }
}

/// A per-CPU list of operations.
pub type Script = Vec<Op>;

/// What a CPU is doing right now.
#[derive(Debug, Clone)]
enum Phase {
    /// Ready to start its next op.
    Idle,
    /// Holding a drawn ticket, spinning on the primary lock.
    Spinning {
        lock: LockId,
        ticket: Ticket,
        spins: u64,
    },
    /// All ops done.
    Finished,
}

/// Per-CPU machine state.
#[derive(Debug, Clone)]
struct CpuState {
    script: Script,
    next_op: usize,
    phase: Phase,
    /// The VM this CPU registered/operates on.
    vm: Option<u32>,
    /// vCPU currently claimed via [`Op::VcpuBegin`].
    held: Option<(u32, u32, crate::vcpu::VcpuCtx)>,
}

/// What an operation body did.
enum Exec {
    /// Completed (successfully or with a recorded failure).
    Done,
    /// Cannot proceed yet: release the lock and retry later.
    Retry,
}

/// The outcome of a machine run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations that completed successfully.
    pub ops_ok: usize,
    /// Operations that failed, with their errors.
    pub failures: Vec<(usize, &'static str, HypercallError)>,
    /// Operations whose expectation (e.g. `expect_allowed`) was violated.
    pub expectation_violations: Vec<String>,
    /// Scheduler steps executed.
    pub steps: usize,
    /// Total lock spin iterations observed (contention measure).
    pub total_spins: u64,
    /// `true` if the machine stalled: no CPU could make progress (e.g. a
    /// rendezvous that can never complete).
    pub stalled: bool,
}

impl RunReport {
    /// `true` when nothing unexpected happened.
    pub fn clean(&self) -> bool {
        self.failures.is_empty() && self.expectation_violations.is_empty() && !self.stalled
    }
}

/// The multiprocessor machine.
#[derive(Debug)]
pub struct Machine {
    /// The shared trusted core.
    pub kcore: KCore,
    cpus: Vec<CpuState>,
    rng: StdRng,
}

impl Machine {
    /// Creates a machine with one script per CPU.
    pub fn new(cfg: KCoreConfig, scripts: Vec<Script>, seed: u64) -> Self {
        Machine {
            kcore: KCore::boot(cfg),
            cpus: scripts
                .into_iter()
                .map(|script| CpuState {
                    script,
                    next_op: 0,
                    phase: Phase::Idle,
                    vm: None,
                    held: None,
                })
                .collect(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Runs to completion (or `max_steps`), returning the report.
    pub fn run(&mut self, max_steps: usize) -> RunReport {
        let mut report = RunReport::default();
        // Stall detection: if no CPU completes an operation for this many
        // consecutive steps, every remaining CPU is waiting on something
        // that can never happen (deadlocked rendezvous, lost vCPU, ...).
        let stall_limit = 200
            * self.cpus.len().max(1)
            * self
                .cpus
                .iter()
                .map(|c| c.script.len() + 1)
                .max()
                .unwrap_or(1);
        let mut steps_without_progress = 0usize;
        while report.steps < max_steps {
            let runnable: Vec<usize> = (0..self.cpus.len())
                .filter(|&c| !matches!(self.cpus[c].phase, Phase::Finished))
                .collect();
            if runnable.is_empty() {
                break;
            }
            let before = report.ops_ok + report.failures.len();
            let cpu = runnable[self.rng.gen_range(0..runnable.len())];
            self.step(cpu, &mut report);
            report.steps += 1;
            if report.ops_ok + report.failures.len() > before {
                steps_without_progress = 0;
            } else {
                steps_without_progress += 1;
                if steps_without_progress > stall_limit {
                    report.stalled = true;
                    break;
                }
            }
        }
        report
    }

    fn step(&mut self, cpu: usize, report: &mut RunReport) {
        let (op, phase) = {
            let c = &self.cpus[cpu];
            if c.next_op >= c.script.len() {
                self.cpus[cpu].phase = Phase::Finished;
                return;
            }
            (c.script[c.next_op].clone(), c.phase.clone())
        };
        match phase {
            Phase::Finished => {}
            Phase::Idle => {
                // The skip-lock-acquire mutant runs every op body without
                // drawing a ticket; `wdrf::validate_log` must flag the
                // resulting unguarded page-table writes.
                let lock = if self.kcore.cfg.skip_lock_acquire {
                    None
                } else {
                    op.primary_lock(self.cpus[cpu].vm)
                };
                match lock {
                    Some(lock) => {
                        let ticket = self.kcore.locks.get_mut(lock).draw();
                        self.cpus[cpu].phase = Phase::Spinning {
                            lock,
                            ticket,
                            spins: 0,
                        };
                    }
                    None => {
                        // Lock-free op: execute immediately.
                        if matches!(self.execute(cpu, &op, report), Exec::Done) {
                            self.cpus[cpu].next_op += 1;
                        }
                    }
                }
            }
            Phase::Spinning {
                lock,
                ticket,
                spins,
            } => {
                if self.kcore.locks.get_mut(lock).try_enter(cpu, ticket) {
                    self.kcore.log.push(MEvent::LockAcquire {
                        cpu,
                        lock,
                        ticket: ticket.0,
                        spins,
                    });
                    report.total_spins += spins;
                    let done = matches!(self.execute(cpu, &op, report), Exec::Done);
                    self.kcore.locks.get_mut(lock).release(cpu);
                    self.kcore.log.push(MEvent::LockRelease { cpu, lock });
                    self.cpus[cpu].phase = Phase::Idle;
                    if done {
                        self.cpus[cpu].next_op += 1;
                    }
                } else {
                    self.cpus[cpu].phase = Phase::Spinning {
                        lock,
                        ticket,
                        spins: spins + 1,
                    };
                }
            }
        }
    }

    fn execute(&mut self, cpu: usize, op: &Op, report: &mut RunReport) -> Exec {
        let name = op_name(op);
        // Wait-style operations first (no OpStart until they fire).
        match op {
            Op::AttachVm { owner_cpu } => {
                let ready = self.cpus.get(*owner_cpu).and_then(|c| c.vm).filter(|&vm| {
                    self.kcore
                        .vm(vm)
                        .map(|m| m.state == crate::kcore::VmState::Verified)
                        .unwrap_or(false)
                });
                return match ready {
                    Some(vm) => {
                        self.cpus[cpu].vm = Some(vm);
                        report.ops_ok += 1;
                        Exec::Done
                    }
                    None => Exec::Retry,
                };
            }
            Op::Rendezvous { id } => {
                // Arrived iff every member CPU's next op is this barrier
                // or it has already passed it.
                let all = (0..self.cpus.len()).all(|c| {
                    let pos = self.cpus[c]
                        .script
                        .iter()
                        .position(|o| matches!(o, Op::Rendezvous { id: i } if i == id));
                    match pos {
                        None => true,
                        Some(p) => self.cpus[c].next_op >= p,
                    }
                });
                return if all {
                    report.ops_ok += 1;
                    Exec::Done
                } else {
                    Exec::Retry
                };
            }
            Op::VcpuBegin { vcpu } => {
                let Some(vmid) = self.cpus[cpu].vm else {
                    report
                        .failures
                        .push((cpu, "vcpu_begin", HypercallError::BadVm));
                    return Exec::Done;
                };
                return match self.kcore.run_vcpu_locked(cpu, vmid, *vcpu) {
                    Ok(ctx) => {
                        self.cpus[cpu].held = Some((vmid, *vcpu, ctx));
                        self.kcore.log.push(MEvent::OpStart {
                            cpu,
                            name: "vcpu_begin",
                        });
                        self.kcore.log.push(MEvent::OpEnd {
                            cpu,
                            name: "vcpu_begin",
                            ok: true,
                        });
                        report.ops_ok += 1;
                        Exec::Done
                    }
                    // Another CPU holds the vCPU: wait for it.
                    Err(HypercallError::Vcpu(crate::vcpu::VcpuError::NotInactive)) => Exec::Retry,
                    Err(e) => {
                        report.failures.push((cpu, "vcpu_begin", e));
                        Exec::Done
                    }
                };
            }
            Op::WaitIrq { vcpu, irq } => {
                let Some(vmid) = self.cpus[cpu].vm else {
                    report
                        .failures
                        .push((cpu, "wait_irq", HypercallError::BadVm));
                    return Exec::Done;
                };
                let pending = self
                    .kcore
                    .pending_irqs(vmid, *vcpu)
                    .unwrap_or_default()
                    .contains(irq);
                if !pending {
                    return Exec::Retry;
                }
                // Take the VM lock briefly for the ack (nested, immediate).
                self.kcore.lock(cpu, LockId::Vm(vmid));
                let r = self.kcore.ack_irq_locked(cpu, vmid, *vcpu, *irq);
                self.kcore.unlock(cpu, LockId::Vm(vmid));
                match r {
                    Ok(()) => report.ops_ok += 1,
                    Err(e) => report.failures.push((cpu, "wait_irq", e)),
                }
                return Exec::Done;
            }
            Op::VcpuEnd => {
                let Some((vmid, vcpu, mut ctx)) = self.cpus[cpu].held.take() else {
                    report
                        .failures
                        .push((cpu, "vcpu_end", HypercallError::BadVcpu));
                    return Exec::Done;
                };
                // Simulated guest progress while the vCPU ran here.
                ctx.regs[0] += 1;
                ctx.pc += 4;
                match self.kcore.stop_vcpu(cpu, vmid, vcpu, ctx) {
                    Ok(()) => report.ops_ok += 1,
                    Err(e) => report.failures.push((cpu, "vcpu_end", e)),
                }
                return Exec::Done;
            }
            _ => {}
        }
        self.kcore.log.push(MEvent::OpStart { cpu, name });
        let result: Result<(), HypercallError> = (|| {
            match op {
                Op::RegisterVm => {
                    let vmid = self.kcore.register_vm_locked(cpu)?;
                    self.cpus[cpu].vm = Some(vmid);
                }
                Op::RegisterVcpu => {
                    let vmid = self.require_vm(cpu)?;
                    self.kcore.register_vcpu_locked(cpu, vmid)?;
                }
                Op::StageImage { pfns } => {
                    let vmid = self.require_vm(cpu)?;
                    // KServ writes the image directly (it owns the pages).
                    let mut words = Vec::new();
                    for &pfn in pfns {
                        for w in 0..crate::layout::PAGE_WORDS {
                            let val = pfn * 31 + w;
                            self.kcore.mem.write(crate::layout::page_addr(pfn) + w, val);
                            words.push(val);
                        }
                    }
                    let hash = KCore::image_hash(&words);
                    self.kcore
                        .set_boot_info_locked(cpu, vmid, pfns.clone(), hash)?;
                }
                Op::VerifyImage => {
                    let vmid = self.require_vm(cpu)?;
                    self.kcore.remap_vm_image_locked(cpu, vmid)?;
                    self.kcore.verify_vm_image_locked(cpu, vmid)?;
                }
                Op::RunQuantum { vcpu } => {
                    let vmid = self.require_vm(cpu)?;
                    let ctx = self.kcore.run_vcpu_locked(cpu, vmid, *vcpu)?;
                    // Immediately save back (the quantum itself is the
                    // VM ops elsewhere in the script).
                    self.kcore.stop_vcpu(cpu, vmid, *vcpu, ctx)?;
                }
                Op::Fault { gpa, donor_pfn } => {
                    let vmid = self.require_vm(cpu)?;
                    self.kcore
                        .handle_s2_fault_locked(cpu, vmid, *gpa, *donor_pfn)?;
                }
                Op::Grant { gpa } => {
                    let vmid = self.require_vm(cpu)?;
                    self.kcore.grant_page_locked(cpu, vmid, *gpa)?;
                }
                Op::Revoke { gpa } => {
                    let vmid = self.require_vm(cpu)?;
                    self.kcore.revoke_page_locked(cpu, vmid, *gpa)?;
                }
                Op::VmWrite { gpa, val } => {
                    let vmid = self.require_vm(cpu)?;
                    self.kcore.vm_write(cpu, vmid, *gpa, *val)?;
                }
                Op::VmReadExpect { gpa, expect } => {
                    let vmid = self.require_vm(cpu)?;
                    let got = self.kcore.vm_read(cpu, vmid, *gpa)?;
                    if got != *expect {
                        report.expectation_violations.push(format!(
                            "CPU{cpu}: VM read of {gpa:#x} = {got}, expected {expect}"
                        ));
                    }
                }
                Op::KservRead { pa, expect_allowed } => {
                    let r = self.kcore.kserv_read(cpu, *pa);
                    if r.is_ok() != *expect_allowed {
                        report.expectation_violations.push(format!(
                            "CPU{cpu}: KServ read of {pa:#x}: {r:?}, expected allowed={expect_allowed}"
                        ));
                    }
                }
                Op::KservWrite {
                    pa,
                    val,
                    expect_allowed,
                } => {
                    let r = self.kcore.kserv_write(cpu, *pa, *val);
                    if r.is_ok() != *expect_allowed {
                        report.expectation_violations.push(format!(
                            "CPU{cpu}: KServ write of {pa:#x}: {r:?}, expected allowed={expect_allowed}"
                        ));
                    }
                }
                Op::Reclaim => {
                    let vmid = self.require_vm(cpu)?;
                    self.kcore.reclaim_vm_pages_locked(cpu, vmid)?;
                }
                Op::SendIpi { to_vcpu, irq } => {
                    let vmid = self.require_vm(cpu)?;
                    self.kcore.send_sgi_locked(cpu, vmid, *to_vcpu, *irq)?;
                }
                Op::UartWrite { byte } => {
                    let vmid = self.require_vm(cpu)?;
                    self.kcore.uart_write_locked(cpu, vmid, *byte)?;
                }
                Op::AttachVm { .. }
                | Op::VcpuBegin { .. }
                | Op::VcpuEnd
                | Op::Rendezvous { .. }
                | Op::WaitIrq { .. } => {
                    unreachable!("handled in the wait-style prologue")
                }
            }
            Ok(())
        })();
        let ok = result.is_ok();
        if let Err(e) = result {
            report.failures.push((cpu, name, e));
        } else {
            report.ops_ok += 1;
        }
        self.kcore.log.push(MEvent::OpEnd { cpu, name, ok });
        Exec::Done
    }

    fn require_vm(&self, cpu: usize) -> Result<u32, HypercallError> {
        self.cpus[cpu].vm.ok_or(HypercallError::BadVm)
    }

    /// The vm registered by a CPU (after its `RegisterVm` ran).
    pub fn cpu_vm(&self, cpu: usize) -> Option<u32> {
        self.cpus[cpu].vm
    }

    /// Enumerates **every** scheduler interleaving of the scripts on the
    /// unified exploration engine, instead of the one walk a seed picks.
    ///
    /// Each terminal schedule contributes a [`SchedOutcome`]: its
    /// completed/failed operations, expectation violations, dynamic-wDRF
    /// log violations, and whether it dead-ended. Distinct machine states
    /// are deduplicated (lock *positions* rather than absolute ticket
    /// counters, so spin history does not split states), which keeps the
    /// walk finite for finite scripts.
    ///
    /// A schedule that stalls in a *stable* state (no CPU's step changes
    /// anything — e.g. an unsatisfiable rendezvous) is reported with
    /// `stalled = true`. A branch that cycles through a few states
    /// without progress (e.g. repeatedly re-drawing a ticket for a vCPU
    /// that is never released) is pruned by the visited-set and simply
    /// contributes no terminal outcome.
    pub fn explore_schedules(
        cfg: KCoreConfig,
        scripts: Vec<Script>,
        ecfg: &ExhaustiveConfig,
    ) -> Result<ExhaustiveReport, vrm_explore::ExploreError> {
        Self::explore_schedules_from(cfg, scripts, ecfg, None)
    }

    /// [`explore_schedules`](Self::explore_schedules), optionally
    /// resuming a prior truncated exploration's [`ScheduleResume`]
    /// instead of restarting: the engine re-seeds its frontier from the
    /// parked checkpoint and deduplicates against the prior run's
    /// visited digests, so only fresh states are explored. The returned
    /// report's outcomes are the **union** of the prior partial
    /// outcomes and this run's, and its stats sum both attempts'
    /// counters — with the *final* attempt's completeness, because a
    /// resumed walk that finishes exhaustively has, jointly with its
    /// prior, covered the whole space.
    ///
    /// This is the handoff a serving layer uses: cache the
    /// `ScheduleResume` beside an `Unknown` verdict, and a re-query
    /// with a larger budget continues the walk it paid for.
    pub fn explore_schedules_from(
        cfg: KCoreConfig,
        scripts: Vec<Script>,
        ecfg: &ExhaustiveConfig,
        prior: Option<ScheduleResume>,
    ) -> Result<ExhaustiveReport, vrm_explore::ExploreError> {
        let _span = vrm_obs::span!(
            "machine.explore_schedules",
            scripts = scripts.len(),
            jobs = ecfg.jobs,
            resumed = u64::from(prior.is_some()),
        );
        let space = SchedSpace::new(cfg, scripts);
        let xcfg = ExploreConfig::with_max_states(ecfg.max_states).jobs(ecfg.jobs);
        let (seed, mut outcomes, prior_stats) = match prior {
            Some(p) => {
                // The checkpoint can only have been parked by this
                // module (the fields are private), so the downcast
                // failing means the handle was corrupted in storage.
                let Some(rs) = p.checkpoint.resume::<SchedNode>() else {
                    return Err(vrm_explore::ExploreError::CorruptCheckpoint(
                        vrm_explore::CheckpointFault::BadState,
                    ));
                };
                (Some(rs), p.outcomes, Some(p.stats))
            }
            None => (None, BTreeSet::new(), None),
        };
        let run = |xcfg: &ExploreConfig,
                   seed: Option<vrm_explore::ResumeState<SchedNode>>|
         -> Result<_, vrm_explore::ExploreError> {
            if ecfg.reduction {
                vrm_explore::explore_reduced_from(&space, xcfg, seed)
            } else {
                vrm_explore::explore_from(&space, xcfg, seed)
            }
        };
        let ex = match run(&xcfg, seed.clone()) {
            Ok(ex) => ex,
            // All parallel workers died: the sequential driver has no
            // worker threads to lose, so fall back to it once.
            Err(vrm_explore::ExploreError::WorkerPanic(_)) => run(&xcfg.jobs(1), seed)?,
            Err(e) => return Err(e),
        };
        outcomes.extend(ex.emits);
        let mut stats = ex.stats;
        if let Some(prior) = prior_stats {
            // Sum the attempts' counters but keep the final attempt's
            // completeness (absorb's merge is truncation-sticky, which
            // is wrong for a resumed continuation).
            let completeness = stats.completeness;
            stats.absorb(&prior);
            stats.completeness = completeness;
        }
        let resume = ex.resume.map(|rs| ScheduleResume {
            checkpoint: vrm_explore::Checkpoint::park(rs),
            outcomes: outcomes.clone(),
            stats,
        });
        Ok(ExhaustiveReport {
            outcomes,
            stats,
            resume,
        })
    }

    /// [`explore_schedules`](Self::explore_schedules) with bounded
    /// budget-doubling restarts: a truncated walk is resumed from its
    /// checkpoint with doubled budgets (up to `max_retries` times), and a
    /// walk that lost all its workers is retried sequentially. The final
    /// report may still be truncated — callers must consult
    /// [`ExhaustiveReport::verdict`], never assume exhaustiveness.
    pub fn explore_schedules_resilient(
        cfg: KCoreConfig,
        scripts: Vec<Script>,
        ecfg: &ExhaustiveConfig,
        max_retries: usize,
    ) -> Result<ExhaustiveReport, vrm_explore::ExploreError> {
        let _span = vrm_obs::span!(
            "machine.explore_schedules_resilient",
            scripts = scripts.len(),
            jobs = ecfg.jobs,
        );
        let space = SchedSpace::new(cfg, scripts);
        let xcfg = ExploreConfig::with_max_states(ecfg.max_states).jobs(ecfg.jobs);
        let ex = if ecfg.reduction {
            vrm_explore::retry_with_escalation_reduced(&space, &xcfg, max_retries)?
        } else {
            vrm_explore::retry_with_escalation(&space, &xcfg, max_retries)?
        };
        let outcomes: BTreeSet<SchedOutcome> = ex.emits.into_iter().collect();
        let resume = ex.resume.map(|rs| ScheduleResume {
            checkpoint: vrm_explore::Checkpoint::park(rs),
            outcomes: outcomes.clone(),
            stats: ex.stats,
        });
        Ok(ExhaustiveReport {
            outcomes,
            stats: ex.stats,
            resume,
        })
    }

    /// Checks refinement over **every** scheduler interleaving: each
    /// concrete transition the walk reaches must project, via
    /// [`refine::check_transition`](crate::refine::check_transition), to
    /// a legal sequence of abstract steps landing exactly on the
    /// projected post-state (or be a stutter), and every reached state
    /// must satisfy abstract noninterference.
    ///
    /// The walk itself is identical to
    /// [`explore_schedules`](Self::explore_schedules) — same nodes, same
    /// dedup, same terminal outcomes — so the returned report's
    /// `outcomes` agree with the schedule exploration's, while
    /// `violations` carries the simulation failures.
    pub fn check_refinement(
        cfg: KCoreConfig,
        scripts: Vec<Script>,
        ecfg: &ExhaustiveConfig,
    ) -> Result<RefinementReport, vrm_explore::ExploreError> {
        let _span = vrm_obs::span!(
            "machine.check_refinement",
            scripts = scripts.len(),
            jobs = ecfg.jobs,
        );
        let space = RefineSpace::new(cfg, scripts);
        let xcfg = ExploreConfig::with_max_states(ecfg.max_states).jobs(ecfg.jobs);
        let run = |xcfg: &ExploreConfig| -> Result<_, vrm_explore::ExploreError> {
            if ecfg.reduction {
                vrm_explore::explore_reduced(&space, xcfg)
            } else {
                vrm_explore::explore(&space, xcfg)
            }
        };
        let ex = match run(&xcfg) {
            Ok(ex) => ex,
            Err(vrm_explore::ExploreError::WorkerPanic(_)) => run(&xcfg.jobs(1))?,
            Err(e) => return Err(e),
        };
        let mut outcomes = BTreeSet::new();
        let mut violations = BTreeSet::new();
        for e in ex.emits {
            match e {
                RefineEmit::Outcome(o) => {
                    outcomes.insert(o);
                }
                RefineEmit::Violation(v) => {
                    violations.insert(v);
                }
            }
        }
        Ok(RefinementReport {
            outcomes,
            violations,
            stats: ex.stats,
        })
    }

    /// Runs one seeded schedule to completion (like [`run`](Self::run))
    /// while checking refinement on every executed operation — the cheap
    /// single-trace oracle behind the property-based tests, sharing
    /// [`check_transition`](crate::refine::check_transition) with the
    /// exhaustive [`check_refinement`](Self::check_refinement).
    pub fn run_refined(&mut self, max_steps: usize) -> (RunReport, Vec<RefinementViolation>) {
        let mut report = RunReport::default();
        let mut violations = Vec::new();
        let stall_limit = 200
            * self.cpus.len().max(1)
            * self
                .cpus
                .iter()
                .map(|c| c.script.len() + 1)
                .max()
                .unwrap_or(1);
        let mut steps_without_progress = 0usize;
        while report.steps < max_steps {
            let runnable: Vec<usize> = (0..self.cpus.len())
                .filter(|&c| !matches!(self.cpus[c].phase, Phase::Finished))
                .collect();
            if runnable.is_empty() {
                break;
            }
            let cpu = runnable[self.rng.gen_range(0..runnable.len())];
            let pre = self.kcore.clone();
            let pre_vm = self.cpus[cpu].vm;
            let pre_op = self.cpus[cpu].next_op;
            let (before_ok, before_fail) = (report.ops_ok, report.failures.len());
            self.step(cpu, &mut report);
            report.steps += 1;
            let executed = report.ops_ok > before_ok || report.failures.len() > before_fail;
            if executed {
                let op = self.cpus[cpu].script[pre_op].clone();
                let ok = report.failures.len() == before_fail;
                for detail in crate::refine::check_transition(&pre, pre_vm, &op, ok, &self.kcore) {
                    violations.push(RefinementViolation {
                        cpu,
                        op: op_name(&op),
                        detail,
                    });
                }
                steps_without_progress = 0;
            } else {
                steps_without_progress += 1;
                if steps_without_progress > stall_limit {
                    report.stalled = true;
                    break;
                }
            }
        }
        (report, violations)
    }
}

/// Bounds for [`Machine::explore_schedules`].
#[derive(Debug, Clone)]
pub struct ExhaustiveConfig {
    /// Cap on distinct machine states; hitting it truncates the walk
    /// (partial outcomes, `Unknown` verdict) rather than erroring.
    pub max_states: usize,
    /// Worker threads (1 = the sequential reference driver).
    pub jobs: usize,
    /// Run the walk through the reduced drivers (`true`, the default):
    /// CPUs with identical scripts are collapsed to orbit
    /// representatives via path replay, and terminal outcomes are
    /// re-rendered for every collapsed variant, so the outcome set and
    /// verdict are identical to the exhaustive walk's (see
    /// `docs/REDUCTION.md`). `false` forces the exact unreduced walk —
    /// the differential anchor the soundness tests compare against.
    pub reduction: bool,
}

impl Default for ExhaustiveConfig {
    fn default() -> Self {
        ExhaustiveConfig {
            max_states: 1 << 20,
            jobs: ExploreConfig::jobs_from_env(),
            reduction: true,
        }
    }
}

/// What one complete schedule observed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SchedOutcome {
    /// Operations that completed successfully.
    pub ops_ok: usize,
    /// Failed operations, rendered as `CPU<i> <op>: <error>`.
    pub failures: Vec<String>,
    /// Operations whose expectation (e.g. `expect_allowed`) was violated.
    pub expectation_violations: Vec<String>,
    /// Dynamic-wDRF violations found in this schedule's event log.
    pub wdrf_violations: Vec<String>,
    /// `true` if the schedule dead-ended with unfinished CPUs.
    pub stalled: bool,
}

impl SchedOutcome {
    /// `true` when nothing unexpected happened on this schedule.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
            && self.expectation_violations.is_empty()
            && self.wdrf_violations.is_empty()
            && !self.stalled
    }
}

/// A suspended schedule exploration, produced by a truncated
/// [`Machine::explore_schedules`] run and consumed by
/// [`Machine::explore_schedules_from`]. Wraps the engine's checkpoint
/// type-erased (the schedule node type is private to this module)
/// together with the partial outcomes and stats already paid for, so a
/// holder — e.g. a verdict cache — can suspend and later continue the
/// walk without naming any machine internals.
#[derive(Debug)]
pub struct ScheduleResume {
    checkpoint: vrm_explore::Checkpoint,
    outcomes: BTreeSet<SchedOutcome>,
    stats: ExploreStats,
}

impl ScheduleResume {
    /// Unexpanded frontier entries parked in the checkpoint.
    pub fn frontier_len(&self) -> usize {
        self.checkpoint.frontier_len()
    }

    /// Distinct states visited before the walk was suspended.
    pub fn states_visited(&self) -> usize {
        self.stats.states
    }

    /// Serializes the suspended walk to a self-contained, checksummed
    /// byte blob (`VRMSRES2`): the frontier as **schedule paths** (CPU
    /// choices from the root, replayed by the private scheduling
    /// node's deterministic single-step function) inside a
    /// VRMCKPT1 container, plus the visited digests, partial outcomes
    /// and stats. A `KCore` is never encoded; determinism of the step
    /// function is what makes the paths a faithful image. `None` only
    /// if the handle holds a foreign checkpoint type (cannot happen
    /// for checkpoints this module produced).
    ///
    /// This is the durable/wire format: the serve layer's write-ahead
    /// log and worker-process stdio both carry exactly these bytes.
    pub fn to_bytes(&self) -> Option<Vec<u8>> {
        let rs = self.checkpoint.peek::<SchedNode>()?;
        let inner = vrm_explore::ResumeState {
            frontier: rs
                .frontier
                .iter()
                .map(|(n, d)| (SchedPath(n.path.clone()), *d))
                .collect(),
            visited_digests: rs.visited_digests.clone(),
        }
        .to_bytes();
        let mut out = Vec::with_capacity(inner.len() + 256);
        out.extend_from_slice(RESUME_MAGIC);
        out.extend_from_slice(&(inner.len() as u64).to_le_bytes());
        out.extend_from_slice(&inner);
        out.extend_from_slice(&(self.outcomes.len() as u64).to_le_bytes());
        for o in &self.outcomes {
            out.extend_from_slice(&(o.ops_ok as u64).to_le_bytes());
            out.push(u8::from(o.stalled));
            for list in [&o.failures, &o.expectation_violations, &o.wdrf_violations] {
                out.extend_from_slice(&(list.len() as u32).to_le_bytes());
                for s in list {
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
        let st = &self.stats;
        for v in [
            st.states as u64,
            st.frontier_peak as u64,
            st.dedup_hits as u64,
            st.popped as u64,
            st.pushed as u64,
            st.steals as u64,
            st.wall_ns,
            st.jobs as u64,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        match st.completeness {
            vrm_explore::Completeness::Exhaustive => out.push(0),
            vrm_explore::Completeness::Truncated {
                reason,
                frontier_len,
            } => {
                out.push(1);
                out.push(reason_tag(reason));
                out.extend_from_slice(&(frontier_len as u64).to_le_bytes());
            }
        }
        let body_len = out.len() as u64;
        let sum = vrm_explore::checksum64(&out);
        out.extend_from_slice(&body_len.to_le_bytes());
        out.extend_from_slice(&sum.to_le_bytes());
        Some(out)
    }

    /// Reconstructs a suspended walk from [`to_bytes`](Self::to_bytes)
    /// output by replaying each frontier path from the workload's
    /// initial state. Every replayed node's [`vrm_explore::digest128`]
    /// must appear in the blob's own visited set — a blob produced
    /// against a different build or workload fails this soundness
    /// check and is rejected as corrupt rather than silently resuming
    /// a wrong walk. All rejections surface as
    /// [`vrm_explore::ExploreError::CorruptCheckpoint`], which callers
    /// already treat as "restart from scratch".
    pub fn from_bytes(
        cfg: KCoreConfig,
        scripts: Vec<Script>,
        bytes: &[u8],
    ) -> Result<ScheduleResume, vrm_explore::ExploreError> {
        use vrm_explore::{CheckpointFault, ExploreError};
        let fail = |f: CheckpointFault| Err(ExploreError::CorruptCheckpoint(f));
        if bytes.len() < RESUME_MAGIC.len() + vrm_explore::CHECKPOINT_FOOTER_LEN {
            return fail(CheckpointFault::Truncated);
        }
        let (body, footer) = bytes.split_at(bytes.len() - vrm_explore::CHECKPOINT_FOOTER_LEN);
        let declared_len = u64::from_le_bytes(footer[..8].try_into().expect("8-byte slice"));
        let declared_sum = u64::from_le_bytes(footer[8..].try_into().expect("8-byte slice"));
        if declared_len != body.len() as u64 {
            return fail(CheckpointFault::LengthMismatch);
        }
        if declared_sum != vrm_explore::checksum64(body) {
            return fail(CheckpointFault::ChecksumMismatch);
        }
        let mut b = body;
        match take(&mut b, RESUME_MAGIC.len()) {
            Some(m) if m == RESUME_MAGIC => {}
            Some(_) => return fail(CheckpointFault::BadMagic),
            None => return fail(CheckpointFault::Truncated),
        }
        let Some(inner_len) = take_u64(&mut b) else {
            return fail(CheckpointFault::Truncated);
        };
        let Some(inner) = take(&mut b, inner_len as usize) else {
            return fail(CheckpointFault::Truncated);
        };
        let paths: vrm_explore::ResumeState<SchedPath> =
            vrm_explore::ResumeState::try_from_bytes(inner)?;
        let Some(n_outcomes) = take_u64(&mut b) else {
            return fail(CheckpointFault::Truncated);
        };
        let mut outcomes = BTreeSet::new();
        for _ in 0..n_outcomes {
            let (Some(ops_ok), Some(stalled)) = (take_u64(&mut b), take_u8(&mut b)) else {
                return fail(CheckpointFault::Truncated);
            };
            let mut lists: [Vec<String>; 3] = [Vec::new(), Vec::new(), Vec::new()];
            for list in &mut lists {
                let Some(len) = take_u32(&mut b) else {
                    return fail(CheckpointFault::Truncated);
                };
                for _ in 0..len {
                    let Some(s) = take_str(&mut b) else {
                        return fail(CheckpointFault::BadState);
                    };
                    list.push(s);
                }
            }
            let [failures, expectation_violations, wdrf_violations] = lists;
            outcomes.insert(SchedOutcome {
                ops_ok: ops_ok as usize,
                failures,
                expectation_violations,
                wdrf_violations,
                stalled: stalled != 0,
            });
        }
        let mut nums = [0u64; 8];
        for v in &mut nums {
            let Some(x) = take_u64(&mut b) else {
                return fail(CheckpointFault::Truncated);
            };
            *v = x;
        }
        let completeness = match take_u8(&mut b) {
            Some(0) => vrm_explore::Completeness::Exhaustive,
            Some(1) => {
                let (Some(tag), Some(frontier_len)) = (take_u8(&mut b), take_u64(&mut b)) else {
                    return fail(CheckpointFault::Truncated);
                };
                let Some(reason) = tag_reason(tag) else {
                    return fail(CheckpointFault::BadState);
                };
                vrm_explore::Completeness::Truncated {
                    reason,
                    frontier_len: frontier_len as usize,
                }
            }
            _ => return fail(CheckpointFault::BadState),
        };
        if !b.is_empty() {
            return fail(CheckpointFault::TrailingBytes);
        }
        let stats = ExploreStats {
            states: nums[0] as usize,
            frontier_peak: nums[1] as usize,
            dedup_hits: nums[2] as usize,
            popped: nums[3] as usize,
            pushed: nums[4] as usize,
            steals: nums[5] as usize,
            wall_ns: nums[6],
            jobs: nums[7] as usize,
            completeness,
        };
        let space = SchedSpace::new(cfg, scripts);
        let identity: Vec<usize> = (0..space.root.cpus.len()).collect();
        let mut frontier = Vec::with_capacity(paths.frontier.len());
        for (SchedPath(path), depth) in paths.frontier {
            if path.iter().any(|&cpu| usize::from(cpu) >= identity.len()) {
                return fail(CheckpointFault::BadState);
            }
            let node = replay(&space.root, &path, &identity);
            if !paths
                .visited_digests
                .contains(&vrm_explore::digest128(&node))
            {
                return fail(CheckpointFault::BadState);
            }
            frontier.push((node, depth));
        }
        Ok(ScheduleResume {
            checkpoint: vrm_explore::Checkpoint::park(vrm_explore::ResumeState {
                frontier,
                visited_digests: paths.visited_digests,
            }),
            outcomes,
            stats,
        })
    }
}

/// Magic + version prefix of the serialized [`ScheduleResume`] format
/// ([`ScheduleResume::to_bytes`]). Version 2 carries structural state
/// digests ([`KCore::state_digest`]) in its visited set; a version-1
/// blob, whose digests hashed the state's debug text, is rejected as
/// [`CheckpointFault::BadMagic`](vrm_explore::CheckpointFault::BadMagic).
pub const RESUME_MAGIC: &[u8; 8] = b"VRMSRES2";

/// A frontier entry's durable image: the schedule path reaching it from
/// the initial state, carried through the engine's VRMCKPT1 container
/// via [`vrm_explore::CheckpointState`].
struct SchedPath(Vec<u16>);

impl vrm_explore::CheckpointState for SchedPath {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.0.len() as u32).to_le_bytes());
        for &c in &self.0 {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut b = bytes;
        let n = take_u32(&mut b)? as usize;
        if b.len() != n * 2 {
            return None;
        }
        let mut path = Vec::with_capacity(n);
        for chunk in b.chunks_exact(2) {
            path.push(u16::from_le_bytes([chunk[0], chunk[1]]));
        }
        Some(SchedPath(path))
    }
}

fn reason_tag(r: vrm_explore::TruncationReason) -> u8 {
    use vrm_explore::TruncationReason as T;
    match r {
        T::StateLimit => 0,
        T::DepthLimit => 1,
        T::Deadline => 2,
        T::MemoryBudget => 3,
        T::WorkerLost => 4,
    }
}

fn tag_reason(tag: u8) -> Option<vrm_explore::TruncationReason> {
    use vrm_explore::TruncationReason as T;
    Some(match tag {
        0 => T::StateLimit,
        1 => T::DepthLimit,
        2 => T::Deadline,
        3 => T::MemoryBudget,
        4 => T::WorkerLost,
        _ => return None,
    })
}

fn take<'a>(b: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if b.len() < n {
        return None;
    }
    let (head, tail) = b.split_at(n);
    *b = tail;
    Some(head)
}

fn take_u8(b: &mut &[u8]) -> Option<u8> {
    take(b, 1).map(|s| s[0])
}

fn take_u32(b: &mut &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(take(b, 4)?.try_into().ok()?))
}

fn take_u64(b: &mut &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(take(b, 8)?.try_into().ok()?))
}

fn take_str(b: &mut &[u8]) -> Option<String> {
    let len = take_u32(b)? as usize;
    String::from_utf8(take(b, len)?.to_vec()).ok()
}

/// The machine's observable behaviour over all schedules.
#[derive(Debug)]
pub struct ExhaustiveReport {
    /// Every distinct terminal observation.
    pub outcomes: BTreeSet<SchedOutcome>,
    /// Enumeration counters.
    pub stats: ExploreStats,
    /// Present exactly when the walk was truncated: feed it back
    /// through [`Machine::explore_schedules_from`] (with a larger
    /// budget) to continue instead of restarting.
    pub resume: Option<ScheduleResume>,
}

impl ExhaustiveReport {
    /// `true` iff every explored schedule was clean.
    ///
    /// Only meaningful when the walk was exhaustive; use
    /// [`verdict`](Self::verdict) for the sound three-valued answer.
    pub fn all_clean(&self) -> bool {
        !self.outcomes.is_empty() && self.outcomes.iter().all(SchedOutcome::clean)
    }

    /// Sound three-valued verdict: a truncated walk yields `Unknown`
    /// with its coverage (an unexplored schedule could still be dirty,
    /// and a dirty outcome set from a truncated walk could still grow),
    /// otherwise `Pass`/`Fail` per [`all_clean`](Self::all_clean).
    pub fn verdict(&self) -> vrm_explore::Verdict {
        vrm_explore::Verdict::from_parts(self.all_clean(), &self.stats)
    }
}

/// One node in the schedule tree: the machine state plus the
/// path-accumulated observations reported at a terminal.
///
/// Identity is a 128-bit structural digest, computed once when the node
/// is built: [`KCore::state_digest`] plus, per CPU, its script position,
/// phase, VM and held vCPU, plus the accumulated results. Like
/// [`KCore::encode_state`], the reference it is tested against, the
/// digest leaves out the event log, spin counters and absolute ticket
/// numbers (a spinning CPU counts by its place in the lock's queue) —
/// and the schedule `path`, which is derived bookkeeping (two different
/// paths reaching the same machine state must still deduplicate).
#[derive(Clone)]
struct SchedNode {
    kcore: KCore,
    cpus: Vec<CpuState>,
    ops_ok: usize,
    failures: Vec<(usize, &'static str, HypercallError)>,
    expectation_violations: Vec<String>,
    /// The sequence of CPU choices that reached this node from the
    /// root. Because [`SchedNode::step_once`] is deterministic, the path
    /// is a complete, compact, durable encoding of the node: [`replay`]
    /// rebuilds the node bit-for-bit from the initial state. This is
    /// what makes parked frontiers serializable
    /// ([`ScheduleResume::to_bytes`]) without ever encoding a `KCore`,
    /// and what symmetry canon permutes.
    path: Vec<u16>,
    digest: u128,
}

/// A CPU's phase as the digest sees it.
#[derive(Hash)]
enum PhaseKey {
    Idle,
    /// The lock spun on and the number of tickets ahead in its queue.
    Spinning(LockId, u64),
    Finished,
}

impl SchedNode {
    fn new(
        kcore: KCore,
        cpus: Vec<CpuState>,
        ops_ok: usize,
        failures: Vec<(usize, &'static str, HypercallError)>,
        expectation_violations: Vec<String>,
        path: Vec<u16>,
    ) -> Self {
        let cpu_keys: Vec<_> = cpus
            .iter()
            .map(|c| {
                let phase = match &c.phase {
                    Phase::Idle => PhaseKey::Idle,
                    Phase::Finished => PhaseKey::Finished,
                    Phase::Spinning { lock, ticket, .. } => {
                        PhaseKey::Spinning(*lock, kcore.locks.get(*lock).position(*ticket))
                    }
                };
                (c.next_op, phase, c.vm, c.held)
            })
            .collect();
        let digest = vrm_explore::digest128(&(
            kcore.state_digest(),
            cpu_keys,
            ops_ok,
            &failures,
            &expectation_violations,
        ));
        SchedNode {
            kcore,
            cpus,
            ops_ok,
            failures,
            expectation_violations,
            path,
            digest,
        }
    }

    /// The node's state as a machine to step (`Machine::step` never
    /// draws from the scheduler RNG).
    fn machine(&self) -> Machine {
        Machine {
            kcore: self.kcore.clone(),
            cpus: self.cpus.clone(),
            rng: StdRng::seed_from_u64(0),
        }
    }

    /// Builds the node that `m`, stepped from `self` along `steps`,
    /// has reached: `delta` (what the steps reported) is folded into
    /// the accumulated results and the state is digested once.
    fn descendant(&self, m: Machine, delta: RunReport, steps: &[u16]) -> SchedNode {
        let mut failures = self.failures.clone();
        failures.extend(delta.failures);
        let mut violations = self.expectation_violations.clone();
        violations.extend(delta.expectation_violations);
        let mut path = self.path.clone();
        path.extend_from_slice(steps);
        SchedNode::new(
            m.kcore,
            m.cpus,
            self.ops_ok + delta.ops_ok,
            failures,
            violations,
            path,
        )
    }

    /// The deterministic successor of this node when `cpu` takes the
    /// next step — the transition function of both machine spaces,
    /// which [`replay`] repeats step by step on one machine. Also says
    /// whether the step finished an operation: `Some(ok)` with `ok`
    /// false when the operation's failure was recorded, `None` when the
    /// CPU only drew a ticket, spun or waited.
    fn step_once(&self, cpu: usize) -> (SchedNode, Option<bool>) {
        let mut m = self.machine();
        let mut delta = RunReport::default();
        m.step(cpu, &mut delta);
        let finished =
            (delta.ops_ok + delta.failures.len() > 0).then_some(delta.failures.is_empty());
        (self.descendant(m, delta, &[cpu as u16]), finished)
    }

    fn outcome(&self, stalled: bool) -> SchedOutcome {
        SchedOutcome {
            ops_ok: self.ops_ok,
            failures: self
                .failures
                .iter()
                .map(|(c, n, e)| format!("CPU{c} {n}: {e}"))
                .collect(),
            expectation_violations: self.expectation_violations.clone(),
            wdrf_violations: crate::wdrf::validate_log(&self.kcore.log)
                .iter()
                .map(|v| format!("{v:?}"))
                .collect(),
            stalled,
        }
    }
}

impl PartialEq for SchedNode {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest
    }
}

impl Eq for SchedNode {}

impl std::hash::Hash for SchedNode {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.digest.hash(h);
    }
}

/// The non-identity CPU permutations generated by groups of CPUs with
/// *identical scripts* — the machine's symmetry group. A CPU named by
/// index from any script (an [`Op::AttachVm`] `owner_cpu`) is pinned
/// out of its group: relabeling it would redirect the reference, so
/// the permuted run would not be an isomorphic relabeling. Empty when
/// there is no symmetry or the orbit exceeds [`symm::MAX_ORBIT`].
fn script_perms(scripts: &[Script]) -> Vec<Vec<usize>> {
    let mut referenced: BTreeSet<usize> = BTreeSet::new();
    for s in scripts {
        for op in s {
            if let Op::AttachVm { owner_cpu } = op {
                referenced.insert(*owner_cpu);
            }
        }
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, s) in scripts.iter().enumerate() {
        if referenced.contains(&i) {
            continue;
        }
        match groups.iter_mut().find(|g| scripts[g[0]] == *s) {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups.retain(|g| g.len() >= 2);
    symm::group_permutations(scripts.len(), &groups)
}

/// Replays `π ∘ path` from the workload's initial node: one owned
/// machine takes every step in place and the reached state is digested
/// once, at the end. Because [`Machine::step`] is deterministic, the
/// result is the node the walk would build by [`SchedNode::step_once`]
/// along the same choices. With `π` the identity, that is the node
/// `path` reached: this is how [`ScheduleResume::from_bytes`] rebuilds a
/// frontier. With `π` a symmetry of identical scripts it is *exactly*
/// the reached node with CPU identities relabeled by `π` — including
/// its failure strings, event log and digest — which is the machine
/// layer's canonicalization primitive.
fn replay(root: &SchedNode, path: &[u16], perm: &[usize]) -> SchedNode {
    let steps: Vec<u16> = path.iter().map(|&c| perm[usize::from(c)] as u16).collect();
    let mut m = root.machine();
    let mut delta = RunReport::default();
    for &c in &steps {
        m.step(usize::from(c), &mut delta);
    }
    root.descendant(m, delta, &steps)
}

/// The minimal-digest orbit member of `node` (when it is not `node`
/// itself) under the permutations in `perms`.
fn canon_node(root: &SchedNode, perms: &[Vec<usize>], node: &SchedNode) -> Option<SchedNode> {
    let mut best: Option<SchedNode> = None;
    for perm in perms {
        let img = replay(root, &node.path, perm);
        let best_digest = best.as_ref().map_or(node.digest, |b| b.digest);
        if img.digest < best_digest {
            best = Some(img);
        }
    }
    best
}

/// The other distinct members of `node`'s orbit under `perms`.
fn orbit_nodes(root: &SchedNode, perms: &[Vec<usize>], node: &SchedNode) -> Vec<SchedNode> {
    let mut out: Vec<SchedNode> = Vec::new();
    for perm in perms {
        let img = replay(root, &node.path, perm);
        if img.digest != node.digest && out.iter().all(|o| o.digest != img.digest) {
            out.push(img);
        }
    }
    out
}

struct SchedSpace {
    root: SchedNode,
    perms: Vec<Vec<usize>>,
}

impl SchedSpace {
    fn new(cfg: KCoreConfig, scripts: Vec<Script>) -> Self {
        let perms = script_perms(&scripts);
        let m = Machine::new(cfg, scripts, 0);
        let root = SchedNode::new(m.kcore, m.cpus, 0, Vec::new(), Vec::new(), Vec::new());
        SchedSpace { root, perms }
    }

    fn runnable(node: &SchedNode) -> Vec<usize> {
        (0..node.cpus.len())
            .filter(|&c| !matches!(node.cpus[c].phase, Phase::Finished))
            .collect()
    }
}

impl StateSpace for SchedSpace {
    type State = SchedNode;
    type Emit = SchedOutcome;

    fn initial(&self) -> Vec<SchedNode> {
        vec![self.root.clone()]
    }

    fn expand(&self, node: &SchedNode, sink: &mut Sink<SchedNode, SchedOutcome>) {
        let runnable = Self::runnable(node);
        if runnable.is_empty() {
            sink.emit(node.outcome(false));
            return;
        }
        let mut progressed = false;
        for cpu in runnable {
            let (succ, _) = node.step_once(cpu);
            if succ.digest != node.digest {
                progressed = true;
                sink.push(succ);
            }
        }
        if !progressed {
            // Every CPU is waiting on something that can never happen.
            sink.emit(node.outcome(true));
        }
    }
}

/// Symmetry-only reduction: `now`/`future` stay at their conservative
/// top defaults (every operation may touch the shared `KCore`, so no
/// sound independence is claimed and neither sleep sets nor ample
/// singletons ever prune), while `canon`/`orbit` collapse CPUs with
/// identical scripts via path replay. The global-stall emission —
/// every CPU steps to itself, a property no single `expand_proc` can
/// see — is recovered by the reduced drivers' dead-end delegation to
/// the whole-state [`StateSpace::expand`] above.
impl Deps for SchedSpace {
    fn enabled(&self, node: &SchedNode) -> Vec<usize> {
        Self::runnable(node)
    }

    fn expand_proc(&self, node: &SchedNode, p: usize, sink: &mut Sink<SchedNode, SchedOutcome>) {
        let (succ, _) = node.step_once(p);
        if succ.digest != node.digest {
            sink.push(succ);
        }
    }

    fn canon(&self, node: &SchedNode) -> Option<SchedNode> {
        canon_node(&self.root, &self.perms, node)
    }

    fn orbit(&self, node: &SchedNode) -> Vec<SchedNode> {
        orbit_nodes(&self.root, &self.perms, node)
    }
}

/// One concrete transition that failed to simulate the abstract
/// ownership machine: either its label replay hit an illegal abstract
/// step, the replayed abstract state disagreed with the projected
/// post-state, or the post-state violated abstract noninterference.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RefinementViolation {
    /// CPU that executed the offending operation.
    pub cpu: usize,
    /// Name of the operation (as in [`SchedOutcome`] failure strings).
    pub op: &'static str,
    /// Human-readable description from
    /// [`refine::check_transition`](crate::refine::check_transition).
    pub detail: String,
}

impl std::fmt::Display for RefinementViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CPU{} {}: {}", self.cpu, self.op, self.detail)
    }
}

/// Everything [`Machine::check_refinement`] learned from the walk.
#[derive(Debug, Clone)]
pub struct RefinementReport {
    /// Every distinct terminal observation (identical to what
    /// [`Machine::explore_schedules`] would report for the same
    /// workload).
    pub outcomes: BTreeSet<SchedOutcome>,
    /// Every distinct simulation failure across all explored
    /// transitions; empty iff the implementation refines the spec on
    /// the explored prefix.
    pub violations: BTreeSet<RefinementViolation>,
    /// Enumeration counters.
    pub stats: ExploreStats,
}

impl RefinementReport {
    /// `true` iff no explored transition broke the simulation.
    ///
    /// Only meaningful when the walk was exhaustive; use
    /// [`verdict`](Self::verdict) for the sound three-valued answer.
    pub fn refines(&self) -> bool {
        self.violations.is_empty()
    }

    /// Sound three-valued verdict: `Pass` only when the walk was
    /// exhaustive and violation-free, `Fail` on any violation, and
    /// `Unknown` with coverage when the walk was truncated while clean.
    pub fn verdict(&self) -> vrm_explore::Verdict {
        vrm_explore::Verdict::from_parts(self.refines(), &self.stats)
    }
}

enum RefineEmit {
    Outcome(SchedOutcome),
    Violation(RefinementViolation),
}

/// [`SchedSpace`] plus a per-transition refinement check: every executed
/// operation's pre/post pair is handed to
/// [`refine::check_transition`](crate::refine::check_transition) and any
/// failure is emitted through the sink. Violations are *not* part of the
/// node digest, so the walked graph is identical to `SchedSpace`'s.
struct RefineSpace {
    root: SchedNode,
    perms: Vec<Vec<usize>>,
}

impl RefineSpace {
    fn new(cfg: KCoreConfig, scripts: Vec<Script>) -> Self {
        let perms = script_perms(&scripts);
        let m = Machine::new(cfg, scripts, 0);
        let root = SchedNode::new(m.kcore, m.cpus, 0, Vec::new(), Vec::new(), Vec::new());
        RefineSpace { root, perms }
    }

    /// One CPU's transition with its refinement check: steps `cpu`,
    /// emits a [`RefineEmit::Violation`] for every simulation failure
    /// of the executed operation, and pushes the successor unless the
    /// step was a self-loop. Shared verbatim between the whole-state
    /// [`StateSpace::expand`] and the per-process [`Deps::expand_proc`]
    /// so the two drivers check exactly the same transitions.
    fn step_checked(
        &self,
        node: &SchedNode,
        cpu: usize,
        sink: &mut Sink<SchedNode, RefineEmit>,
    ) -> bool {
        let (succ, finished) = node.step_once(cpu);
        if let Some(ok) = finished {
            let pre = &node.cpus[cpu];
            let op = &pre.script[pre.next_op];
            for detail in crate::refine::check_transition(&node.kcore, pre.vm, op, ok, &succ.kcore)
            {
                sink.emit(RefineEmit::Violation(RefinementViolation {
                    cpu,
                    op: op_name(op),
                    detail,
                }));
            }
        }
        if succ.digest != node.digest {
            sink.push(succ);
            true
        } else {
            false
        }
    }
}

impl StateSpace for RefineSpace {
    type State = SchedNode;
    type Emit = RefineEmit;

    fn initial(&self) -> Vec<SchedNode> {
        vec![self.root.clone()]
    }

    fn expand(&self, node: &SchedNode, sink: &mut Sink<SchedNode, RefineEmit>) {
        let runnable = SchedSpace::runnable(node);
        if runnable.is_empty() {
            sink.emit(RefineEmit::Outcome(node.outcome(false)));
            return;
        }
        let mut progressed = false;
        for cpu in runnable {
            progressed |= self.step_checked(node, cpu, sink);
        }
        if !progressed {
            // Every CPU is waiting on something that can never happen.
            sink.emit(RefineEmit::Outcome(node.outcome(true)));
        }
    }
}

/// Same symmetry-only reduction as [`SchedSpace`]'s. One asymmetry of
/// *observation* (not of the walked graph): interior
/// [`RefineEmit::Violation`]s are checked at orbit representatives
/// only, so the reduced violation set is the unreduced one modulo CPU
/// relabeling — non-empty iff the unreduced set is, which is what the
/// refinement verdict consumes. Terminal outcomes are re-rendered for
/// the whole orbit and stay bit-identical.
impl Deps for RefineSpace {
    fn enabled(&self, node: &SchedNode) -> Vec<usize> {
        SchedSpace::runnable(node)
    }

    fn expand_proc(&self, node: &SchedNode, p: usize, sink: &mut Sink<SchedNode, RefineEmit>) {
        self.step_checked(node, p, sink);
    }

    fn canon(&self, node: &SchedNode) -> Option<SchedNode> {
        canon_node(&self.root, &self.perms, node)
    }

    fn orbit(&self, node: &SchedNode) -> Vec<SchedNode> {
        orbit_nodes(&self.root, &self.perms, node)
    }
}

fn op_name(op: &Op) -> &'static str {
    match op {
        Op::RegisterVm => "register_vm",
        Op::RegisterVcpu => "register_vcpu",
        Op::StageImage { .. } => "stage_image",
        Op::VerifyImage => "verify_image",
        Op::RunQuantum { .. } => "run_quantum",
        Op::Fault { .. } => "handle_s2_fault",
        Op::Grant { .. } => "grant_page",
        Op::Revoke { .. } => "revoke_page",
        Op::VmWrite { .. } => "vm_write",
        Op::VmReadExpect { .. } => "vm_read",
        Op::KservRead { .. } => "kserv_read",
        Op::KservWrite { .. } => "kserv_write",
        Op::Reclaim => "reclaim",
        Op::AttachVm { .. } => "attach_vm",
        Op::VcpuBegin { .. } => "vcpu_begin",
        Op::VcpuEnd => "vcpu_end",
        Op::Rendezvous { .. } => "rendezvous",
        Op::SendIpi { .. } => "send_ipi",
        Op::UartWrite { .. } => "uart_write",
        Op::WaitIrq { .. } => "wait_irq",
    }
}

/// Builds a standard per-CPU "VM lifecycle" script: boot a VM, fault in
/// pages, write/read them, share and unshare one, and tear down.
pub fn lifecycle_script(cpu_index: u64, image_base_pfn: u64, data_pfn: u64) -> Script {
    let gpa_data = 64 * crate::layout::PAGE_WORDS;
    vec![
        Op::RegisterVm,
        Op::RegisterVcpu,
        Op::StageImage {
            pfns: vec![image_base_pfn, image_base_pfn + 1],
        },
        Op::VerifyImage,
        Op::RunQuantum { vcpu: 0 },
        Op::Fault {
            gpa: gpa_data,
            donor_pfn: data_pfn,
        },
        Op::VmWrite {
            gpa: gpa_data + 3,
            val: 1000 + cpu_index,
        },
        Op::VmReadExpect {
            gpa: gpa_data + 3,
            expect: 1000 + cpu_index,
        },
        Op::Grant { gpa: gpa_data },
        Op::Revoke { gpa: gpa_data },
        Op::RunQuantum { vcpu: 0 },
        Op::VmReadExpect {
            gpa: gpa_data + 3,
            expect: 1000 + cpu_index,
        },
        Op::Reclaim,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::VM_POOL_PFN;

    fn scripts(n: usize) -> Vec<Script> {
        (0..n)
            .map(|i| {
                lifecycle_script(
                    i as u64,
                    VM_POOL_PFN.0 + (i as u64) * 8,
                    VM_POOL_PFN.0 + (i as u64) * 8 + 4,
                )
            })
            .collect()
    }

    #[test]
    fn four_cpu_lifecycle_is_clean() {
        let mut m = Machine::new(KCoreConfig::default(), scripts(4), 42);
        let report = m.run(1_000_000);
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.ops_ok, 4 * 13);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut m = Machine::new(KCoreConfig::default(), scripts(3), seed);
            let r = m.run(1_000_000);
            (r.steps, r.total_spins, m.kcore.log.len())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn schedule_resume_bytes_round_trip_identically() {
        let scripts = crate::workloads::by_name("unmap").expect("unmap workload");
        let small = ExhaustiveConfig {
            max_states: 40,
            jobs: 1,
            ..ExhaustiveConfig::default()
        };
        let full = ExhaustiveConfig {
            max_states: 1 << 16,
            jobs: 1,
            ..ExhaustiveConfig::default()
        };
        let starved =
            Machine::explore_schedules(KCoreConfig::default(), scripts.clone(), &small).unwrap();
        let parked = starved.resume.expect("a 40-state unmap walk is truncated");
        let bytes = parked.to_bytes().expect("own checkpoints serialize");
        let restored = ScheduleResume::from_bytes(KCoreConfig::default(), scripts.clone(), &bytes)
            .expect("round trip");
        assert_eq!(restored.frontier_len(), parked.frontier_len());
        assert_eq!(restored.states_visited(), parked.states_visited());
        // Resuming the in-memory checkpoint and the round-tripped one
        // must finish the walk with identical results — the byte form
        // is a faithful image, not an approximation.
        let a = Machine::explore_schedules_from(
            KCoreConfig::default(),
            scripts.clone(),
            &full,
            Some(parked),
        )
        .unwrap();
        let b = Machine::explore_schedules_from(
            KCoreConfig::default(),
            scripts.clone(),
            &full,
            Some(restored),
        )
        .unwrap();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.stats.states, b.stats.states);
        assert_eq!(a.verdict(), b.verdict());
        // And both agree with a from-scratch exhaustive walk.
        let scratch = Machine::explore_schedules(KCoreConfig::default(), scripts, &full).unwrap();
        assert_eq!(a.outcomes, scratch.outcomes);
    }

    #[test]
    fn corrupt_resume_bytes_are_rejected_wholesale() {
        let scripts = crate::workloads::by_name("unmap").expect("unmap workload");
        let small = ExhaustiveConfig {
            max_states: 40,
            jobs: 1,
            ..ExhaustiveConfig::default()
        };
        let parked = Machine::explore_schedules(KCoreConfig::default(), scripts.clone(), &small)
            .unwrap()
            .resume
            .expect("truncated");
        let bytes = parked.to_bytes().expect("serialize");
        // A flipped byte anywhere in the body breaks the checksum; a
        // clipped tail breaks the declared length. Every corruption
        // must surface as CorruptCheckpoint, never a partial decode.
        for pos in [0, 8, bytes.len() / 2, bytes.len() - 17] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            let err = ScheduleResume::from_bytes(KCoreConfig::default(), scripts.clone(), &bad)
                .expect_err("corrupt bytes accepted");
            assert!(
                matches!(err, vrm_explore::ExploreError::CorruptCheckpoint(_)),
                "{err:?}"
            );
        }
        let err =
            ScheduleResume::from_bytes(KCoreConfig::default(), scripts, &bytes[..bytes.len() - 3])
                .expect_err("truncated bytes accepted");
        assert!(
            matches!(err, vrm_explore::ExploreError::CorruptCheckpoint(_)),
            "{err:?}"
        );
    }

    #[test]
    fn resume_bytes_replayed_against_wrong_workload_are_rejected() {
        // A blob parked for one workload replays to different machine
        // states under another workload's scripts; the visited-digest
        // membership check must reject it instead of resuming a wrong
        // walk.
        let unmap = crate::workloads::by_name("unmap").expect("unmap workload");
        let small = ExhaustiveConfig {
            max_states: 40,
            jobs: 1,
            ..ExhaustiveConfig::default()
        };
        let parked = Machine::explore_schedules(KCoreConfig::default(), unmap, &small)
            .unwrap()
            .resume
            .expect("truncated");
        let bytes = parked.to_bytes().expect("serialize");
        let err = ScheduleResume::from_bytes(KCoreConfig::default(), scripts(4), &bytes)
            .expect_err("wrong-workload blob accepted");
        assert!(
            matches!(
                err,
                vrm_explore::ExploreError::CorruptCheckpoint(
                    vrm_explore::CheckpointFault::BadState
                )
            ),
            "{err:?}"
        );
    }

    /// Fingerprints of a node's identity as canonical text, the oracles
    /// for the structural digests: of its `encode_state` text (for
    /// [`KCore::state_digest`]), and of that text followed by the
    /// per-CPU and accumulated fields, with spin counts and absolute
    /// tickets left out (for the node digest). The texts themselves are
    /// too large to hold for a whole walk.
    fn reference_fingerprints(n: &SchedNode) -> (u128, u128) {
        use std::fmt::Write as _;
        let mut w = String::new();
        n.kcore.encode_state(&mut w);
        let kcore = vrm_explore::digest128(&w);
        for c in &n.cpus {
            let _ = write!(w, "|{}", c.next_op);
            match &c.phase {
                Phase::Idle => w.push_str(",i"),
                Phase::Finished => w.push_str(",f"),
                Phase::Spinning { lock, ticket, .. } => {
                    let pos = n.kcore.locks.get(*lock).position(*ticket);
                    let _ = write!(w, ",s{lock:?}@{pos}");
                }
            }
            let _ = write!(w, ",{:?},{:?}", c.vm, c.held);
        }
        let _ = write!(
            w,
            "|{}|{:?}|{:?}",
            n.ops_ok, n.failures, n.expectation_violations
        );
        (kcore, vrm_explore::digest128(&w))
    }

    /// Every node an unreduced walk of `scripts` generates — revisits
    /// included — with its reference fingerprints, deduplicated for
    /// expansion by the node fingerprint (not by the digest under
    /// test), followed by each reached node's symmetry images as
    /// [`replay`] builds them for canon and orbit.
    fn generated_nodes(scripts: Vec<Script>) -> Vec<(SchedNode, (u128, u128))> {
        let space = SchedSpace::new(KCoreConfig::default(), scripts);
        let mut expanded = std::collections::HashSet::new();
        let mut stack = vec![space.root.clone()];
        let mut nodes = Vec::new();
        while let Some(n) = stack.pop() {
            let fps = reference_fingerprints(&n);
            if expanded.insert(fps.1) {
                for cpu in SchedSpace::runnable(&n) {
                    stack.push(n.step_once(cpu).0);
                }
            }
            nodes.push((n, fps));
        }
        let mut images = Vec::new();
        for (n, _) in nodes.iter().filter(|(_, fps)| expanded.remove(&fps.1)) {
            for perm in &space.perms {
                let img = replay(&space.root, &n.path, perm);
                let fps = reference_fingerprints(&img);
                images.push((img, fps));
            }
        }
        nodes.extend(images);
        nodes
    }

    /// Records `key ↦ value`; false if `key` already maps elsewhere.
    fn maps_to<K: std::hash::Hash + Eq, V: Copy + Eq>(
        map: &mut std::collections::HashMap<K, V>,
        key: K,
        value: V,
    ) -> bool {
        *map.entry(key).or_insert(value) == value
    }

    #[test]
    fn walk_digests_are_equal_exactly_when_reference_texts_are() {
        use std::collections::HashMap;
        for (name, reached) in [("unmap", 117), ("mirror", 137)] {
            let scripts = crate::workloads::by_name(name).expect("registered workload");
            let nodes = generated_nodes(scripts);
            let (mut node_ids, mut node_texts) = (HashMap::new(), HashMap::new());
            let (mut kcore_ids, mut kcore_texts) = (HashMap::new(), HashMap::new());
            for (n, (kcore_text, node_text)) in &nodes {
                let state = n.kcore.state_digest();
                // Text → digest and digest → text must both stay
                // functions: over every pair, equal text ⇔ equal digest.
                assert!(
                    maps_to(&mut node_ids, node_text, n.digest)
                        && maps_to(&mut node_texts, n.digest, node_text),
                    "{name}: node digest and reference text disagree at {:?}",
                    n.path
                );
                assert!(
                    maps_to(&mut kcore_ids, kcore_text, state)
                        && maps_to(&mut kcore_texts, state, kcore_text),
                    "{name}: state_digest and encode_state disagree at {:?}",
                    n.path
                );
            }
            // The unreduced anchors: the walk covered the whole space,
            // and revisits were really compared.
            assert_eq!(node_ids.len(), reached, "{name}");
            assert!(nodes.len() > reached, "{name}: {} nodes", nodes.len());
        }
    }

    #[test]
    fn replay_rebuilds_the_node_its_path_reached() {
        let scripts = crate::workloads::by_name("unmap").expect("unmap workload");
        let space = SchedSpace::new(KCoreConfig::default(), scripts);
        let identity: Vec<usize> = (0..space.root.cpus.len()).collect();
        // Down one schedule: every prefix, rebuilt by replay, equals
        // the node the step-by-step walk built.
        let mut node = space.root.clone();
        while let Some(&cpu) = SchedSpace::runnable(&node).last() {
            node = node.step_once(cpu).0;
            let r = replay(&space.root, &node.path, &identity);
            assert_eq!(r.digest, node.digest, "path {:?}", node.path);
            assert_eq!(
                reference_fingerprints(&r),
                reference_fingerprints(&node),
                "path {:?}",
                node.path
            );
            assert_eq!(r.kcore.log, node.kcore.log, "path {:?}", node.path);
            assert_eq!(r.path, node.path);
        }
        assert!(node.path.len() > 10, "a real schedule: {:?}", node.path);
    }

    #[test]
    fn vmids_unique_across_cpus() {
        let mut m = Machine::new(KCoreConfig::default(), scripts(8), 3);
        let report = m.run(2_000_000);
        assert!(report.clean(), "{report:?}");
        let mut vmids: Vec<u32> = (0..8).map(|c| m.cpu_vm(c).unwrap()).collect();
        vmids.sort_unstable();
        vmids.dedup();
        assert_eq!(vmids.len(), 8, "duplicate vmid handed out");
    }

    #[test]
    fn multiprocessor_vm_with_vcpu_migration() {
        // CPU 0 boots a 2-vCPU VM; CPU 1 adopts it. Both run vCPUs
        // concurrently, then *swap* vCPUs (migration), then contend for
        // the same vCPU — the ACTIVE/INACTIVE protocol must serialize
        // them without any failure.
        let gpa = 64 * crate::layout::PAGE_WORDS;
        let cpu0: Script = vec![
            Op::RegisterVm,
            Op::RegisterVcpu,
            Op::RegisterVcpu,
            Op::StageImage {
                pfns: vec![VM_POOL_PFN.0, VM_POOL_PFN.0 + 1],
            },
            Op::VerifyImage,
            Op::Fault {
                gpa,
                donor_pfn: VM_POOL_PFN.0 + 4,
            },
            Op::VmWrite { gpa, val: 7 },
            Op::Rendezvous { id: 1 },
            Op::VcpuBegin { vcpu: 0 },
            Op::VcpuEnd,
            // Migration: now run the vCPU the other CPU ran first.
            Op::VcpuBegin { vcpu: 1 },
            Op::VcpuEnd,
            // Contend on vCPU 0 with CPU 1.
            Op::VcpuBegin { vcpu: 0 },
            Op::VcpuEnd,
            // Virtual IPI to the vCPU the other CPU is handling.
            Op::SendIpi { to_vcpu: 1, irq: 5 },
            Op::Rendezvous { id: 2 },
            Op::Reclaim,
        ];
        let cpu1: Script = vec![
            Op::AttachVm { owner_cpu: 0 },
            Op::Rendezvous { id: 1 },
            Op::VcpuBegin { vcpu: 1 },
            Op::VcpuEnd,
            Op::VcpuBegin { vcpu: 0 },
            Op::VmReadExpect { gpa, expect: 7 },
            Op::VcpuEnd,
            Op::WaitIrq { vcpu: 1, irq: 5 },
            Op::Rendezvous { id: 2 },
        ];
        for seed in 0..12 {
            let mut m = Machine::new(
                KCoreConfig::default(),
                vec![cpu0.clone(), cpu1.clone()],
                seed,
            );
            let report = m.run(2_000_000);
            assert!(report.clean(), "seed {seed}: {report:?}");
            // Every vCPU saw multiple run/stop generations.
            let vm = m.kcore.vm(0).unwrap();
            let g0 = vm.vcpus[0].ctx.generation;
            let g1 = vm.vcpus[1].ctx.generation;
            assert_eq!(g0 + g1, 5, "seed {seed}: generations {g0}+{g1}");
            // Simulated guest progress accumulated across CPUs.
            assert_eq!(vm.vcpus[0].ctx.regs[0] + vm.vcpus[1].ctx.regs[0], 5);
            assert!(crate::wdrf::validate_log(&m.kcore.log).is_empty());
        }
    }

    #[test]
    fn deadlocked_rendezvous_is_detected() {
        // CPU 0 waits at a barrier CPU 1 can never reach (it waits for a
        // VM that is never verified): the machine must report a stall
        // instead of spinning to the step limit.
        let cpu0: Script = vec![Op::Rendezvous { id: 9 }];
        let cpu1: Script = vec![Op::AttachVm { owner_cpu: 0 }, Op::Rendezvous { id: 9 }];
        let mut m = Machine::new(KCoreConfig::default(), vec![cpu0, cpu1], 3);
        let report = m.run(10_000_000);
        assert!(report.stalled);
        assert!(!report.clean());
        assert!(report.steps < 10_000_000);
    }

    #[test]
    fn exhaustive_two_cpu_registration_is_clean_on_every_schedule() {
        // All interleavings of two CPUs contending on the VmId lock
        // complete cleanly and produce the same observable outcome.
        let scripts: Vec<Script> = (0..2).map(|_| vec![Op::RegisterVm]).collect();
        let report = Machine::explore_schedules(
            KCoreConfig::default(),
            scripts,
            &ExhaustiveConfig::default(),
        )
        .unwrap();
        assert!(report.all_clean(), "{:?}", report.outcomes);
        assert_eq!(report.outcomes.len(), 1);
        assert!(report.outcomes.iter().all(|o| o.ops_ok == 2));
        assert!(report.stats.states > 2, "expected real branching");
    }

    #[test]
    fn exhaustive_detects_deadlock_on_every_schedule() {
        // The stalled-rendezvous machine from the seeded test: every
        // schedule must dead-end, and exhaustive mode must say so.
        let cpu0: Script = vec![Op::Rendezvous { id: 9 }];
        let cpu1: Script = vec![Op::AttachVm { owner_cpu: 0 }, Op::Rendezvous { id: 9 }];
        let report = Machine::explore_schedules(
            KCoreConfig::default(),
            vec![cpu0, cpu1],
            &ExhaustiveConfig::default(),
        )
        .unwrap();
        assert!(!report.outcomes.is_empty());
        assert!(report.outcomes.iter().all(|o| o.stalled));
        assert!(!report.all_clean());
    }

    #[test]
    fn exhaustive_parallel_matches_sequential() {
        let scripts = |n: usize| -> Vec<Script> {
            (0..n)
                .map(|_| vec![Op::RegisterVm, Op::RegisterVcpu])
                .collect()
        };
        let run = |jobs: usize| {
            Machine::explore_schedules(
                KCoreConfig::default(),
                scripts(3),
                &ExhaustiveConfig {
                    max_states: 1 << 20,
                    jobs,
                    ..ExhaustiveConfig::default()
                },
            )
            .unwrap()
        };
        let seq = run(1);
        for jobs in [2, 4] {
            assert_eq!(seq.outcomes, run(jobs).outcomes, "jobs={jobs}");
        }
    }

    #[test]
    fn exhaustive_state_limit_degrades_to_unknown() {
        // Hitting the state budget is no longer an error: the walk
        // returns its partial outcomes and the verdict must be Unknown
        // with nonzero coverage — never pass/fail.
        let scripts: Vec<Script> = (0..2).map(|_| vec![Op::RegisterVm]).collect();
        let report = Machine::explore_schedules(
            KCoreConfig::default(),
            scripts,
            &ExhaustiveConfig {
                max_states: 2,
                jobs: 1,
                ..ExhaustiveConfig::default()
            },
        )
        .unwrap();
        assert!(report.stats.completeness.is_truncated());
        match report.verdict() {
            vrm_explore::Verdict::Unknown { coverage } => {
                assert!(coverage.states > 0, "{coverage}");
                assert!(coverage.frontier_len > 0, "{coverage}");
            }
            v => panic!("truncated walk must be Unknown, got {v}"),
        }
    }

    #[test]
    fn truncated_schedules_resume_without_restarting() {
        // A starved run parks a ScheduleResume in its report; feeding it
        // back with a real budget must complete the walk exploring only
        // fresh states, and the unioned result must equal a from-scratch
        // exhaustive run.
        let scripts = || -> Vec<Script> { (0..2).map(|_| vec![Op::RegisterVm]).collect() };
        let full = Machine::explore_schedules(
            KCoreConfig::default(),
            scripts(),
            &ExhaustiveConfig::default(),
        )
        .unwrap();
        let starved = Machine::explore_schedules(
            KCoreConfig::default(),
            scripts(),
            &ExhaustiveConfig {
                max_states: 2,
                jobs: 1,
                ..ExhaustiveConfig::default()
            },
        )
        .unwrap();
        assert!(starved.stats.completeness.is_truncated());
        let resume = starved.resume.expect("truncated run must park a resume");
        assert!(resume.frontier_len() > 0);
        let starved_states = starved.stats.states;
        let resumed = Machine::explore_schedules_from(
            KCoreConfig::default(),
            scripts(),
            &ExhaustiveConfig::default(),
            Some(resume),
        )
        .unwrap();
        assert!(resumed.stats.completeness.is_exhaustive());
        assert!(resumed.resume.is_none());
        assert_eq!(resumed.outcomes, full.outcomes);
        assert!(matches!(resumed.verdict(), vrm_explore::Verdict::Pass));
        // Summed states across both attempts equal the from-scratch
        // count: nothing was revisited and nothing was lost.
        assert_eq!(resumed.stats.states, full.stats.states);
        assert!(starved_states < full.stats.states);
    }

    #[test]
    fn resilient_exploration_escalates_to_exhaustive() {
        // Start with a starved budget; the escalating retry doubles it
        // (resuming from the checkpoint) until the walk completes, and
        // the final verdict is a real Pass.
        let scripts: Vec<Script> = (0..2).map(|_| vec![Op::RegisterVm]).collect();
        let report = Machine::explore_schedules_resilient(
            KCoreConfig::default(),
            scripts,
            &ExhaustiveConfig {
                max_states: 2,
                jobs: 1,
                ..ExhaustiveConfig::default()
            },
            16,
        )
        .unwrap();
        assert!(report.stats.completeness.is_exhaustive());
        assert!(matches!(report.verdict(), vrm_explore::Verdict::Pass));
        assert!(report.all_clean(), "{:?}", report.outcomes);
    }

    #[test]
    fn contention_is_observed() {
        // All CPUs hammer the same *shared* VM? Simpler: they all contend
        // on the global VmId lock at the same time.
        let scripts: Vec<Script> = (0..6).map(|_| vec![Op::RegisterVm]).collect();
        let mut m = Machine::new(KCoreConfig::default(), scripts, 11);
        let report = m.run(100_000);
        assert!(report.clean());
        assert!(report.total_spins > 0, "expected lock contention");
    }
}
