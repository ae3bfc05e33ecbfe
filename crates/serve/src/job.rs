//! Job specifications, per-job configuration, and the execution
//! bridge from a job to the workspace's checkers.

use std::time::Instant;

use vrm_core::paper_examples::wdrf_by_name;
use vrm_core::spec::KernelSpec;
use vrm_core::theorem::{check_wdrf, WdrfCheckConfig};
use vrm_explore::{ExploreConfig, Verdict};
use vrm_memmodel::parser::parse;
use vrm_memmodel::runner::{run_litmus, RunOverrides};
use vrm_sekvm::machine::{ExhaustiveConfig, Machine, ScheduleResume};
use vrm_sekvm::{workloads, KCoreConfig};

/// What a client asks the daemon to verify.
///
/// Litmus programs travel by value (the daemon normalizes the text);
/// kernel-side workloads travel by *name* into the shared registries
/// ([`vrm_core::paper_examples::wdrf_by_name`],
/// [`vrm_sekvm::workloads::by_name`]) so a workload name means the
/// same program to the daemon, the bench harness and the mutation
/// campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// A litmus program (the full `.litmus` file text) run through the
    /// shared [`vrm_memmodel::runner`] pipeline — the exact pipeline
    /// behind the `litmus` CLI, so verdicts bit-match it.
    Litmus {
        /// The litmus file text.
        text: String,
    },
    /// A wDRF theorem check ([`check_wdrf`]) over a named program from
    /// the paper-examples catalog.
    Wdrf {
        /// Catalog name, e.g. `"example1"` or `"ticket-lock"`.
        name: String,
    },
    /// An every-schedule machine walk
    /// ([`Machine::explore_schedules_from`]) over a named workload.
    /// The only job kind with checkpoint continuation.
    Schedules {
        /// Workload registry name, e.g. `"unmap"`.
        workload: String,
    },
    /// A per-transition refinement check
    /// ([`Machine::check_refinement`]) over a named workload.
    Refinement {
        /// Workload registry name, e.g. `"unmap"`.
        workload: String,
    },
}

impl JobSpec {
    /// The wire-protocol kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Litmus { .. } => "litmus",
            JobSpec::Wdrf { .. } => "wdrf",
            JobSpec::Schedules { .. } => "schedules",
            JobSpec::Refinement { .. } => "refinement",
        }
    }
}

/// Per-job verdict-relevant knobs, supplied by the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobConfig {
    /// State budget for the job's enumerations. Exhausting it yields
    /// an `Unknown` verdict (with a parked checkpoint for schedule
    /// walks), never a wrong one.
    pub max_states: usize,
    /// Worker threads for the exploration engines. Deliberately *not*
    /// part of the job digest: verdicts are driver-independent (a
    /// cross-driver invariant the engine tests pin), so a parallel
    /// query may be answered from a sequential query's cache entry.
    pub jobs: usize,
    /// Ask the daemon to escalate an `Unknown` verdict through the
    /// slow lane (budget doubling, checkpoint continuation) before
    /// answering.
    pub escalate: bool,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            max_states: 1 << 18,
            jobs: ExploreConfig::jobs_from_env(),
            escalate: false,
        }
    }
}

/// What a finished job reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// The sound three-valued verdict.
    pub verdict: Verdict,
    /// Total distinct states backing this verdict (including any
    /// resumed prior walk's states).
    pub states: usize,
    /// States freshly explored answering *this* query: `0` for a pure
    /// cache hit, and less than a from-scratch walk when a checkpoint
    /// was resumed.
    pub states_new: usize,
    /// Wall-clock nanoseconds spent executing (0 for a cache hit).
    pub wall_ns: u64,
    /// Whether a parked checkpoint from an earlier truncated walk was
    /// resumed.
    pub resumed: bool,
    /// Human-oriented one-line detail (outcome counts, violation
    /// counts, truncation reason).
    pub detail: String,
}

impl JobResult {
    /// Process exit-code image of the verdict (0 pass / 1 fail /
    /// 3 unknown), shared with every CLI in the workspace.
    pub fn exit_code(&self) -> i32 {
        self.verdict.exit_code()
    }
}

/// The budgeted wDRF config the bench harness and mutation campaign
/// use, with this job's budget and worker count applied.
fn wdrf_config(cfg: &JobConfig) -> WdrfCheckConfig {
    let mut w = WdrfCheckConfig {
        skip_sync_conditions: true,
        ..Default::default()
    };
    w.jobs = cfg.jobs;
    w.promising.max_promises_per_thread = 1;
    w.promising.value_cfg.max_rounds = 3;
    w.promising.max_states = cfg.max_states;
    w.sc.max_states = cfg.max_states;
    w
}

/// Rebuilds a parked walk from its sealed `VRMSRES4` image
/// ([`ScheduleResume::from_bytes`]), replaying the serialized schedule
/// paths under the job's own scripts. `Err` means the blob is corrupt,
/// of an older format, or parked by a different workload, and must be
/// discarded, never resumed.
pub fn decode_resume(spec: &JobSpec, bytes: &[u8]) -> Result<ScheduleResume, String> {
    let JobSpec::Schedules { workload } = spec else {
        return Err(format!("{} jobs have no checkpoints", spec.kind()));
    };
    let scripts =
        workloads::by_name(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    ScheduleResume::from_bytes(KCoreConfig::default(), scripts, bytes)
        .map_err(|e| format!("decode checkpoint: {e}"))
}

/// [`execute`] over serialized checkpoints: the form the service, the
/// write-ahead log and the out-of-process worker all share. A blob
/// that does not decode is counted on `serve/checkpoint_corrupt` and
/// the walk restarts from scratch — corruption costs work, never a
/// wrong verdict. This is the only place a checkpoint is decoded, so
/// it is the only place one can be refused.
pub fn execute_blob(
    spec: &JobSpec,
    cfg: &JobConfig,
    resume_blob: Option<&[u8]>,
) -> Result<(JobResult, Option<Vec<u8>>), String> {
    let resume = match resume_blob {
        Some(bytes) => match decode_resume(spec, bytes) {
            Ok(r) => Some(r),
            Err(_) => {
                vrm_obs::Counter::new(vrm_obs::serve::CHECKPOINT_CORRUPT).add(1);
                None
            }
        },
        None => None,
    };
    let (res, parked) = execute(spec, cfg, resume)?;
    Ok((res, parked.as_ref().and_then(ScheduleResume::to_bytes)))
}

/// Runs one job to completion under its config, optionally resuming a
/// parked schedule checkpoint.
///
/// Returns the result plus, for a truncated schedule walk, the new
/// parked checkpoint to store for the next larger-budget query.
/// `Err` means the job could not be *attempted* (unparsable program,
/// unknown catalog name) — a protocol-level error (exit 2), distinct
/// from a `Fail` verdict.
pub fn execute(
    spec: &JobSpec,
    cfg: &JobConfig,
    resume: Option<ScheduleResume>,
) -> Result<(JobResult, Option<ScheduleResume>), String> {
    let started = Instant::now();
    match spec {
        JobSpec::Litmus { text } => {
            let parsed = parse(text).map_err(|e| format!("litmus parse: {e}"))?;
            let ov = RunOverrides {
                jobs: Some(cfg.jobs),
                max_states: Some(cfg.max_states),
            };
            let run = run_litmus(&parsed, &ov).map_err(|e| format!("litmus run: {e}"))?;
            Ok((
                JobResult {
                    verdict: run.verdict,
                    states: run.stats.states,
                    states_new: run.stats.states,
                    wall_ns: started.elapsed().as_nanos() as u64,
                    resumed: false,
                    detail: format!(
                        "sc:{} arm:{} conform:{}",
                        run.sc_outcomes, run.rm_outcomes, run.conform
                    ),
                },
                None,
            ))
        }
        JobSpec::Wdrf { name } => {
            let prog =
                wdrf_by_name(name).ok_or_else(|| format!("unknown wdrf program {name:?}"))?;
            let wcfg = wdrf_config(cfg);
            let spec = KernelSpec::for_kernel_threads(0..prog.threads.len());
            let v = check_wdrf(&prog, &spec, &wcfg).map_err(|e| format!("check_wdrf: {e}"))?;
            Ok((
                JobResult {
                    verdict: v.verdict(),
                    states: v.stats.states,
                    states_new: v.stats.states,
                    wall_ns: started.elapsed().as_nanos() as u64,
                    resumed: false,
                    detail: format!(
                        "conditions:{} counterexamples:{}",
                        v.conditions.len(),
                        v.counterexamples.len()
                    ),
                },
                None,
            ))
        }
        JobSpec::Schedules { workload } => {
            let scripts = workloads::by_name(workload)
                .ok_or_else(|| format!("unknown workload {workload:?}"))?;
            let ecfg = ExhaustiveConfig {
                max_states: cfg.max_states,
                jobs: cfg.jobs,
                ..ExhaustiveConfig::default()
            };
            let resumed = resume.is_some();
            let prior_states = resume.as_ref().map_or(0, |r| r.states_visited());
            let report =
                Machine::explore_schedules_from(KCoreConfig::default(), scripts, &ecfg, resume);
            let verdict = report.verdict();
            let states = report.stats.states;
            Ok((
                JobResult {
                    verdict,
                    states,
                    states_new: states.saturating_sub(prior_states),
                    wall_ns: started.elapsed().as_nanos() as u64,
                    resumed,
                    detail: format!("outcomes:{}", report.outcomes.len()),
                },
                report.resume,
            ))
        }
        JobSpec::Refinement { workload } => {
            let scripts = workloads::by_name(workload)
                .ok_or_else(|| format!("unknown workload {workload:?}"))?;
            let ecfg = ExhaustiveConfig {
                max_states: cfg.max_states,
                jobs: cfg.jobs,
                ..ExhaustiveConfig::default()
            };
            let report = Machine::check_refinement(KCoreConfig::default(), scripts, &ecfg)
                .map_err(|e| format!("check_refinement: {e}"))?;
            Ok((
                JobResult {
                    verdict: report.verdict(),
                    states: report.stats.states,
                    states_new: report.stats.states,
                    wall_ns: started.elapsed().as_nanos() as u64,
                    resumed: false,
                    detail: format!(
                        "outcomes:{} violations:{}",
                        report.outcomes.len(),
                        report.violations.len()
                    ),
                },
                None,
            ))
        }
    }
}
