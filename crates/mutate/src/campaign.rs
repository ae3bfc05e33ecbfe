//! The curated mutation campaign and its driver.
//!
//! Each [`MutantSpec`] injects one bug into one layer of the stack and
//! names the oracle that must notice:
//!
//! * **Litmus** (`vrm-memmodel`): a battery program is mutated and rerun
//!   through all three models; the kill signal is a flipped
//!   allowed/forbidden verdict (axiomatic-vs-SC divergence appearing or
//!   vanishing where the expectation says otherwise).
//! * **Kernel** (`vrm-core`): a paper example or the Figure 7 ticket lock
//!   is mutated and rerun through [`check_wdrf`] or [`check_pushpull`];
//!   the kill signal is a failed wDRF verdict.
//! * **Machine** (`vrm-sekvm`): a `KCoreConfig` switch re-creates a
//!   hypervisor-level bug; the kill signal is a `validate_log` violation
//!   on every-schedule exploration or a `check_invariants` breach.
//! * **Spec** (`vrm-spec` × `vrm-sekvm`): a `KCoreConfig` switch breaks
//!   the forward simulation into the abstract ownership machine (an
//!   unscrubbed reclaim, a leaked ownership transfer, a kept share, a
//!   skipped host unmap); the kill signal is a
//!   `Machine::check_refinement` violation on every-schedule
//!   exploration.
//! * **Engine** (`vrm-explore`): a degradation rule (truncation →
//!   `Unknown`) is re-implemented with its soundness guard removed and
//!   judged against the real engine on a deliberately budget-starved
//!   check; the kill signal is the bugged rule disagreeing with the
//!   sound one. A survivor here would mean a truncated run can launder
//!   into a definite pass/fail.
//! * **Serve** (`vrm-serve`): a `ServeConfig` switch breaks the
//!   daemon's caching discipline (a cache key that ignores the budget,
//!   an escalation lane that forgets its checkpoint); the kill signal
//!   is the bugged daemon's end-to-end submit→verdict behaviour
//!   diverging from the sound daemon's on the same query sequence — a
//!   stale `Unknown` served where a fresh walk proves `Pass`, or a
//!   restarted walk re-paying states a resume would have kept.
//! * **Gen** (`vrm-memmodel::gen`): a `GenConfig` switch breaks the
//!   litmus generator feeding the differential fuzzer (a generator
//!   whose programs never close a critical cycle, a shrinker that
//!   stops re-checking the failure predicate); the kill signal is the
//!   bugged generator pipeline losing the relaxed-behaviour signal the
//!   sound one produces. A survivor here would mean the standing
//!   fuzzer could silently degrade into one that can never find — or
//!   never keep — a counterexample.
//!
//! Oracles that themselves run bounded explorations degrade soundly: a
//! truncated enumeration that found no violation yields
//! [`Status::Unknown`] (counted as *not killed*, so the 100%-kill gate
//! trips), while a violation observed on a concretely executed schedule
//! remains a kill even under truncation.
//!
//! [`curated`] returns the shipped set — every entry is expected to be
//! **killed**; `tests/mutation_campaign.rs` and CI enforce the 100% kill
//! rate. [`run`] executes a set and aggregates per-mutant exploration
//! statistics.

use std::time::{Duration, Instant};

use vrm_core::pushpull::check_pushpull;
use vrm_core::{check_wdrf, paper_examples, KernelSpec, WdrfCheckConfig};
use vrm_explore::{Completeness, ExploreConfig, ExploreStats, Verdict};
use vrm_memmodel::ir::Program;
use vrm_memmodel::litmus::{battery, check_with_jobs, LitmusTest};
use vrm_memmodel::promising::PromisingConfig;
use vrm_sekvm::layout::{page_addr, PAGE_WORDS, VM_POOL_PFN};
use vrm_sekvm::machine::{ExhaustiveConfig, Machine, Op, Script};
use vrm_sekvm::mutants::CaughtBy;
use vrm_sekvm::security::check_invariants;
use vrm_sekvm::{KCore, KCoreConfig};

use crate::ir::{apply, find_sites, Mutation, MutationKind};

/// Which layer of the stack a mutant lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Litmus programs checked by the three memory models.
    Litmus,
    /// Kernel-scale programs checked by the static wDRF theorem checkers.
    Kernel,
    /// The executable hypervisor machine model.
    Machine,
    /// The refinement-spec layer: the concrete machine's simulation of
    /// the abstract ownership machine.
    Spec,
    /// The exploration engine's graceful-degradation machinery itself.
    Engine,
    /// The verification-as-a-service daemon's caching and scheduling
    /// discipline.
    Serve,
    /// The litmus generator behind the standing differential fuzzer.
    Gen,
}

impl Layer {
    /// Short name for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Layer::Litmus => "litmus",
            Layer::Kernel => "kernel",
            Layer::Machine => "machine",
            Layer::Spec => "spec",
            Layer::Engine => "engine",
            Layer::Serve => "serve",
            Layer::Gen => "gen",
        }
    }
}

/// The checker expected to kill a mutant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Cross-model conformance: the allowed/forbidden verdict flips.
    Conformance,
    /// [`check_wdrf`]: the RM ⊆ SC comparison fails.
    Wdrf,
    /// [`check_pushpull`]: ownership or barrier-fulfilment discipline
    /// fails (conditions 1/2).
    PushPull,
    /// `validate_log` flags a dynamic wDRF violation on some schedule.
    ValidateLog,
    /// `check_invariants` finds a broken security invariant.
    Invariants,
    /// `Machine::check_refinement` finds a concrete transition that does
    /// not simulate the abstract ownership machine.
    Refinement,
    /// A guard-stripped reimplementation of a degradation rule disagrees
    /// with the sound engine on a real budget-starved check.
    Degradation,
    /// A bugged `vrm-serve` daemon's end-to-end submit→verdict
    /// behaviour diverges from the sound daemon's on the same query
    /// sequence.
    Serve,
    /// The differential-fuzz pipeline over generated programs loses a
    /// signal the sound generator/shrinker produces.
    DiffFuzz,
    /// A guard-stripped reimplementation of a state-space reduction
    /// rule disagrees with the sound reduced engine on a battery test —
    /// either on the deterministic state counts the bench anchors pin,
    /// or on the outcome set itself.
    Reduction,
}

impl Oracle {
    /// Short name for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Oracle::Conformance => "conformance",
            Oracle::Wdrf => "check_wdrf",
            Oracle::PushPull => "check_pushpull",
            Oracle::ValidateLog => "validate_log",
            Oracle::Invariants => "check_invariants",
            Oracle::Refinement => "refinement",
            Oracle::Degradation => "degradation",
            Oracle::Serve => "serve",
            Oracle::DiffFuzz => "diff-fuzz",
            Oracle::Reduction => "reduction",
        }
    }
}

/// What happened to one mutant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The oracle rejected the mutant.
    Killed,
    /// The oracle saw nothing wrong.
    Survived,
    /// The oracle's exploration failed outright (every parallel worker
    /// died) before it could decide.
    Timeout,
    /// The oracle's enumeration was truncated by a budget and found no
    /// violation; absence over a partial walk proves nothing. Counted
    /// as *not killed*, so `all_killed` (and the CI 100%-kill gate)
    /// flags it — a mutant must never escape behind a truncated check.
    Unknown,
}

impl Status {
    /// Short name for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Status::Killed => "killed",
            Status::Survived => "survived",
            Status::Timeout => "timeout",
            Status::Unknown => "unknown",
        }
    }
}

/// The subject a spec mutates and the oracle wiring for it.
#[derive(Debug, Clone)]
enum Subject {
    /// Mutate a litmus test, keep its expectations, re-check conformance.
    Litmus {
        test: LitmusTest,
        mutations: Vec<Mutation>,
    },
    /// Mutate a kernel program, expect [`check_wdrf`] to fail.
    Wdrf {
        prog: Program,
        spec: KernelSpec,
        mutations: Vec<Mutation>,
    },
    /// Mutate a kernel program, expect [`check_pushpull`] to fail.
    PushPull {
        prog: Program,
        spec: KernelSpec,
        mutations: Vec<Mutation>,
    },
    /// A `KCoreConfig` switch checked by log validation over every
    /// schedule of a minimal unmap-heavy workload.
    MachineLog { cfg: KCoreConfig },
    /// A `KCoreConfig` switch checked by the security invariant sweep.
    MachineInvariants { cfg: KCoreConfig },
    /// A `KCoreConfig` switch checked by per-transition refinement over
    /// every schedule of a lifecycle workload.
    MachineRefinement { cfg: KCoreConfig },
    /// A guard-stripped degradation rule judged against the engine.
    Degradation { variant: DegradationVariant },
    /// A `ServeConfig` switch judged by running the bugged daemon and
    /// the sound daemon through the same query sequence.
    Serve { variant: ServeVariant },
    /// A `GenConfig` switch judged by running the bugged generator
    /// pipeline and the sound one over the same seeds.
    Gen { variant: GenVariant },
    /// A guard-stripped state-space reduction rule judged against the
    /// sound reduced engine on a battery test.
    Reduction { variant: ReductionVariant },
}

/// Which reduction rule a `Subject::Reduction` mutant re-implements
/// with its soundness guard removed (`docs/REDUCTION.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionVariant {
    /// The sleep-set driver with blocking deleted: every child starts
    /// awake, so no commuting interleaving is ever pruned. The walk
    /// stays outcome-correct but its popped/states counts drift off the
    /// bench anchors `BENCH_explore.json` pins.
    SleepSetNeverBlocks,
    /// `StateSpace::canon` replaced by the identity on a space whose orbit
    /// map treats *all* threads as interchangeable — an unsound
    /// over-prune that merges non-symmetric interleavings and
    /// manufactures outcomes the real machine forbids, flipping a
    /// corpus verdict.
    CanonIdentity,
}

impl ReductionVariant {
    /// Human description of the injected change.
    pub fn describe(&self) -> &'static str {
        match self {
            ReductionVariant::SleepSetNeverBlocks => {
                "sleep-set driver whose sleep sets never block a child"
            }
            ReductionVariant::CanonIdentity => {
                "orbit map declaring all threads symmetric regardless of their code"
            }
        }
    }
}

/// Which engine degradation rule a `Subject::Degradation` mutant
/// re-implements with the soundness guard removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationVariant {
    /// `Verdict::from_parts` with the completeness check deleted: a
    /// truncated walk that happened to see no counterexample reports a
    /// definite pass (or fail) instead of `Unknown`.
    IgnoreTruncation,
    /// `Completeness::merge` where the *last* stage wins instead of
    /// truncation being sticky: an exhaustive final stage overwrites an
    /// earlier truncated one and launders partial coverage.
    ExhaustiveMergeWins,
    /// An exit-code map that collapses `Unknown` onto the success path,
    /// making a truncated run indistinguishable from a verified pass
    /// to CI.
    UnknownExitsZero,
}

impl DegradationVariant {
    /// Human description of the injected change.
    pub fn describe(&self) -> &'static str {
        match self {
            DegradationVariant::IgnoreTruncation => {
                "Verdict::from_parts without the completeness guard"
            }
            DegradationVariant::ExhaustiveMergeWins => {
                "Completeness::merge where the last stage overwrites truncation"
            }
            DegradationVariant::UnknownExitsZero => "exit-code map sending Unknown to 0",
        }
    }
}

/// Which `vrm-serve` caching-discipline switch a `Subject::Serve`
/// mutant flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeVariant {
    /// `ServeConfig::digest_includes_config = false`: the cache key
    /// ignores the budget, so a re-query with a *larger* budget
    /// aliases to the old budget's cached `Unknown` instead of running
    /// the walk that would prove `Pass` — a stale verdict served after
    /// a config change.
    StaleAfterConfigChange,
    /// `ServeConfig::reuse_checkpoints = false`: the escalation lane
    /// forgets the suspended walk it parked, so every budget-doubling
    /// retry restarts from scratch and re-pays states the checkpoint
    /// already covered.
    EscalationDropsCheckpoint,
    /// `WorkerIsolation::ignore_deadline = true`: the supervisor waits
    /// out a hung worker instead of SIGKILLing it at deadline+grace —
    /// the daemon outage process isolation exists to prevent, detected
    /// as the oracle's wall clock crossing the worker's sleep.
    SupervisorIgnoresDeadline,
    /// `StoreOptions::verify_checksums = false`: WAL replay accepts a
    /// record whose payload no longer matches its checksum, so a
    /// corrupted verdict is resurrected into the cache as if intact.
    WalSkipsChecksum,
}

impl ServeVariant {
    /// Human description of the injected change.
    pub fn describe(&self) -> &'static str {
        match self {
            ServeVariant::StaleAfterConfigChange => {
                "ServeConfig cache key that ignores the verdict-relevant config"
            }
            ServeVariant::EscalationDropsCheckpoint => {
                "ServeConfig escalation lane that drops parked checkpoints"
            }
            ServeVariant::SupervisorIgnoresDeadline => {
                "WorkerIsolation supervisor that never kills a hung worker"
            }
            ServeVariant::WalSkipsChecksum => {
                "StoreOptions WAL replay that skips checksum verification"
            }
        }
    }
}

/// Which `vrm_memmodel::gen::GenConfig` switch a `Subject::Gen` mutant
/// flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenVariant {
    /// `GenConfig::po_cycle_free = true`: every generated thread's
    /// second event lands on a private location, so no critical cycle
    /// ever closes and the "fuzzer" sweeps a corpus that can never
    /// exhibit a relaxed-only outcome — it would pass forever while
    /// testing nothing.
    PoCycleFree,
    /// `GenConfig::recheck_shrinks = false`: the shrinker accepts every
    /// simplification without re-running the failure predicate, so the
    /// minimized program it dumps can silently stop exhibiting the
    /// disagreement it was meant to witness.
    ShrinkerSkipsRecheck,
}

impl GenVariant {
    /// Human description of the injected change.
    pub fn describe(&self) -> &'static str {
        match self {
            GenVariant::PoCycleFree => "GenConfig generator that never closes a critical cycle",
            GenVariant::ShrinkerSkipsRecheck => "GenConfig shrinker that skips predicate re-checks",
        }
    }
}

/// One campaign entry: a named mutant plus its oracle.
#[derive(Debug, Clone)]
pub struct MutantSpec {
    /// Unique mutant name (kebab-case).
    pub name: String,
    /// Layer the bug is injected into.
    pub layer: Layer,
    /// Checker expected to kill it.
    pub oracle: Oracle,
    /// Human description of the injected change.
    pub mutation: String,
    subject: Subject,
}

impl MutantSpec {
    /// A litmus-layer mutant: `mutations` applied to `test`'s program,
    /// expectations kept, killed on any conformance-verdict flip.
    pub fn litmus(name: &str, test: LitmusTest, mutations: Vec<Mutation>) -> Self {
        let mutation = describe(&mutations);
        MutantSpec {
            name: name.to_string(),
            layer: Layer::Litmus,
            oracle: Oracle::Conformance,
            mutation,
            subject: Subject::Litmus { test, mutations },
        }
    }

    /// A kernel-layer mutant killed by [`check_wdrf`].
    pub fn wdrf(name: &str, prog: Program, spec: KernelSpec, mutations: Vec<Mutation>) -> Self {
        let mutation = describe(&mutations);
        MutantSpec {
            name: name.to_string(),
            layer: Layer::Kernel,
            oracle: Oracle::Wdrf,
            mutation,
            subject: Subject::Wdrf {
                prog,
                spec,
                mutations,
            },
        }
    }

    /// A kernel-layer mutant killed by [`check_pushpull`].
    pub fn pushpull(name: &str, prog: Program, spec: KernelSpec, mutations: Vec<Mutation>) -> Self {
        let mutation = describe(&mutations);
        MutantSpec {
            name: name.to_string(),
            layer: Layer::Kernel,
            oracle: Oracle::PushPull,
            mutation,
            subject: Subject::PushPull {
                prog,
                spec,
                mutations,
            },
        }
    }

    /// A machine- or spec-layer mutant from the `vrm-sekvm` suite, with
    /// the layer and oracle chosen from its [`CaughtBy`] expectation.
    pub fn machine(mutant: &vrm_sekvm::mutants::Mutant) -> Self {
        let (layer, oracle, subject) = match mutant.caught_by {
            CaughtBy::SequentialTlbi | CaughtBy::LockDiscipline => (
                Layer::Machine,
                Oracle::ValidateLog,
                Subject::MachineLog { cfg: mutant.cfg },
            ),
            CaughtBy::SecurityInvariants => (
                Layer::Machine,
                Oracle::Invariants,
                Subject::MachineInvariants { cfg: mutant.cfg },
            ),
            CaughtBy::Refinement => (
                Layer::Spec,
                Oracle::Refinement,
                Subject::MachineRefinement { cfg: mutant.cfg },
            ),
        };
        MutantSpec {
            name: mutant.name.to_string(),
            layer,
            oracle,
            mutation: format!("KCoreConfig switch `{}`", mutant.name),
            subject,
        }
    }

    /// An engine-layer mutant: one degradation rule re-implemented with
    /// its soundness guard removed, killed iff the bugged rule disagrees
    /// with the real engine on a budget-starved wDRF check.
    pub fn degradation(name: &str, variant: DegradationVariant) -> Self {
        MutantSpec {
            name: name.to_string(),
            layer: Layer::Engine,
            oracle: Oracle::Degradation,
            mutation: variant.describe().to_string(),
            subject: Subject::Degradation { variant },
        }
    }

    /// A serve-layer mutant: one `ServeConfig` caching-discipline
    /// switch flipped, killed iff the bugged daemon's end-to-end
    /// behaviour diverges from the sound daemon's in the predicted
    /// unsound way.
    pub fn serve(name: &str, variant: ServeVariant) -> Self {
        MutantSpec {
            name: name.to_string(),
            layer: Layer::Serve,
            oracle: Oracle::Serve,
            mutation: variant.describe().to_string(),
            subject: Subject::Serve { variant },
        }
    }

    /// An engine-layer mutant: one state-space reduction rule
    /// re-implemented with its soundness guard removed, killed iff the
    /// bugged walk disagrees with the sound reduced walk on a battery
    /// test — in its anchored state counts or in its outcome set.
    pub fn reduction(name: &str, variant: ReductionVariant) -> Self {
        MutantSpec {
            name: name.to_string(),
            layer: Layer::Engine,
            oracle: Oracle::Reduction,
            mutation: variant.describe().to_string(),
            subject: Subject::Reduction { variant },
        }
    }

    /// A gen-layer mutant: one `GenConfig` generator-pipeline switch
    /// flipped, killed iff the bugged pipeline loses the
    /// relaxed-behaviour signal the sound one produces on the same
    /// seeds.
    pub fn generator(name: &str, variant: GenVariant) -> Self {
        MutantSpec {
            name: name.to_string(),
            layer: Layer::Gen,
            oracle: Oracle::DiffFuzz,
            mutation: variant.describe().to_string(),
            subject: Subject::Gen { variant },
        }
    }
}

fn describe(mutations: &[Mutation]) -> String {
    mutations
        .iter()
        .map(|m| m.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// One mutant's outcome.
#[derive(Debug, Clone)]
pub struct MutantResult {
    /// Mutant name.
    pub name: String,
    /// Layer the bug lives in.
    pub layer: Layer,
    /// Oracle that judged it.
    pub oracle: Oracle,
    /// Human description of the injected change.
    pub mutation: String,
    /// Killed / survived / timeout.
    pub status: Status,
    /// What the oracle saw (first violation, verdict, or error).
    pub detail: String,
    /// Exploration statistics for this mutant's checks.
    pub stats: ExploreStats,
}

/// Aggregate outcome of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-mutant outcomes, in spec order.
    pub results: Vec<MutantResult>,
    /// Folded exploration statistics across every mutant.
    pub stats: ExploreStats,
}

impl CampaignReport {
    /// Number of killed mutants.
    pub fn killed(&self) -> usize {
        self.count(Status::Killed)
    }

    /// Number of surviving mutants.
    pub fn survived(&self) -> usize {
        self.count(Status::Survived)
    }

    /// Number of mutants whose oracle hit an exploration bound.
    pub fn timeouts(&self) -> usize {
        self.count(Status::Timeout)
    }

    /// Number of mutants whose oracle truncated without a verdict.
    pub fn unknowns(&self) -> usize {
        self.count(Status::Unknown)
    }

    fn count(&self, s: Status) -> usize {
        self.results.iter().filter(|r| r.status == s).count()
    }

    /// Killed / total, in `[0, 1]`; 1.0 for an empty campaign.
    pub fn kill_rate(&self) -> f64 {
        if self.results.is_empty() {
            return 1.0;
        }
        self.killed() as f64 / self.results.len() as f64
    }

    /// `true` iff every mutant was killed.
    pub fn all_killed(&self) -> bool {
        self.killed() == self.results.len()
    }
}

/// How a campaign run is driven.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Worker threads for every exploration (defaults to `VRM_JOBS`).
    pub jobs: usize,
    /// State cap for the machine-layer schedule exploration.
    pub machine_max_states: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            jobs: ExploreConfig::jobs_from_env(),
            machine_max_states: 1 << 18,
        }
    }
}

/// Applies a mutation chain, or reports the stale site.
fn apply_all(prog: &Program, mutations: &[Mutation]) -> Result<Program, String> {
    let mut out = prog.clone();
    for m in mutations {
        out = apply(&out, m).ok_or_else(|| format!("stale mutation site: {m}"))?;
    }
    Ok(out)
}

/// A minimal two-CPU workload that exercises the map → grant → revoke
/// path (one `clear_s2pt` with its barrier + TLBI obligation) while a
/// second CPU contends on the VmId lock: the shared `unmap` workload
/// from the sekvm registry. Small enough for every-schedule
/// exploration, rich enough that each machine-layer log mutant shows up.
fn unmap_scripts() -> Vec<Script> {
    vrm_sekvm::workloads::unmap()
}

/// The unmap workload extended with a VM secret write and a final
/// reclaim: the smallest every-schedule workload on which each
/// spec-layer mutant's concrete transition disagrees with its abstract
/// label (an unscrubbed secret, a leaked ownership transfer, a kept
/// share, a skipped host unmap).
fn spec_scripts() -> Vec<Script> {
    let gpa = 64 * PAGE_WORDS;
    vec![
        vec![
            Op::RegisterVm,
            Op::RegisterVcpu,
            Op::StageImage {
                pfns: vec![VM_POOL_PFN.0, VM_POOL_PFN.0 + 1],
            },
            Op::VerifyImage,
            Op::Fault {
                gpa,
                donor_pfn: VM_POOL_PFN.0 + 4,
            },
            Op::VmWrite {
                gpa: gpa + 5,
                val: 0x5ec2e7,
            },
            Op::Grant { gpa },
            Op::Revoke { gpa },
            Op::Reclaim,
        ],
        vec![Op::RegisterVm],
    ]
}

/// Boots one 2-page VM directly on a fresh KCore (the machine-layer
/// invariant scenario).
fn boot_one_vm(cfg: KCoreConfig) -> KCore {
    let mut k = KCore::boot(cfg);
    let pfns = vec![VM_POOL_PFN.0, VM_POOL_PFN.0 + 1];
    let mut words = Vec::new();
    for &pfn in &pfns {
        for w in 0..PAGE_WORDS {
            let v = pfn + w;
            k.mem.write(page_addr(pfn) + w, v);
            words.push(v);
        }
    }
    let hash = KCore::image_hash(&words);
    let vmid = k.register_vm(0).expect("register_vm");
    k.register_vcpu(0, vmid).expect("register_vcpu");
    k.set_boot_info(0, vmid, pfns, hash).expect("set_boot_info");
    k.remap_vm_image(0, vmid).expect("remap_vm_image");
    k.verify_vm_image(0, vmid).expect("verify_vm_image");
    k
}

/// Runs one spec through its oracle.
fn run_one(spec: &MutantSpec, cfg: &CampaignConfig) -> MutantResult {
    let started = Instant::now();
    let (status, detail, mut stats) = match &spec.subject {
        Subject::Litmus { test, mutations } => run_litmus(test, mutations, cfg),
        Subject::Wdrf {
            prog,
            spec: kspec,
            mutations,
        } => run_wdrf(prog, kspec, mutations, cfg),
        Subject::PushPull {
            prog,
            spec: kspec,
            mutations,
        } => run_pushpull(prog, kspec, mutations),
        Subject::MachineLog { cfg: kcfg } => run_machine_log(*kcfg, cfg),
        Subject::MachineInvariants { cfg: kcfg } => run_machine_invariants(*kcfg),
        Subject::MachineRefinement { cfg: kcfg } => run_machine_refinement(*kcfg, cfg),
        Subject::Degradation { variant } => run_degradation(*variant, cfg),
        Subject::Serve { variant } => run_serve(*variant, cfg),
        Subject::Gen { variant } => run_gen(*variant, cfg),
        Subject::Reduction { variant } => run_reduction(*variant),
    };
    if stats.wall_ns == 0 {
        stats.wall_ns = started.elapsed().as_nanos() as u64;
    }
    MutantResult {
        name: spec.name.clone(),
        layer: spec.layer,
        oracle: spec.oracle,
        mutation: spec.mutation.clone(),
        status,
        detail,
        stats,
    }
}

fn run_litmus(
    test: &LitmusTest,
    mutations: &[Mutation],
    cfg: &CampaignConfig,
) -> (Status, String, ExploreStats) {
    let program = match apply_all(&test.program, mutations) {
        Ok(p) => p,
        Err(e) => return (Status::Survived, e, ExploreStats::default()),
    };
    let mutated = LitmusTest {
        program,
        condition: test.condition.clone(),
        allowed_on_arm: test.allowed_on_arm,
        allowed_on_sc: test.allowed_on_sc,
    };
    match check_with_jobs(&mutated, cfg.jobs) {
        Err(e) => (Status::Timeout, e.to_string(), ExploreStats::default()),
        Ok(c) => {
            let mut stats = c.sc.stats;
            stats.absorb(&c.promising.stats);
            stats.absorb(&c.axiomatic.stats);
            let on_arm = c.promising.contains_binding(&mutated.condition);
            let on_sc = c.sc.contains_binding(&mutated.condition);
            // An outcome *observed* where the expectation forbids one is
            // positive evidence — emissions are a sound subset even of a
            // truncated enumeration, so this kill survives truncation.
            let killed_by_presence =
                (on_arm && !mutated.allowed_on_arm) || (on_sc && !mutated.allowed_on_sc);
            if c.truncated && !killed_by_presence {
                // Any other flip rests on an outcome's *absence*, which
                // a truncated enumeration cannot establish.
                (
                    Status::Unknown,
                    "conformance check truncated; no verdict".to_string(),
                    stats,
                )
            } else if c.verdicts_match {
                (
                    Status::Survived,
                    format!(
                        "verdict unchanged (arm={on_arm}, sc={on_sc}); \
                         the injected bug is invisible to the models"
                    ),
                    stats,
                )
            } else {
                (
                    Status::Killed,
                    format!(
                        "verdict flipped: condition {:?} now arm={on_arm} \
                         (expected {}), sc={on_sc} (expected {})",
                        mutated.condition, mutated.allowed_on_arm, mutated.allowed_on_sc
                    ),
                    stats,
                )
            }
        }
    }
}

fn run_wdrf(
    prog: &Program,
    kspec: &KernelSpec,
    mutations: &[Mutation],
    cfg: &CampaignConfig,
) -> (Status, String, ExploreStats) {
    let mutated = match apply_all(prog, mutations) {
        Ok(p) => p,
        Err(e) => return (Status::Survived, e, ExploreStats::default()),
    };
    let mut wcfg = WdrfCheckConfig {
        skip_sync_conditions: true,
        jobs: cfg.jobs,
        ..Default::default()
    };
    wcfg.promising.max_promises_per_thread = 1;
    wcfg.promising.value_cfg.max_rounds = 3;
    match check_wdrf(&mutated, kspec, &wcfg) {
        Err(e) => (Status::Timeout, e.to_string(), ExploreStats::default()),
        // A counterexample (RM-only outcome) is concrete iff both walks
        // behind the subset comparison were exhaustive — an outcome
        // "missing" from a truncated SC set proves nothing. Out-of-band
        // truncation (value analysis inside a condition check) does not
        // taint the subset theorem itself, so the kill stands.
        Ok(v) if !v.rm_subset_of_sc && !v.rm.truncated() && !v.sc.truncated() => (
            Status::Killed,
            format!(
                "RM-only outcome appeared: {:?}",
                v.counterexamples.first().map(|o| o.to_string())
            ),
            v.stats,
        ),
        Ok(v) if v.truncated => (
            Status::Unknown,
            "wDRF check truncated; no verdict".to_string(),
            v.stats,
        ),
        Ok(v) if v.rm_subset_of_sc => (
            Status::Survived,
            "RM ⊆ SC still holds for the mutated kernel".to_string(),
            v.stats,
        ),
        Ok(v) => (
            Status::Killed,
            format!(
                "RM-only outcome appeared: {:?}",
                v.counterexamples.first().map(|o| o.to_string())
            ),
            v.stats,
        ),
    }
}

fn run_pushpull(
    prog: &Program,
    kspec: &KernelSpec,
    mutations: &[Mutation],
) -> (Status, String, ExploreStats) {
    let mutated = match apply_all(prog, mutations) {
        Ok(p) => p,
        Err(e) => return (Status::Survived, e, ExploreStats::default()),
    };
    let pcfg = PromisingConfig {
        promises: false,
        ..Default::default()
    };
    match check_pushpull(&mutated, kspec, &pcfg) {
        Err(e) => (Status::Timeout, e.to_string(), ExploreStats::default()),
        Ok(r) => {
            let stats = ExploreStats {
                states: r.states_explored,
                ..Default::default()
            };
            if r.drf_kernel_holds() && r.no_barrier_misuse_holds() {
                (
                    Status::Survived,
                    "ownership and barrier discipline both held".to_string(),
                    stats,
                )
            } else {
                let v = r
                    .ownership_violations
                    .iter()
                    .chain(r.barrier_violations.iter())
                    .next();
                (
                    Status::Killed,
                    format!("push/pull discipline broken: {v:?}"),
                    stats,
                )
            }
        }
    }
}

fn run_machine_log(kcfg: KCoreConfig, cfg: &CampaignConfig) -> (Status, String, ExploreStats) {
    let ecfg = ExhaustiveConfig {
        max_states: cfg.machine_max_states,
        jobs: cfg.jobs,
        ..ExhaustiveConfig::default()
    };
    match Machine::explore_schedules(kcfg, unmap_scripts(), &ecfg) {
        Err(e) => (Status::Timeout, e.to_string(), ExploreStats::default()),
        Ok(report) => {
            let violation = report
                .outcomes
                .iter()
                .flat_map(|o| o.wdrf_violations.iter())
                .next();
            match violation {
                // A violation was observed on a concretely executed
                // schedule — real evidence even if the walk truncated.
                Some(v) => (
                    Status::Killed,
                    format!("dynamic wDRF violation on some schedule: {v}"),
                    report.stats,
                ),
                None if report.stats.completeness.is_truncated() => (
                    Status::Unknown,
                    format!(
                        "schedule exploration truncated after {} clean schedules; \
                         no verdict",
                        report.outcomes.len()
                    ),
                    report.stats,
                ),
                None => (
                    Status::Survived,
                    format!("all {} schedules validated clean", report.outcomes.len()),
                    report.stats,
                ),
            }
        }
    }
}

fn run_machine_invariants(kcfg: KCoreConfig) -> (Status, String, ExploreStats) {
    let mut k = boot_one_vm(kcfg);
    let vm_pfn = k.vm(0).expect("vm 0").image_pfns[0];
    // The (unchecked) KServ faults in a mapping of a VM-owned page; the
    // invariant sweep must flag the resulting double ownership.
    if k.kserv_fault(1, vm_pfn).is_err() {
        return (
            Status::Survived,
            "ownership check still rejects the hostile fault".to_string(),
            ExploreStats::default(),
        );
    }
    let inv = check_invariants(&k);
    match inv.first() {
        Some(v) => (
            Status::Killed,
            format!("security invariant broken: {v:?}"),
            ExploreStats::default(),
        ),
        None => (
            Status::Survived,
            "invariant sweep found nothing".to_string(),
            ExploreStats::default(),
        ),
    }
}

fn run_machine_refinement(
    kcfg: KCoreConfig,
    cfg: &CampaignConfig,
) -> (Status, String, ExploreStats) {
    let ecfg = ExhaustiveConfig {
        max_states: cfg.machine_max_states,
        jobs: cfg.jobs,
        ..ExhaustiveConfig::default()
    };
    match Machine::check_refinement(kcfg, spec_scripts(), &ecfg) {
        Err(e) => (Status::Timeout, e.to_string(), ExploreStats::default()),
        Ok(report) => match report.violations.iter().next() {
            // A simulation failure was observed on a concretely executed
            // transition — real evidence even if the walk truncated.
            Some(v) => (
                Status::Killed,
                format!("refinement broken on some schedule: {v}"),
                report.stats,
            ),
            None if report.stats.completeness.is_truncated() => (
                Status::Unknown,
                format!(
                    "refinement walk truncated after {} states; no verdict",
                    report.stats.states
                ),
                report.stats,
            ),
            None => (
                Status::Survived,
                format!(
                    "every explored transition refines the abstract machine \
                     ({} states)",
                    report.stats.states
                ),
                report.stats,
            ),
        },
    }
}

/// The bugged `Completeness::merge` of [`DegradationVariant::ExhaustiveMergeWins`]:
/// the last stage wins instead of truncation being sticky.
fn bugged_merge(_acc: Completeness, last: Completeness) -> Completeness {
    last
}

fn run_degradation(
    variant: DegradationVariant,
    cfg: &CampaignConfig,
) -> (Status, String, ExploreStats) {
    // A deliberately starved wDRF check over a real kernel example: the
    // sound pipeline must report Unknown here. Each variant then replays
    // one degradation rule with its guard removed on the same run and is
    // killed iff the bugged rule reaches a different verdict.
    let ex = paper_examples::example1();
    let prog = ex.fixed.expect("example1 has a fixed variant");
    let spec = KernelSpec::for_kernel_threads(0..prog.threads.len());
    let mut wcfg = WdrfCheckConfig {
        skip_sync_conditions: true,
        jobs: cfg.jobs,
        ..Default::default()
    };
    wcfg.promising.max_promises_per_thread = 1;
    wcfg.promising.value_cfg.max_rounds = 3;
    wcfg.promising.max_states = 4;
    wcfg.sc.max_states = 4;
    let v = match check_wdrf(&prog, &spec, &wcfg) {
        Err(e) => return (Status::Timeout, e.to_string(), ExploreStats::default()),
        Ok(v) => v,
    };
    let sound = v.verdict();
    if !sound.is_unknown() {
        // The starvation budget no longer bites; that is a harness bug,
        // and surviving here makes the 100%-kill gate surface it.
        return (
            Status::Survived,
            format!("harness error: starved check still reported {sound}"),
            v.stats,
        );
    }
    let (killed, detail) = match variant {
        DegradationVariant::IgnoreTruncation => {
            let bugged = if v.holds() {
                Verdict::Pass
            } else {
                Verdict::Fail
            };
            (
                bugged != sound,
                format!("guardless from_parts said {bugged}; sound verdict {sound}"),
            )
        }
        DegradationVariant::ExhaustiveMergeWins => {
            // Fold a final exhaustive stage (e.g. the cheap condition
            // sweep) into this run's completeness with the bugged merge,
            // then rederive the verdict the way the checker would.
            let mut stats = v.stats;
            stats.completeness = bugged_merge(stats.completeness, Completeness::Exhaustive);
            let bugged = Verdict::from_parts(v.holds(), &stats);
            (
                bugged != sound,
                format!("last-stage-wins merge rederived {bugged}; sound verdict {sound}"),
            )
        }
        DegradationVariant::UnknownExitsZero => {
            let bugged_exit = match sound {
                Verdict::Fail => 1,
                // Unknown collapsed onto the success path.
                _ => 0,
            };
            (
                bugged_exit != sound.exit_code(),
                format!(
                    "bugged exit-code map returned {bugged_exit}; sound map {}",
                    sound.exit_code()
                ),
            )
        }
    };
    let status = if killed {
        Status::Killed
    } else {
        Status::Survived
    };
    (status, detail, v.stats)
}

fn run_reduction(variant: ReductionVariant) -> (Status, String, ExploreStats) {
    use vrm_memmodel::sc::{
        enumerate_sc_all_symmetric, enumerate_sc_sleepless, enumerate_sc_with, ScConfig,
    };
    // Each variant replays one reduction rule with its guard removed on
    // a battery test chosen to make the bug observable: a test whose
    // interleaving count the bench anchors pin (sleep sets), or one
    // whose forbidden outcome a fake symmetry manufactures (orbits).
    // jobs is pinned to 1 so the popped counts are the deterministic
    // sequential-driver numbers the anchors record.
    let sc_cfg = ScConfig {
        jobs: 1,
        ..ScConfig::default()
    };
    match variant {
        ReductionVariant::SleepSetNeverBlocks => {
            let test = battery_test("ISA2+dmb+addrs");
            let sound = match enumerate_sc_with(&test.program, &sc_cfg) {
                Err(e) => return (Status::Timeout, e.to_string(), ExploreStats::default()),
                Ok(s) => s,
            };
            let bugged = match enumerate_sc_sleepless(&test.program, &sc_cfg) {
                Err(e) => return (Status::Timeout, e.to_string(), ExploreStats::default()),
                Ok(s) => s,
            };
            if bugged != sound {
                // The sleepless walk is exhaustive, so an outcome
                // difference means the *sound* driver over-pruned; that
                // is an engine bug, and surviving here surfaces it
                // through the 100%-kill gate.
                return (
                    Status::Survived,
                    "harness error: sleepless walk changed the outcome set".to_string(),
                    sound.stats,
                );
            }
            let killed = bugged.stats.popped != sound.stats.popped;
            let detail = format!(
                "sleepless walk popped {} states; sound sleep-set walk popped {} \
                 (the count BENCH_explore.json anchors)",
                bugged.stats.popped, sound.stats.popped
            );
            let status = if killed {
                Status::Killed
            } else {
                Status::Survived
            };
            (status, detail, sound.stats)
        }
        ReductionVariant::CanonIdentity => {
            let test = battery_test("SB+rel+acq");
            let sound = match enumerate_sc_with(&test.program, &sc_cfg) {
                Err(e) => return (Status::Timeout, e.to_string(), ExploreStats::default()),
                Ok(s) => s,
            };
            let bugged = match enumerate_sc_all_symmetric(&test.program, &sc_cfg) {
                Err(e) => return (Status::Timeout, e.to_string(), ExploreStats::default()),
                Ok(s) => s,
            };
            // SB+rel+acq forbids its condition under SC; the fake
            // all-threads orbit merges the two differently-fenced
            // threads and manufactures exactly that outcome.
            let sound_hit = sound.contains_binding(&test.condition);
            let bugged_hit = bugged.contains_binding(&test.condition);
            let killed = sound_hit != bugged_hit;
            let detail = format!(
                "condition {} under the fake all-symmetric orbit map; sound SC walk says {}",
                if bugged_hit {
                    "reachable"
                } else {
                    "unreachable"
                },
                if sound_hit {
                    "reachable"
                } else {
                    "unreachable"
                },
            );
            let status = if killed {
                Status::Killed
            } else {
                Status::Survived
            };
            (status, detail, sound.stats)
        }
    }
}

/// One submit→verdict probe against an in-process daemon: result of a
/// small-budget schedules query followed by a large-budget re-query of
/// the same workload.
struct ServeProbe {
    second: vrm_serve::JobResult,
    second_cached: bool,
}

/// Drives one daemon (sound or bugged) through the query sequence both
/// serve mutants are judged on: an under-budgeted `schedules/unmap`
/// walk, then a re-query at a *still insufficient* budget with
/// `escalate` — the re-query can only finish through the escalation
/// lane, so both the cache key and the checkpoint handoff are
/// genuinely on the answer path.
fn serve_probe(
    scfg: vrm_serve::ServeConfig,
    small: usize,
    second: usize,
) -> Result<ServeProbe, String> {
    use vrm_serve::{JobConfig, JobSpec, SubmitOutcome};
    let svc = vrm_serve::Service::start(scfg);
    let spec = JobSpec::Schedules {
        workload: "unmap".into(),
    };
    let submit_wait = |svc: &vrm_serve::Service,
                       cfg: JobConfig|
     -> Result<(vrm_serve::JobResult, bool), String> {
        match svc.submit(spec.clone(), cfg)? {
            SubmitOutcome::Cached { result, .. } => Ok((result, true)),
            SubmitOutcome::Queued(id) => {
                let snap = svc.wait(id);
                snap.result
                    .expect("done job has a result")
                    .map(|r| (r, false))
            }
        }
    };
    let first = JobConfig {
        max_states: small,
        jobs: 1,
        escalate: false,
    };
    let (_, _) = submit_wait(&svc, first)?;
    let second_cfg = JobConfig {
        max_states: second,
        jobs: 1,
        escalate: true,
    };
    let (second, second_cached) = submit_wait(&svc, second_cfg)?;
    svc.shutdown();
    Ok(ServeProbe {
        second,
        second_cached,
    })
}

fn run_serve(variant: ServeVariant, _cfg: &CampaignConfig) -> (Status, String, ExploreStats) {
    use vrm_serve::ServeConfig;
    match variant {
        ServeVariant::SupervisorIgnoresDeadline => return run_serve_supervisor(),
        ServeVariant::WalSkipsChecksum => return run_serve_wal(),
        ServeVariant::StaleAfterConfigChange | ServeVariant::EscalationDropsCheckpoint => {}
    }
    // Both budgets are below the unmap walk's 117 states, so the
    // re-query must travel the escalation lane (doubling to 120) to
    // reach its Pass.
    let small = 40;
    let second = 60;
    let base = ServeConfig {
        workers: 1,
        ..Default::default()
    };
    let bugged_cfg = match variant {
        ServeVariant::StaleAfterConfigChange => ServeConfig {
            digest_includes_config: false,
            ..base.clone()
        },
        ServeVariant::EscalationDropsCheckpoint => ServeConfig {
            reuse_checkpoints: false,
            ..base.clone()
        },
        _ => unreachable!("dispatched above"),
    };
    let sound = match serve_probe(base, small, second) {
        Ok(p) => p,
        Err(e) => return (Status::Timeout, e, ExploreStats::default()),
    };
    let bugged = match serve_probe(bugged_cfg, small, second) {
        Ok(p) => p,
        Err(e) => return (Status::Timeout, e, ExploreStats::default()),
    };
    let mut stats = ExploreStats {
        states: sound.second.states + bugged.second.states,
        jobs: 1,
        completeness: Completeness::Exhaustive,
        ..Default::default()
    };
    // The sound daemon must finish the walk fresh on the re-query; if
    // it cannot, the harness budget is wrong and the gate must trip.
    if sound.second_cached || !sound.second.verdict.is_pass() {
        stats.completeness = Completeness::default();
        return (
            Status::Unknown,
            format!(
                "harness error: sound daemon answered {:?} (cached:{}) on the re-query",
                sound.second.verdict, sound.second_cached
            ),
            stats,
        );
    }
    let (killed, detail) = match variant {
        ServeVariant::StaleAfterConfigChange => (
            bugged.second_cached && bugged.second.verdict.is_unknown(),
            format!(
                "bugged daemon re-query: cached:{} verdict {:?}; sound: fresh {:?}",
                bugged.second_cached, bugged.second.verdict, sound.second.verdict
            ),
        ),
        ServeVariant::EscalationDropsCheckpoint => (
            !bugged.second.resumed
                && bugged.second.states_new > bugged.second.states
                && sound.second.resumed
                && sound.second.states_new <= sound.second.states,
            format!(
                "bugged daemon: resumed:{} states_new:{}/{}; sound: resumed:{} states_new:{}/{}",
                bugged.second.resumed,
                bugged.second.states_new,
                bugged.second.states,
                sound.second.resumed,
                sound.second.states_new,
                sound.second.states
            ),
        ),
        _ => unreachable!("dispatched above"),
    };
    let status = if killed {
        Status::Killed
    } else {
        Status::Survived
    };
    (status, detail, stats)
}

/// `serve-supervisor-ignores-deadline`: both supervisors are handed a
/// worker that sleeps for 2 s against a 100 ms deadline. The sound one
/// SIGKILLs at deadline+grace and degrades to `Unknown{WorkerLost}`
/// well inside a second; the bugged one waits out the whole sleep —
/// the hung-daemon outage the deadline exists to prevent — and is
/// killed on its wall clock crossing the sleep.
fn run_serve_supervisor() -> (Status, String, ExploreStats) {
    use vrm_serve::supervisor::{execute_isolated, WorkerIsolation};
    use vrm_serve::{JobConfig, JobSpec};
    let stats = ExploreStats {
        jobs: 1,
        completeness: Completeness::Exhaustive,
        ..Default::default()
    };
    if std::env::var_os("VRM_FAULT_SEED").is_some() {
        // An injected WorkerKill turns the hang into a fast crash on
        // either side and voids the timing oracle.
        return (
            Status::Unknown,
            "fault injection armed; supervisor timing oracle is void".into(),
            stats,
        );
    }
    let iso = |ignore_deadline| WorkerIsolation {
        worker_cmd: vec!["sh".into(), "-c".into(), "sleep 2".into()],
        deadline: Duration::from_millis(100),
        grace: Duration::from_millis(50),
        restarts: 0,
        backoff_base: Duration::from_millis(5),
        ignore_deadline,
    };
    let spec = JobSpec::Schedules {
        workload: "unmap".into(),
    };
    let run = |ignore: bool| {
        let t = Instant::now();
        let res = execute_isolated(&iso(ignore), &spec, &JobConfig::default(), None);
        (res, t.elapsed())
    };
    let (sound, sound_t) = run(false);
    let lost = |r: &Result<(vrm_serve::JobResult, Option<Vec<u8>>), String>| {
        matches!(
            r,
            Ok((res, _)) if matches!(
                res.verdict,
                Verdict::Unknown { coverage } if coverage.reason == vrm_explore::TruncationReason::WorkerLost
            )
        )
    };
    if !lost(&sound) || sound_t >= Duration::from_secs(1) {
        return (
            Status::Unknown,
            format!("harness error: sound supervisor took {sound_t:?} and answered {sound:?}"),
            stats,
        );
    }
    let (bugged, bugged_t) = run(true);
    let killed = lost(&bugged) && bugged_t >= Duration::from_millis(1500);
    let status = if killed {
        Status::Killed
    } else {
        Status::Survived
    };
    (
        status,
        format!(
            "sound supervisor killed the hung worker in {sound_t:?}; \
             bugged supervisor returned after {bugged_t:?}"
        ),
        stats,
    )
}

/// `serve-wal-skips-checksum`: one verdict record is written, one
/// payload byte is flipped (the detail's `outcomes:3` → `outcomes:2` —
/// still structurally decodable, just wrong). Sound replay rejects the
/// record on its checksum and skips it; the bugged replay resurrects
/// the corrupted verdict as if intact.
fn run_serve_wal() -> (Status, String, ExploreStats) {
    use vrm_serve::store::{self, WalRecord, WAL_MAGIC};
    use vrm_serve::{CacheEntry, StoreOptions};
    let stats = ExploreStats {
        jobs: 1,
        completeness: Completeness::Exhaustive,
        ..Default::default()
    };
    let rec = WalRecord::Verdict {
        digest: 0xfeed_face_cafe_f00d,
        entry: CacheEntry {
            verdict: Verdict::Pass,
            states: 117,
            wall_ns: 1,
            detail: "outcomes:3".into(),
        },
    };
    let body = store::encode_record(&rec);
    let mut intact = WAL_MAGIC.to_vec();
    intact.extend_from_slice(&body);
    let sound_opts = StoreOptions::default();
    let (clean, _) = store::replay(&intact, &sound_opts);
    if clean.records.as_slice() != [rec.clone()] || clean.skipped != 0 {
        return (
            Status::Unknown,
            format!("harness error: intact record did not round-trip: {clean:?}"),
            stats,
        );
    }
    // Flip the last payload byte (the final detail character), leaving
    // the 8-byte checksum that follows it untouched.
    let mut torn = intact.clone();
    let n = torn.len();
    torn[n - 9] ^= 0x01;
    let (sound, _) = store::replay(&torn, &sound_opts);
    let bugged_opts = StoreOptions {
        verify_checksums: false,
        ..Default::default()
    };
    let (bugged, _) = store::replay(&torn, &bugged_opts);
    let killed = sound.records.is_empty()
        && sound.skipped == 1
        && bugged.records.len() == 1
        && bugged.records[0] != rec;
    let status = if killed {
        Status::Killed
    } else {
        Status::Survived
    };
    (
        status,
        format!(
            "sound replay skipped {} record(s) and kept {}; \
             bugged replay kept {} (corrupted: {})",
            sound.skipped,
            sound.records.len(),
            bugged.records.len(),
            bugged.records.first().map(|r| r != &rec).unwrap_or(false)
        ),
        stats,
    )
}

/// Enumerates one generated program under both reference models and
/// reports whether it exhibits a relaxed-only outcome (`None` when a
/// budget truncated either walk, in which case the comparison proves
/// nothing either way).
fn relaxed_signal(
    parsed: &vrm_memmodel::parser::ParsedLitmus,
    jobs: usize,
    stats: &mut ExploreStats,
) -> Result<Option<bool>, String> {
    use vrm_memmodel::promising::enumerate_promising_with;
    use vrm_memmodel::sc::{enumerate_sc_with, ScConfig};
    let sc_cfg = ScConfig {
        jobs,
        max_states: 1 << 16,
        ..ScConfig::default()
    };
    let mut pm_cfg = parsed.promising.clone();
    pm_cfg.jobs = jobs;
    pm_cfg.max_states = 1 << 16;
    let sc = enumerate_sc_with(&parsed.program, &sc_cfg).map_err(|e| e.to_string())?;
    let rm = enumerate_promising_with(&parsed.program, &pm_cfg).map_err(|e| e.to_string())?;
    stats.absorb(&sc.stats);
    stats.absorb(&rm.outcomes.stats);
    if sc.truncated() || rm.truncated {
        return Ok(None);
    }
    Ok(Some(rm.outcomes.len() > sc.len()))
}

fn run_gen(variant: GenVariant, cfg: &CampaignConfig) -> (Status, String, ExploreStats) {
    use vrm_memmodel::gen::{
        render, sample_cycle, shrink, CommEdge, CycleShape, GenConfig, Link, ThreadShape,
    };
    let mut stats = ExploreStats::default();
    let jobs = cfg.jobs;
    // 2-thread shapes keep both probes exhaustive (hundreds of states)
    // even unoptimized, so the kill never hides behind a truncation.
    let sound_cfg = GenConfig {
        max_threads: 2,
        ..Default::default()
    };
    match variant {
        GenVariant::PoCycleFree => {
            // The differential fuzzer's reason to exist: over a fixed
            // seed window the sound generator must produce at least one
            // program with a relaxed-only outcome. The bugged generator
            // (no closed cycle) must produce none — a corpus that can
            // never disagree with SC.
            let bugged_cfg = GenConfig {
                po_cycle_free: true,
                ..sound_cfg
            };
            let mut sound_hits = 0usize;
            let mut bugged_hits = 0usize;
            for seed in 0..24u64 {
                for (gc, hits) in [
                    (&sound_cfg, &mut sound_hits),
                    (&bugged_cfg, &mut bugged_hits),
                ] {
                    let parsed = render(&sample_cycle(seed, gc), gc);
                    match relaxed_signal(&parsed, jobs, &mut stats) {
                        Err(e) => return (Status::Timeout, e, stats),
                        Ok(None) => {
                            return (
                                Status::Unknown,
                                format!("seed {seed}: enumeration truncated; no verdict"),
                                stats,
                            )
                        }
                        Ok(Some(true)) => *hits += 1,
                        Ok(Some(false)) => {}
                    }
                }
            }
            if sound_hits == 0 {
                // The seed window no longer reaches a relaxed shape;
                // that is a harness bug and the gate must surface it.
                return (
                    Status::Survived,
                    "harness error: sound generator found no relaxed witness".to_string(),
                    stats,
                );
            }
            let killed = bugged_hits == 0;
            let detail = format!(
                "sound generator: {sound_hits}/24 seeds with relaxed-only outcomes; \
                 cycle-free generator: {bugged_hits}/24"
            );
            let status = if killed {
                Status::Killed
            } else {
                Status::Survived
            };
            (status, detail, stats)
        }
        GenVariant::ShrinkerSkipsRecheck => {
            // A fully fenced SB: both dmbs are load-bearing, so the
            // property "the relaxed outcome is absent" holds at the
            // start and fails the moment any fence is weakened. The
            // sound shrinker must reject every candidate; the bugged
            // one accepts blindly and hands back a shape that lost the
            // property it was minimizing under.
            let start = CycleShape {
                edges: vec![CommEdge::Fr, CommEdge::Fr],
                threads: vec![
                    ThreadShape {
                        link: Link::DmbSy,
                        first_acq: false,
                        second_rel: false,
                    };
                    2
                ],
                seed: 0,
            };
            let bugged_cfg = GenConfig {
                recheck_shrinks: false,
                ..sound_cfg
            };
            let mut check = |shape: &CycleShape, gc: &GenConfig| {
                relaxed_signal(&render(shape, gc), jobs, &mut stats).map(|r| r.map(|rx| !rx))
            };
            // Harness guards: the property must hold on the start shape
            // and genuinely depend on the fences.
            let forbidden_at_start = match check(&start, &sound_cfg) {
                Err(e) => return (Status::Timeout, e, stats),
                Ok(None) => {
                    return (
                        Status::Unknown,
                        "start shape enumeration truncated".to_string(),
                        stats,
                    )
                }
                Ok(Some(f)) => f,
            };
            if !forbidden_at_start {
                return (
                    Status::Survived,
                    "harness error: fenced SB already shows relaxed outcomes".to_string(),
                    stats,
                );
            }
            let property = |p: &vrm_memmodel::parser::ParsedLitmus| {
                let mut local = ExploreStats::default();
                relaxed_signal(p, jobs, &mut local) == Ok(Some(false))
            };
            let sound_min = shrink(&start, &sound_cfg, property);
            let bugged_min = shrink(&start, &bugged_cfg, property);
            let sound_holds = match check(&sound_min, &sound_cfg) {
                Err(e) => return (Status::Timeout, e, stats),
                Ok(None) => {
                    return (
                        Status::Unknown,
                        "shrunk shape enumeration truncated".to_string(),
                        stats,
                    )
                }
                Ok(Some(f)) => f,
            };
            let bugged_holds = match check(&bugged_min, &bugged_cfg) {
                Err(e) => return (Status::Timeout, e, stats),
                Ok(None) => {
                    return (
                        Status::Unknown,
                        "shrunk shape enumeration truncated".to_string(),
                        stats,
                    )
                }
                Ok(Some(f)) => f,
            };
            let killed = sound_holds && !bugged_holds;
            let detail = format!(
                "sound shrink kept the forbidden-outcome property: {sound_holds}; \
                 recheck-free shrink kept it: {bugged_holds}"
            );
            let status = if killed {
                Status::Killed
            } else {
                Status::Survived
            };
            (status, detail, stats)
        }
    }
}

/// Runs every spec and aggregates the report.
pub fn run(specs: &[MutantSpec], cfg: &CampaignConfig) -> CampaignReport {
    let mut results = Vec::with_capacity(specs.len());
    let mut stats = ExploreStats::default();
    let mut wall = 0u64;
    for spec in specs {
        let r = run_one(spec, cfg);
        wall += r.stats.wall_ns;
        stats.absorb(&r.stats);
        results.push(r);
    }
    // `absorb` keeps the max wall time (concurrent semantics); the
    // campaign runs mutants sequentially, so sum instead.
    stats.wall_ns = wall;
    CampaignReport { results, stats }
}

/// Picks the battery test named `name`.
fn battery_test(name: &str) -> LitmusTest {
    battery()
        .into_iter()
        .find(|t| t.name() == name)
        .unwrap_or_else(|| panic!("battery test `{name}` missing"))
}

/// The first site of `kind` in thread `tid` (panics if the subject
/// changed shape — the campaign must be updated alongside the corpus).
fn pick(prog: &Program, kind: MutationKind, tid: usize) -> Mutation {
    find_sites(prog)
        .into_iter()
        .find(|m| m.kind == kind && m.tid == tid)
        .unwrap_or_else(|| panic!("{} has no {kind} site in thread {tid}", prog.name))
}

/// Like [`pick`] but at an exact pc.
fn pick_at(prog: &Program, kind: MutationKind, tid: usize, pc: usize) -> Mutation {
    find_sites(prog)
        .into_iter()
        .find(|m| m.kind == kind && m.tid == tid && m.pc == pc)
        .unwrap_or_else(|| panic!("{} has no {kind} site at T{tid}@{pc}", prog.name))
}

/// The shipped campaign: every entry must be killed (enforced by
/// `tests/mutation_campaign.rs` and CI).
pub fn curated() -> Vec<MutantSpec> {
    let mut specs = Vec::new();

    // --- Litmus layer ----------------------------------------------------
    let lit = |name: &str, test_name: &str, kind, tid| {
        let test = battery_test(test_name);
        let m = pick(&test.program, kind, tid);
        MutantSpec::litmus(name, test, vec![m])
    };
    specs.push(lit(
        "sb-dmbs-delete-fence",
        "SB+dmbs",
        MutationKind::DeleteFence,
        0,
    ));
    specs.push(lit(
        "sb-dmbs-demote-fence",
        "SB+dmbs",
        MutationKind::DemoteFence,
        1,
    ));
    specs.push(lit(
        "mp-rel-acq-drop-acquire",
        "MP+rel+acq",
        MutationKind::DropAcquire,
        1,
    ));
    specs.push(lit(
        "mp-rel-acq-drop-release",
        "MP+rel+acq",
        MutationKind::DropRelease,
        0,
    ));
    specs.push(lit(
        "mp-dmb-addr-drop-addr-dep",
        "MP+dmb+addr",
        MutationKind::DropAddrDep,
        1,
    ));
    specs.push(lit(
        "wrc-addrs-drop-addr-dep",
        "WRC+addrs",
        MutationKind::DropAddrDep,
        2,
    ));
    specs.push(lit(
        "mp-ctrl-isb-drop-ctrl-dep",
        "MP+dmb+ctrl-isb",
        MutationKind::DropCtrlDep,
        1,
    ));
    specs.push(lit(
        "mp-ctrl-isb-delete-isb",
        "MP+dmb+ctrl-isb",
        MutationKind::DeleteFence,
        1,
    ));
    specs.push(lit(
        "mp-rel-rmw-drop-acquire",
        "MP+rel+rmw.acq",
        MutationKind::DropAcquire,
        1,
    ));
    specs.push(lit(
        "mp-rel-rmw-weaken-rmw",
        "MP+rel+rmw.acq",
        MutationKind::WeakenRmw,
        1,
    ));
    specs.push(lit(
        "lb-acqs-drop-acquire",
        "LB+acqs",
        MutationKind::DropAcquire,
        0,
    ));
    specs.push(lit(
        "ex-atomic-weaken-exclusive",
        "EX-atomic-inc",
        MutationKind::WeakenExclusive,
        0,
    ));
    specs.push(lit(
        "mp-stlxr-drop-release",
        "MP+stlxr+ldaxr",
        MutationKind::DropRelease,
        0,
    ));
    specs.push(lit(
        "r-dmbs-delete-fence",
        "R+dmbs",
        MutationKind::DeleteFence,
        1,
    ));
    specs.push(lit(
        "2+2w-dmbs-delete-fence",
        "2+2W+dmbs",
        MutationKind::DeleteFence,
        0,
    ));

    // --- Kernel layer ----------------------------------------------------
    {
        // Example 1: deleting CPU 1's dmb re-enables the out-of-order
        // write (CPU 2 keeps its data dependency, so only this side's
        // fence is load-bearing).
        let ex = paper_examples::example1();
        let fixed = ex.fixed.expect("example1 has a fixed variant");
        let spec = KernelSpec::for_kernel_threads(0..fixed.threads.len());
        let m = pick(&fixed, MutationKind::DeleteFence, 0);
        specs.push(MutantSpec::wdrf("ex1-delete-fence", fixed, spec, vec![m]));
    }
    {
        let ex = paper_examples::example3();
        let fixed = ex.fixed.expect("example3 has a fixed variant");
        let spec = KernelSpec::for_kernel_threads(0..fixed.threads.len());
        let m = pick(&fixed, MutationKind::DropRelease, 0);
        specs.push(MutantSpec::wdrf(
            "ex3-drop-release",
            fixed.clone(),
            spec.clone(),
            vec![m],
        ));
        let m = pick(&fixed, MutationKind::DropAcquire, 1);
        specs.push(MutantSpec::wdrf("ex3-drop-acquire", fixed, spec, vec![m]));
    }
    {
        // Figure 7 ticket lock: condition 1/2 oracles on the push/pull
        // model. The spin load's acquire justifies the pull, the unlock
        // store's release justifies the push; the ticket-draw RMW's
        // atomicity keeps tickets unique.
        let lock = paper_examples::gen_vmid_program(true);
        let mut spec = KernelSpec::for_kernel_threads([0, 1]);
        spec.shared_data = [0x12].into();
        // The acquire ghost-flag is thread-sticky, so the whole acquire
        // path (ticket-draw RMW and spin load) must lose its barriers
        // before the pull goes uncovered.
        let m0 = pick_at(&lock, MutationKind::DropAcquire, 0, 0);
        let m1 = pick_at(&lock, MutationKind::DropAcquire, 0, 1);
        specs.push(MutantSpec::pushpull(
            "ticket-lock-drop-acquire",
            lock.clone(),
            spec.clone(),
            vec![m0, m1],
        ));
        let m = pick(&lock, MutationKind::DropRelease, 0);
        specs.push(MutantSpec::pushpull(
            "ticket-lock-drop-release",
            lock.clone(),
            spec.clone(),
            vec![m],
        ));
        let m = pick(&lock, MutationKind::WeakenRmw, 0);
        specs.push(MutantSpec::pushpull(
            "ticket-lock-weaken-rmw",
            lock,
            spec,
            vec![m],
        ));
    }

    // --- Machine + Spec layers -------------------------------------------
    // The `vrm-sekvm` suite carries its own oracle expectations: log and
    // invariant mutants land in the Machine layer, refinement mutants
    // (broken forward simulation) in the Spec layer.
    for mutant in vrm_sekvm::mutants::all() {
        specs.push(MutantSpec::machine(&mutant));
    }

    // --- Engine layer ----------------------------------------------------
    // The degradation machinery itself: a survivor here would mean a
    // truncated exploration can launder into a definite verdict.
    specs.push(MutantSpec::degradation(
        "degrade-ignore-truncation",
        DegradationVariant::IgnoreTruncation,
    ));
    specs.push(MutantSpec::degradation(
        "degrade-exhaustive-merge",
        DegradationVariant::ExhaustiveMergeWins,
    ));
    specs.push(MutantSpec::degradation(
        "degrade-unknown-as-pass",
        DegradationVariant::UnknownExitsZero,
    ));
    // The state-space reduction machinery (`docs/REDUCTION.md`): a
    // survivor here would mean a broken sleep set could drift the walk
    // off its bench anchors unnoticed, or a wrong symmetry could prune
    // real behaviours and flip a verdict.
    specs.push(MutantSpec::reduction(
        "dpor-sleep-set-never-blocks",
        ReductionVariant::SleepSetNeverBlocks,
    ));
    specs.push(MutantSpec::reduction(
        "canon-identity",
        ReductionVariant::CanonIdentity,
    ));

    // --- Serve layer -----------------------------------------------------
    // The daemon's caching discipline: a survivor here would mean a
    // cached verdict can outlive the config that produced it, or an
    // escalation can silently discard paid-for exploration.
    specs.push(MutantSpec::serve(
        "serve-stale-verdict-after-config-change",
        ServeVariant::StaleAfterConfigChange,
    ));
    specs.push(MutantSpec::serve(
        "serve-escalation-drops-checkpoint",
        ServeVariant::EscalationDropsCheckpoint,
    ));
    // The daemon's crash-safety discipline: a survivor here would mean
    // a hung worker can wedge the daemon past its deadline, or a
    // corrupted WAL record can resurrect a wrong verdict on restart.
    // The supervisor oracle spawns real worker processes, so it is the
    // one campaign entry that cannot run under VRM_FAULT_SEED (an
    // injected WorkerKill collapses both sides of its timing
    // comparison); the fault-injection CI lane runs the campaign with
    // faults armed, so the entry is withheld there rather than counted
    // as a spurious non-kill.
    if std::env::var_os("VRM_FAULT_SEED").is_none() {
        specs.push(MutantSpec::serve(
            "serve-supervisor-ignores-deadline",
            ServeVariant::SupervisorIgnoresDeadline,
        ));
    }
    specs.push(MutantSpec::serve(
        "serve-wal-skips-checksum",
        ServeVariant::WalSkipsChecksum,
    ));

    // --- Gen layer -------------------------------------------------------
    // The generator feeding the differential fuzzer: a survivor here
    // would mean the standing fuzz job could keep passing while unable
    // to produce — or preserve — a counterexample.
    specs.push(MutantSpec::generator(
        "gen-po-cycle-free",
        GenVariant::PoCycleFree,
    ));
    specs.push(MutantSpec::generator(
        "gen-shrinker-skips-recheck",
        GenVariant::ShrinkerSkipsRecheck,
    ));

    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curated_names_are_unique_and_cover_all_layers() {
        let specs = curated();
        let names: std::collections::BTreeSet<_> = specs.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), specs.len(), "duplicate mutant names");
        for layer in [
            Layer::Litmus,
            Layer::Kernel,
            Layer::Machine,
            Layer::Spec,
            Layer::Engine,
            Layer::Serve,
            Layer::Gen,
        ] {
            assert!(
                specs.iter().any(|s| s.layer == layer),
                "no mutants in {layer:?}"
            );
        }
        assert!(specs.len() >= 20, "campaign too small: {}", specs.len());
    }

    #[test]
    fn spec_refinement_mutant_is_killed() {
        // The data-oracle end of the refinement check: a skipped scrub
        // makes the Reclaim label's `scrubbed` claim false, so the
        // abstract Reclaim step is illegal.
        let cfg = CampaignConfig {
            jobs: 1,
            ..Default::default()
        };
        let kcfg = KCoreConfig {
            skip_scrub_on_reclaim: true,
            ..Default::default()
        };
        let (status, detail, _) = run_machine_refinement(kcfg, &cfg);
        assert_eq!(status, Status::Killed, "{detail}");
        assert!(detail.contains("refinement broken"), "{detail}");
        // And the unmutated kernel refines the spec on every schedule.
        let (status, detail, _) = run_machine_refinement(KCoreConfig::default(), &cfg);
        assert_eq!(status, Status::Survived, "{detail}");
    }

    #[test]
    fn degradation_mutants_are_killed() {
        let cfg = CampaignConfig {
            jobs: 1,
            ..Default::default()
        };
        for variant in [
            DegradationVariant::IgnoreTruncation,
            DegradationVariant::ExhaustiveMergeWins,
            DegradationVariant::UnknownExitsZero,
        ] {
            let (status, detail, stats) = run_degradation(variant, &cfg);
            assert_eq!(status, Status::Killed, "{variant:?}: {detail}");
            assert!(
                stats.completeness.is_truncated(),
                "{variant:?}: the oracle run must really be truncated"
            );
        }
    }

    #[test]
    fn reduction_mutants_are_killed() {
        for variant in [
            ReductionVariant::SleepSetNeverBlocks,
            ReductionVariant::CanonIdentity,
        ] {
            let (status, detail, _) = run_reduction(variant);
            assert_eq!(status, Status::Killed, "{variant:?}: {detail}");
        }
    }

    #[test]
    fn serve_robustness_mutants_are_killed() {
        if std::env::var_os("VRM_FAULT_SEED").is_some() {
            // Injected worker kills void the supervisor timing oracle.
            return;
        }
        let cfg = CampaignConfig {
            jobs: 1,
            ..Default::default()
        };
        for variant in [
            ServeVariant::SupervisorIgnoresDeadline,
            ServeVariant::WalSkipsChecksum,
        ] {
            let (status, detail, _) = run_serve(variant, &cfg);
            assert_eq!(status, Status::Killed, "{variant:?}: {detail}");
        }
    }

    #[test]
    fn gen_mutants_are_killed() {
        let cfg = CampaignConfig {
            jobs: 1,
            ..Default::default()
        };
        for variant in [GenVariant::PoCycleFree, GenVariant::ShrinkerSkipsRecheck] {
            let (status, detail, _) = run_gen(variant, &cfg);
            assert_eq!(status, Status::Killed, "{variant:?}: {detail}");
        }
    }

    #[test]
    fn truncated_oracle_yields_unknown_not_survived() {
        // Starve a kernel-layer oracle: even though the mutated program
        // genuinely has an RM-only outcome, the truncated check must
        // refuse both kill credit and a survival claim.
        let ex = paper_examples::example1();
        let fixed = ex.fixed.expect("example1 has a fixed variant");
        let spec = KernelSpec::for_kernel_threads(0..fixed.threads.len());
        let m = pick(&fixed, MutationKind::DeleteFence, 0);
        let cfg = CampaignConfig {
            jobs: 1,
            ..Default::default()
        };
        // Re-run the wdrf oracle with a starved budget by building the
        // spec and driving run_one on a budget-starved config clone.
        let mutated = apply_all(&fixed, &[m]).expect("mutation applies");
        let mut wcfg = WdrfCheckConfig {
            skip_sync_conditions: true,
            jobs: cfg.jobs,
            ..Default::default()
        };
        wcfg.promising.max_promises_per_thread = 1;
        wcfg.promising.value_cfg.max_rounds = 3;
        wcfg.promising.max_states = 4;
        wcfg.sc.max_states = 4;
        let v = check_wdrf(&mutated, &spec, &wcfg).expect("check_wdrf");
        assert!(
            v.truncated,
            "budget must bite for this test to mean anything"
        );
        // The campaign path maps that onto Status::Unknown, which counts
        // against the kill rate.
        let report = CampaignReport {
            results: vec![MutantResult {
                name: "starved".into(),
                layer: Layer::Kernel,
                oracle: Oracle::Wdrf,
                mutation: "delete fence under starved budget".into(),
                status: Status::Unknown,
                detail: String::new(),
                stats: v.stats,
            }],
            stats: v.stats,
        };
        assert_eq!(report.unknowns(), 1);
        assert!(!report.all_killed(), "Unknown must never count as killed");
    }
}
