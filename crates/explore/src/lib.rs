//! The shared state-space exploration engine.
//!
//! Every verification result in this workspace — litmus verdicts, wDRF
//! condition checks, the RM⊆SC enumeration behind `check_wdrf`, and the
//! SeKVM machine's exhaustive schedules — is a *proof by exhaustive
//! enumeration*: walk every reachable state of a model, dedup on a
//! visited set, collect what terminal states say. This crate provides
//! the one audited implementation of that walk, replacing the five
//! hand-rolled worklist loops the models used to carry.
//!
//! A model implements [`StateSpace`]: it names a hashable `State`, lists
//! the [`StateSpace::initial`] states, and expands any state into its
//! successors through a [`Sink`] (also emitting terminal results —
//! outcomes, violations — through the same sink). A model with
//! concurrent processes may also name them through the trait's
//! reduction hooks. The engine owns the frontier, the visited set,
//! limit/deadline enforcement, and statistics.
//!
//! [`explore`] is the one entry point. Two interchangeable drivers sit
//! behind it, and both expand a popped state through the same step:
//!
//! * the **sequential** driver (`jobs <= 1`, the default) — a LIFO
//!   worklist identical in visit order to the loops it replaced, so
//!   every deterministic test is bit-for-bit unchanged. With
//!   [`ExploreConfig::reduction`] on it also prunes with persistent
//!   sets, sleep sets and symmetry (see `docs/REDUCTION.md`);
//! * the **parallel** driver — `std::thread::scope` workers over
//!   per-worker deques with work stealing, deduplicating through a
//!   visited map sharded behind mutexes. Std only: the build
//!   environment is offline, so rayon/crossbeam are not available.
//!
//! Both drivers explore exactly the same state set; only the order (and
//! hence the order of emissions) differs. Callers that fold emissions
//! into sets observe identical results from either driver. A state's
//! identity is its [`digest128`]: each driver's visited map holds only
//! digests, each with the sleep mask its state was expanded under.
//!
//! # Graceful degradation
//!
//! Running out of budget is a *result*, not an error. When a walk hits
//! [`ExploreConfig::max_states`], a depth bound or a deadline, the
//! drivers return everything they visited so far, mark the run
//! [`Completeness::Truncated`] in its [`ExploreStats`], and attach a
//! [`ResumeState`] (the unexpanded frontier and the visited map) so a
//! later run continues the walk where this one stopped instead of
//! restarting. A truncated walk's emissions are a sound
//! **subset** of the exhaustive set — present emissions are real, but
//! absence proves nothing, which is why every verdict derived from a
//! truncated walk must be [`Verdict::Unknown`], never pass/fail.
//!
//! A walk cannot fail. A panicking parallel worker is contained (its
//! in-flight state and deque are handed to survivors, so the walk stays
//! exhaustive); a run that loses *every* worker is rerun once on the
//! sequential driver, which has no worker threads to lose.
//!
//! When the `VRM_FAULT_SEED` environment variable is set, the drivers
//! poll the `vrm-faults` injector at their yield points and absorb the
//! injected worker panics, stalls and simulated allocation failures —
//! CI runs the whole test suite under pinned seeds to prove the
//! containment machinery works.
//!
//! [`partition`] covers the second shape of enumeration in the
//! workspace: an embarrassingly parallel sweep over an index space
//! (axiomatic candidate combos, per-execution condition checks) with the
//! same configuration, deadline and statistics plumbing; chunks skipped
//! by a deadline are reported as truncation, not an error.

#![deny(missing_docs)]

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use vrm_faults::{FaultKind, Site};

/// Process-global observability counters fed by both drivers; see
/// `docs/TELEMETRY.md` for how they surface in `"metrics"` trace lines.
static OBS_POPPED: vrm_obs::Counter = vrm_obs::Counter::new("explore.states_popped");
static OBS_PUSHED: vrm_obs::Counter = vrm_obs::Counter::new("explore.states_pushed");
static OBS_DEDUP: vrm_obs::Counter = vrm_obs::Counter::new("explore.dedup_hits");
static OBS_STEALS: vrm_obs::Counter = vrm_obs::Counter::new("explore.deque_steals");
static OBS_CHUNKS: vrm_obs::Counter = vrm_obs::Counter::new("explore.partition_chunks");

/// Reduction counters (see `docs/REDUCTION.md`): transitions skipped
/// because they were in a sleep set, transitions cut by a persistent
/// (ample) singleton, and successors replaced by their orbit
/// representative.
static OBS_SLEEP_PRUNED: vrm_obs::Counter = vrm_obs::Counter::new("explore/sleep_pruned");
static OBS_PERSISTENT_CUT: vrm_obs::Counter = vrm_obs::Counter::new("explore/persistent_cut");
static OBS_ORBIT_COLLAPSED: vrm_obs::Counter = vrm_obs::Counter::new("explore/orbit_collapsed");

/// Per-run profiling state, allocated only when `VRM_TRACE` is active:
/// phase histograms fed at the drivers' existing yield points plus the
/// gate that rate-limits periodic `"metrics"` lines. Off-path cost of
/// the whole apparatus is the one `vrm_obs::enabled()` branch that
/// decides not to build it.
struct RunObs {
    expand: vrm_obs::Histogram,
    steal: vrm_obs::Histogram,
    idle: vrm_obs::Histogram,
    gate: vrm_obs::SnapshotGate,
}

impl RunObs {
    fn if_tracing() -> Option<RunObs> {
        vrm_obs::enabled().then(|| RunObs {
            expand: vrm_obs::Histogram::new(),
            steal: vrm_obs::Histogram::new(),
            idle: vrm_obs::Histogram::new(),
            gate: vrm_obs::SnapshotGate::new(),
        })
    }

    /// Emits the run's `"profile"` line (expand always; steal/idle only
    /// where the parallel driver recorded them).
    fn finish(&self, scope: &str) {
        let mut phases: Vec<(&str, &vrm_obs::Histogram)> = vec![("expand", &self.expand)];
        if self.steal.count() > 0 {
            phases.push(("steal", &self.steal));
        }
        if self.idle.count() > 0 {
            phases.push(("idle", &self.idle));
        }
        vrm_obs::emit_profile(scope, &phases);
    }
}

/// How an exploration is bounded and driven.
///
/// One config type serves all four models; each model converts its own
/// public config into this before calling [`explore`]. Exhausting any
/// budget truncates the walk (partial results + [`ResumeState`]) — it
/// never errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Stop expanding (truncating with [`TruncationReason::StateLimit`])
    /// once this run has visited this many fresh states. A visited
    /// entry is a fixed-size digest and sleep mask, so this bounds the
    /// visited map's memory too.
    pub max_states: usize,
    /// Do not expand successors deeper than this many steps from an
    /// initial state; pruned successors are parked in the resume
    /// frontier and the run is marked
    /// [`TruncationReason::DepthLimit`]-truncated.
    pub max_depth: Option<usize>,
    /// Stop expanding (truncating with [`TruncationReason::Deadline`])
    /// when the walk runs longer than this.
    pub deadline: Option<Duration>,
    /// Worker threads. `0` or `1` selects the sequential reference
    /// driver; `n > 1` the work-stealing parallel driver.
    pub jobs: usize,
    /// Prune with the space's reduction hooks (see
    /// `docs/REDUCTION.md`): persistent sets and symmetry in both
    /// drivers, sleep sets in the sequential one. The reduced walk
    /// reaches the same terminal states as the unreduced one. A
    /// checkpoint must be resumed under the setting that produced it.
    pub reduction: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_states: usize::MAX,
            max_depth: None,
            deadline: None,
            jobs: 1,
            reduction: false,
        }
    }
}

impl ExploreConfig {
    /// A config bounded only by `max_states`, sequential.
    pub fn with_max_states(max_states: usize) -> Self {
        ExploreConfig {
            max_states,
            ..Default::default()
        }
    }

    /// Sets the worker count, returning the config (builder style).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the deadline, returning the config (builder style).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Turns reduction on or off (builder style).
    pub fn reduction(mut self, on: bool) -> Self {
        self.reduction = on;
        self
    }

    /// The worker count requested through the `VRM_JOBS` environment
    /// variable, defaulting to 1 (sequential) when unset or unparsable.
    ///
    /// Tests and benches use this so `VRM_JOBS=8 cargo test` exercises
    /// the parallel driver everywhere without touching any call site.
    pub fn jobs_from_env() -> usize {
        std::env::var("VRM_JOBS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
    }
}

/// Which budget stopped a truncated walk.
///
/// The discriminants are the reasons' stable byte tags
/// ([`TruncationReason::tag`]) in durable images and on the worker
/// wire; never renumber them. Tag 3 belonged to a retired memory
/// budget and is not reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TruncationReason {
    /// [`ExploreConfig::max_states`] was reached.
    StateLimit = 0,
    /// [`ExploreConfig::max_depth`] pruned at least one successor.
    DepthLimit = 1,
    /// [`ExploreConfig::deadline`] passed.
    Deadline = 2,
    /// The walk was delegated to a worker *process* that died or hung
    /// before answering (supervised out-of-process execution, e.g. a
    /// `vrm-serve` worker). Nothing was explored on this attempt; the
    /// verdict degrades to `Unknown`, never to a wrong answer.
    WorkerLost = 4,
}

impl TruncationReason {
    /// The reason's stable byte tag.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The reason tagged `tag`, or `None` for a tag no reason has.
    pub fn from_tag(tag: u8) -> Option<TruncationReason> {
        [
            Self::StateLimit,
            Self::DepthLimit,
            Self::Deadline,
            Self::WorkerLost,
        ]
        .into_iter()
        .find(|r| r.tag() == tag)
    }
}

impl std::fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TruncationReason::StateLimit => write!(f, "state limit"),
            TruncationReason::DepthLimit => write!(f, "depth limit"),
            TruncationReason::Deadline => write!(f, "deadline"),
            TruncationReason::WorkerLost => write!(f, "worker lost"),
        }
    }
}

/// Whether a walk covered the whole reachable space.
///
/// Carried in [`ExploreStats`] so completeness travels with every
/// outcome set through every layer of the stack — the theorem checker
/// turns any truncation into [`Verdict::Unknown`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Completeness {
    /// Every reachable state (under the driving config) was expanded.
    /// A [`Sink::halt`] is an intentional early stop by the model and
    /// still counts as exhaustive — the searches that halt (promise
    /// certification, witness search) only need one result.
    #[default]
    Exhaustive,
    /// A budget stopped the walk early. The emissions are a sound
    /// *subset* of the exhaustive set: what was found is real, but
    /// absence proves nothing.
    Truncated {
        /// The budget that stopped the walk.
        reason: TruncationReason,
        /// States left unexpanded on the frontier when the walk
        /// stopped (approximate for depth pruning).
        frontier_len: usize,
    },
}

impl Completeness {
    /// `true` iff the walk covered the whole space.
    pub fn is_exhaustive(&self) -> bool {
        matches!(self, Completeness::Exhaustive)
    }

    /// `true` iff a budget stopped the walk early.
    pub fn is_truncated(&self) -> bool {
        !self.is_exhaustive()
    }

    /// Folds another run's completeness into this one. Truncation is
    /// sticky: a pipeline is only exhaustive if every stage was
    /// (frontier lengths add; the first stopping reason is kept).
    pub fn merge(&mut self, other: Completeness) {
        match (*self, other) {
            (Completeness::Exhaustive, t) => *self = t,
            (_, Completeness::Exhaustive) => {}
            (
                Completeness::Truncated {
                    reason,
                    frontier_len: a,
                },
                Completeness::Truncated {
                    frontier_len: b, ..
                },
            ) => {
                *self = Completeness::Truncated {
                    reason,
                    frontier_len: a + b,
                }
            }
        }
    }
}

/// What an exploration did: the observability half of every
/// enumeration, carried alongside each model's outcome set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct states inserted into the visited set (fresh states
    /// only when resuming from a checkpoint).
    pub states: usize,
    /// High-water mark of the frontier (pending, unexpanded states).
    pub frontier_peak: usize,
    /// Successors that were already in the visited set.
    pub dedup_hits: usize,
    /// States taken off a worklist and expanded. For a full
    /// (non-halting, non-truncated) walk this equals `states` — each
    /// visited state is expanded exactly once, by either driver — which
    /// is what makes it a deterministic cross-driver invariant.
    pub popped: usize,
    /// Fresh successors queued for expansion (initial states are
    /// seeded, not pushed). Deterministic for a full walk:
    /// `states - initial_count`.
    pub pushed: usize,
    /// Work items taken from *another* worker's deque by the parallel
    /// driver. Always 0 for the sequential driver, and scheduling-
    /// dependent (not deterministic) when parallel.
    pub steals: usize,
    /// Wall-clock time of the walk, in nanoseconds (u64 keeps the
    /// struct `Copy`+`Eq`; see [`ExploreStats::wall`]).
    pub wall_ns: u64,
    /// Worker threads the driving config requested.
    pub jobs: usize,
    /// Whether the walk covered the whole space or was truncated by a
    /// budget.
    pub completeness: Completeness,
}

impl ExploreStats {
    /// Wall-clock time of the walk.
    pub fn wall(&self) -> Duration {
        Duration::from_nanos(self.wall_ns)
    }

    /// Folds another run's stats into this one (sums counters, keeps
    /// the larger peak and wall time; truncation is sticky).
    pub fn absorb(&mut self, other: &ExploreStats) {
        self.states += other.states;
        self.frontier_peak = self.frontier_peak.max(other.frontier_peak);
        self.dedup_hits += other.dedup_hits;
        self.popped += other.popped;
        self.pushed += other.pushed;
        self.steals += other.steals;
        self.wall_ns = self.wall_ns.max(other.wall_ns);
        self.jobs = self.jobs.max(other.jobs);
        self.completeness.merge(other.completeness);
    }
}

/// How much of the space a truncated walk covered — the payload of
/// [`Verdict::Unknown`], so an operator always learns what *was*
/// checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Distinct states that were visited before the walk stopped.
    pub states: usize,
    /// Frontier states left unexpanded when the walk stopped.
    pub frontier_len: usize,
    /// The budget that stopped the walk.
    pub reason: TruncationReason,
}

impl Coverage {
    /// Extracts coverage from a truncated run's stats; `None` for an
    /// exhaustive run.
    pub fn from_stats(stats: &ExploreStats) -> Option<Coverage> {
        match stats.completeness {
            Completeness::Exhaustive => None,
            Completeness::Truncated {
                reason,
                frontier_len,
            } => Some(Coverage {
                states: stats.states,
                frontier_len,
                reason,
            }),
        }
    }
}

impl std::fmt::Display for Coverage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} states visited, {} frontier states unexpanded; stopped by {}",
            self.states, self.frontier_len, self.reason
        )
    }
}

/// The three-valued outcome of a bounded verification: the shared
/// verdict currency for `check_wdrf`, litmus conformance and the
/// machine's exhaustive schedules.
///
/// The soundness rule every caller must respect: a verdict computed
/// from a truncated walk is `Unknown` — **never** `Pass` or `Fail` —
/// because a truncated enumeration can both miss counterexamples (so
/// "no counterexample found" proves nothing) and miss the allowed
/// outcomes a counterexample would be compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The property held over an exhaustive enumeration.
    Pass,
    /// A genuine counterexample was found (sound even under
    /// truncation, but reported only from exhaustive runs to keep the
    /// rule simple — see [`Verdict::from_parts`]).
    Fail,
    /// The enumeration was truncated; no claim is made either way.
    Unknown {
        /// What was actually checked before the walk stopped.
        coverage: Coverage,
    },
}

impl Verdict {
    /// The one place verdicts are derived from a bounded check:
    /// `holds` is the property as observed, `stats` the enumeration's
    /// statistics. Any truncation forces `Unknown`.
    pub fn from_parts(holds: bool, stats: &ExploreStats) -> Verdict {
        match Coverage::from_stats(stats) {
            Some(coverage) => Verdict::Unknown { coverage },
            None if holds => Verdict::Pass,
            None => Verdict::Fail,
        }
    }

    /// `true` iff this is `Pass`.
    pub fn is_pass(&self) -> bool {
        matches!(self, Verdict::Pass)
    }

    /// `true` iff this is `Unknown`.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Verdict::Unknown { .. })
    }

    /// Process exit-code convention shared by the binaries: 0 pass,
    /// 1 fail, 3 unknown (2 is left to the CLI for usage errors).
    pub fn exit_code(&self) -> i32 {
        match self {
            Verdict::Pass => 0,
            Verdict::Fail => 1,
            Verdict::Unknown { .. } => 3,
        }
    }

    /// Worst-wins combination under the soundness ordering
    /// `Fail > Unknown > Pass`: the **one** shared ordering for folding
    /// verdicts from several checks (batch summaries, cache merges,
    /// multi-workload exit codes). In particular a cached `Unknown` can
    /// never be upgraded to `Pass` by merging — only a fresh
    /// [`Verdict::from_parts`] over new exploration evidence may do
    /// that. When both sides are `Unknown`, coverages are summed (the
    /// two walks' evidence is additive) and the left reason kept.
    pub fn merge(self, other: Verdict) -> Verdict {
        match (self, other) {
            (Verdict::Fail, _) | (_, Verdict::Fail) => Verdict::Fail,
            (Verdict::Unknown { coverage: a }, Verdict::Unknown { coverage: b }) => {
                Verdict::Unknown {
                    coverage: Coverage {
                        states: a.states + b.states,
                        frontier_len: a.frontier_len + b.frontier_len,
                        reason: a.reason,
                    },
                }
            }
            (u @ Verdict::Unknown { .. }, Verdict::Pass)
            | (Verdict::Pass, u @ Verdict::Unknown { .. }) => u,
            (Verdict::Pass, Verdict::Pass) => Verdict::Pass,
        }
    }

    /// The exit-code image of [`Verdict::merge`]: folds two process
    /// exit codes under `1 (fail) > 3 (unknown) > 0 (pass)`. Codes
    /// outside the verdict convention (e.g. 2 for usage errors) are
    /// treated as failures and dominate everything but 1.
    pub fn merge_exit_codes(a: i32, b: i32) -> i32 {
        let rank = |c: i32| match c {
            1 => 3,
            3 => 1,
            0 => 0,
            _ => 2,
        };
        if rank(b) > rank(a) {
            b
        } else {
            a
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Pass => write!(f, "PASS"),
            Verdict::Fail => write!(f, "FAIL"),
            Verdict::Unknown { coverage } => write!(f, "UNKNOWN ({coverage})"),
        }
    }
}

/// Why a checkpoint could not be used. A walk itself never fails:
/// budget exhaustion truncates (see [`Completeness`]) and a run that
/// loses every parallel worker is rerun sequentially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreError {
    /// A sealed checkpoint image failed validation — see
    /// [`CheckpointFault`] for what exactly was wrong. Surfaced by
    /// [`unseal`] and the decoders built on it; a service holding
    /// checkpoints as cache artifacts treats this as "restart from
    /// scratch", never as grounds to trust a partial decode.
    CorruptCheckpoint(CheckpointFault),
}

/// What was wrong with a sealed checkpoint image (the payload of
/// [`ExploreError::CorruptCheckpoint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointFault {
    /// The body does not start with the expected magic — another
    /// format, or an older version of this one.
    BadMagic,
    /// The bytes are too short to hold a magic and the footer.
    Truncated,
    /// The footer's byte-length field disagrees with the body length.
    LengthMismatch,
    /// The footer's FNV-1a checksum disagrees with the body bytes.
    ChecksumMismatch,
    /// The intact body does not decode to a walk of this workload: a
    /// field is malformed or left over, or a frontier entry does not
    /// rebuild a visited state.
    BadState,
}

impl std::fmt::Display for CheckpointFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self {
            CheckpointFault::BadMagic => "bad magic",
            CheckpointFault::Truncated => "truncated",
            CheckpointFault::LengthMismatch => "footer length mismatch",
            CheckpointFault::ChecksumMismatch => "footer checksum mismatch",
            CheckpointFault::BadState => "undecodable body",
        };
        f.write_str(what)
    }
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::CorruptCheckpoint(fault) => write!(f, "corrupt checkpoint: {fault}"),
        }
    }
}

impl std::error::Error for ExploreError {}

/// Where [`StateSpace::expand`] deposits successors and emissions.
#[derive(Debug)]
pub struct Sink<S, E> {
    succ: Vec<S>,
    emits: Vec<E>,
    halted: bool,
}

impl<S, E> Sink<S, E> {
    fn new() -> Self {
        Sink {
            succ: Vec::new(),
            emits: Vec::new(),
            halted: false,
        }
    }

    /// Adds a successor state to the frontier (deduplicated by the
    /// engine against everything already visited).
    pub fn push(&mut self, state: S) {
        self.succ.push(state);
    }

    /// Emits a result — a terminal outcome, a ghost violation, a
    /// truncation marker. The engine collects emissions from all
    /// workers and hands them back in [`Exploration::emits`].
    pub fn emit(&mut self, emit: E) {
        self.emits.push(emit);
    }

    /// Requests early termination of the walk: searches that only need
    /// one result (promise certification, witness search) emit it and
    /// halt. The sequential driver stops immediately, discarding this
    /// expansion's successors; parallel workers stop cooperatively, so
    /// emissions from expansions already in flight are still returned.
    /// A halt is an intentional stop: the run stays
    /// [`Completeness::Exhaustive`].
    pub fn halt(&mut self) {
        self.halted = true;
    }
}

/// A model exposed to the engine: initial states plus a successor
/// relation, and optionally the processes and dependencies that
/// [`ExploreConfig::reduction`] prunes with.
///
/// `expand` takes `&self`, so any bookkeeping a model used to do
/// through `&mut self` (ghost violations, truncation flags) is emitted
/// through the [`Sink`] instead — that is what makes one implementation
/// serve both the sequential and the parallel driver.
///
/// The engine identifies a state by its [`digest128`], so `Hash` must
/// cover exactly what `Eq` compares (every state type in the workspace
/// derives both, or matches them by hand). Two states with equal
/// digests are one state to the walk: identity holds up to 128-bit
/// collisions, which checkpoints already accepted.
///
/// # Reduction hooks
///
/// The provided methods describe a space with no named processes:
/// [`StateSpace::enabled`] is empty, so every state is expanded whole
/// through `expand`, as in an unreduced walk. A space that names its
/// processes must keep the contract that makes reduction sound (see
/// `docs/REDUCTION.md`):
///
/// * `expand(s)` is exactly "emit if [`StateSpace::enabled`] is empty,
///   else the union of [`StateSpace::expand_proc`] over every enabled
///   process" — the reduced drivers interleave per-process expansions
///   and must reconstruct the full expansion from them;
/// * [`StateSpace::now`] over-approximates every token any *currently
///   possible* transition of the process may touch (including
///   transitions whose enabledness depends on global state — if
///   another process's write could enable or disable a move, that
///   location must be in `now`);
/// * [`StateSpace::future`] over-approximates `now` over every state
///   the process can ever reach from here;
/// * emissions happen only at states with no enabled processes (plus
///   process-insensitive error/truncation markers) — the reduced
///   drivers preserve the set of terminal states reached, not the set
///   of paths;
/// * [`StateSpace::canon`] maps a state to a strictly-preferred member
///   of its symmetry orbit (or `None` when the state is already the
///   representative), and [`StateSpace::orbit`] lists the *other*
///   members of the orbit, so terminal emissions can be re-rendered for
///   every symmetric variant the walk collapsed.
///
/// The footprint and symmetry hooks default to the conservative answer
/// (top footprints, no symmetry), which prunes nothing.
pub trait StateSpace: Sync {
    /// One reachable configuration of the model.
    type State: Clone + Eq + Hash + Send;
    /// What terminal states (or the expansion itself) report.
    type Emit: Send;

    /// The root states of the walk.
    fn initial(&self) -> Vec<Self::State>;

    /// Pushes every successor of `state` (and any emissions) into the
    /// sink. A state with no successors is terminal.
    fn expand(&self, state: &Self::State, sink: &mut Sink<Self::State, Self::Emit>);

    /// Process ids that can take a step from `state`; empty when the
    /// state is terminal/emitting, and always empty for a space that
    /// names no processes. Ids must be `< 64` for the sleep-set driver
    /// to track them (larger ids are safe but get no sleep pruning).
    fn enabled(&self, _state: &Self::State) -> Vec<usize> {
        Vec::new()
    }

    /// Pushes the successors (and emissions) contributed by process
    /// `p` alone — one slice of what [`StateSpace::expand`] would do.
    fn expand_proc(
        &self,
        _state: &Self::State,
        _p: usize,
        _sink: &mut Sink<Self::State, Self::Emit>,
    ) {
    }

    /// Footprint of every transition process `p` might take *now*.
    fn now(&self, _state: &Self::State, _p: usize) -> Footprint {
        Footprint::top()
    }

    /// Footprint of everything process `p` might ever do from here.
    fn future(&self, _state: &Self::State, _p: usize) -> Footprint {
        Footprint::top()
    }

    /// The orbit representative of `state` under the space's symmetry
    /// group, or `None` when `state` already is the representative.
    fn canon(&self, _state: &Self::State) -> Option<Self::State> {
        None
    }

    /// The other members of `state`'s symmetry orbit (excluding
    /// `state` itself); empty when the state's orbit is trivial.
    fn orbit(&self, _state: &Self::State) -> Vec<Self::State> {
        Vec::new()
    }
}

/// The read/write token sets one process's next (or future) transitions
/// may touch, used by the reduced drivers to decide independence.
///
/// Tokens are opaque `u64`s chosen by the space — memory addresses,
/// page-frame numbers, or synthetic tokens such as "appends to the
/// global store order". Two footprints *conflict* when one's writes
/// intersect the other's reads or writes (in either direction); two
/// transitions whose footprints do not conflict commute and neither
/// can enable or disable the other, which is exactly the independence
/// the ample/sleep machinery relies on.
///
/// `reads_top`/`writes_top` mean "every token": a conservative space
/// (or a transition whose accesses cannot be named statically) reports
/// top and conflicts with everything that touches anything. The empty
/// footprint conflicts with nothing — not even top — which is what
/// makes purely thread-local steps (register moves, `pc` advances past
/// the end of code) freely commutable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Tokens this transition may read.
    pub reads: Vec<u64>,
    /// Tokens this transition may write.
    pub writes: Vec<u64>,
    /// Reads every token (ignore `reads`).
    pub reads_top: bool,
    /// Writes every token (ignore `writes`).
    pub writes_top: bool,
}

/// `true` when the token sets `(a, a_top)` and `(b, b_top)` intersect;
/// an empty, non-top side intersects nothing, including top.
fn tokens_overlap(a: &[u64], a_top: bool, b: &[u64], b_top: bool) -> bool {
    if (a.is_empty() && !a_top) || (b.is_empty() && !b_top) {
        return false;
    }
    if a_top || b_top {
        return true;
    }
    a.iter().any(|t| b.contains(t))
}

impl Footprint {
    /// The footprint that touches nothing and conflicts with nothing.
    pub fn empty() -> Footprint {
        Footprint::default()
    }

    /// The footprint that reads and writes everything: conflicts with
    /// any footprint that touches anything.
    pub fn top() -> Footprint {
        Footprint {
            reads_top: true,
            writes_top: true,
            ..Footprint::default()
        }
    }

    /// Adds a read token.
    pub fn read(&mut self, t: u64) {
        if !self.reads_top && !self.reads.contains(&t) {
            self.reads.push(t);
        }
    }

    /// Adds a write token.
    pub fn write(&mut self, t: u64) {
        if !self.writes_top && !self.writes.contains(&t) {
            self.writes.push(t);
        }
    }

    /// Unions `other` into `self`.
    pub fn merge(&mut self, other: &Footprint) {
        self.reads_top |= other.reads_top;
        self.writes_top |= other.writes_top;
        if self.reads_top {
            self.reads.clear();
        } else {
            for &t in &other.reads {
                self.read(t);
            }
        }
        if self.writes_top {
            self.writes.clear();
        } else {
            for &t in &other.writes {
                self.write(t);
            }
        }
    }

    /// `true` when the footprint touches nothing at all.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty() && !self.reads_top && !self.writes_top
    }

    /// Symmetric conflict test: `self`'s writes against `other`'s reads
    /// and writes, plus `other`'s writes against `self`'s reads.
    pub fn conflicts(&self, other: &Footprint) -> bool {
        tokens_overlap(&self.writes, self.writes_top, &other.reads, other.reads_top)
            || tokens_overlap(
                &self.writes,
                self.writes_top,
                &other.writes,
                other.writes_top,
            )
            || tokens_overlap(&other.writes, other.writes_top, &self.reads, self.reads_top)
    }
}

/// Picks a process whose singleton `{p}` is a sound ample set at
/// `state`: `now(p)` must be independent of `future(q)` for every
/// other enabled `q` — then no other process can ever perform a step
/// that conflicts with (enables, disables, or fails to commute with)
/// `p`'s next move, so exploring only `p` first loses no terminal
/// state. Returns `None` when no singleton qualifies (full expansion).
fn ample_singleton<SP: StateSpace>(
    space: &SP,
    state: &SP::State,
    enabled: &[usize],
) -> Option<usize> {
    if enabled.len() <= 1 {
        return None;
    }
    'cand: for &p in enabled {
        let np = space.now(state, p);
        for &q in enabled {
            if q != p && np.conflicts(&space.future(state, q)) {
                continue 'cand;
            }
        }
        return Some(p);
    }
    None
}

/// The orbit representative of `state` when it is not `state` itself,
/// counting the replacement.
fn canon_counted<SP: StateSpace>(space: &SP, state: &SP::State) -> Option<SP::State> {
    let c = space.canon(state);
    if c.is_some() {
        OBS_ORBIT_COLLAPSED.add(1);
    }
    c
}

/// The initial states, replaced by their orbit representatives when
/// the walk is reduced.
fn roots<SP: StateSpace>(space: &SP, reduced: bool) -> Vec<SP::State> {
    let mut roots = space.initial();
    if reduced {
        for s in &mut roots {
            if let Some(c) = canon_counted(space, s) {
                *s = c;
            }
        }
    }
    roots
}

/// Expands one popped state for either driver: emissions stay in
/// `sink`, successors go to `out` with the sleep mask each is to be
/// expanded under.
///
/// Unreduced, and at a state with no enabled process, the state is
/// expanded whole through [`StateSpace::expand`]. Under reduction it is
/// expanded process by process instead: only an ample singleton where
/// one exists, restarting with every enabled process when that one is
/// stuck (it yields nothing, or only spins in place), and skipping the
/// processes asleep in `sleep`. A driver without sleep sets passes
/// `None`, so nothing sleeps and every child is all-awake; otherwise a
/// child of process `p` sleeps each process already covered at this
/// state whose move commutes with `p`'s. A cross-process dead end
/// (nothing yielded, nothing asleep) is delegated to the whole-state
/// `expand`, which under reduction also re-renders the emissions of
/// every orbit image: their successors are dropped, because the
/// representative's own cover them up to symmetry. Every successor of a
/// reduced walk is replaced by its orbit representative, all-awake when
/// that moved it (canonicalization permutes process ids). A halting
/// expansion ends the step at once.
fn expand_step<SP: StateSpace>(
    space: &SP,
    reduced: bool,
    state: &SP::State,
    sleep: Option<u64>,
    sink: &mut Sink<SP::State, SP::Emit>,
    out: &mut Vec<(SP::State, u64)>,
) {
    let enabled = if reduced {
        space.enabled(state)
    } else {
        Vec::new()
    };
    if !enabled.is_empty() {
        // Sleep masks only cover process ids < 64; wider spaces run
        // ample and canon only.
        let sleep = sleep.filter(|_| enabled.iter().all(|&p| p < 64));
        let slept = sleep.unwrap_or(0);
        let ample = ample_singleton(space, state, &enabled);
        let mut base = if ample.is_some() {
            ample.as_slice()
        } else {
            &enabled
        };
        'pass: loop {
            let ample_cut = base.len() < enabled.len();
            let (mut yielded, mut asleep) = (false, 0u64);
            let mut covered = slept;
            for &p in base {
                if slept & sleep_bit(p) != 0 {
                    asleep += 1;
                    continue;
                }
                let mark_emit = sink.emits.len();
                space.expand_proc(state, p, sink);
                let moved = !sink.succ.is_empty() || sink.emits.len() > mark_emit;
                let spins = !sink.succ.is_empty() && sink.succ.iter().all(|n| n == state);
                if ample_cut && (!moved || spins) {
                    // A stuck ample process: restart the pass with every
                    // enabled process, so the others' moves stay
                    // reachable.
                    sink.succ.clear();
                    sink.emits.truncate(mark_emit);
                    base = &enabled;
                    continue 'pass;
                }
                yielded |= moved;
                let child = match sleep {
                    Some(_) if covered != 0 => {
                        let now_p = space.now(state, p);
                        mask_bits(covered)
                            .filter(|&q| !space.now(state, q).conflicts(&now_p))
                            .fold(0, |m, q| m | sleep_bit(q))
                    }
                    _ => 0,
                };
                for next in sink.succ.drain(..) {
                    out.push(match canon_counted(space, &next) {
                        Some(c) => (c, 0),
                        None => (next, child),
                    });
                }
                if sink.halted {
                    return;
                }
                covered |= sleep_bit(p);
            }
            if ample_cut {
                OBS_PERSISTENT_CUT.add((enabled.len() - 1) as u64);
            }
            if asleep > 0 {
                OBS_SLEEP_PRUNED.add(asleep);
            }
            if yielded || asleep > 0 {
                return;
            }
            break;
        }
    }
    space.expand(state, sink);
    if reduced {
        let mark = sink.succ.len();
        for image in space.orbit(state) {
            space.expand(&image, sink);
        }
        sink.succ.truncate(mark);
    }
    for next in sink.succ.drain(..) {
        let next = if reduced {
            canon_counted(space, &next).unwrap_or(next)
        } else {
            next
        };
        out.push((next, 0));
    }
}

/// A 128-bit digest of a state from two independently salted
/// `DefaultHasher` passes: the engine's state identity.
/// `DefaultHasher::new()` uses fixed keys, so digests are stable across
/// processes of the same build — which is what lets a checkpoint carry
/// the visited map as it is.
pub fn digest128<S: Hash + ?Sized>(s: &S) -> u128 {
    let mut a = DefaultHasher::new();
    0x9e37_79b9_7f4a_7c15u64.hash(&mut a);
    s.hash(&mut a);
    let mut b = DefaultHasher::new();
    0xc2b2_ae3d_27d4_eb4fu64.hash(&mut b);
    s.hash(&mut b);
    ((a.finish() as u128) << 64) | b.finish() as u128
}

/// Everything needed to continue a truncated walk: the driver's
/// unexpanded frontier and its visited map, moved out as they stood,
/// so the resumed run picks up the interrupted walk instead of walking
/// it again.
///
/// Produced by the drivers on truncation ([`Exploration::resume`]),
/// consumed by [`explore`]. Emissions are **not** carried — the
/// caller unions each run's emissions itself (set-folding callers get
/// this for free). A caller that stores a checkpoint writes its own
/// image of it with [`seal`] and reads it back through [`unseal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeState<S> {
    /// Unexpanded `(state, depth, sleep mask)` entries left on the
    /// frontier.
    pub frontier: Vec<(S, usize, u64)>,
    /// [`digest128`] of every state visited so far (the frontier states
    /// included) → the sleep mask it was last queued under; 0 for an
    /// unreduced walk and in the parallel driver.
    pub visited: HashMap<u128, u64>,
}

/// Byte length of the integrity footer [`seal`] appends to a durable
/// image: an 8-byte LE body length followed by an 8-byte LE
/// [`checksum64`] of the body (magic included).
pub const CHECKPOINT_FOOTER_LEN: usize = 16;

/// FNV-1a 64 over `bytes`: the integrity checksum of every durable
/// image in the workspace — the footer of a [`seal`]ed checkpoint and
/// each record of the `vrm-serve` write-ahead log. Not cryptographic;
/// it guards against truncation and bit rot of a stored artifact, not
/// against an adversary.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Appends the integrity footer ([`CHECKPOINT_FOOTER_LEN`] bytes) to
/// `body`, a durable image that starts with its own 8-byte magic, so
/// that [`unseal`] rejects a truncated or corrupted copy wholesale.
pub fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let (len, sum) = (body.len() as u64, checksum64(&body));
    body.extend_from_slice(&len.to_le_bytes());
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// Verifies a [`seal`]ed image — the footer's body length, then its
/// checksum, then the leading `magic` — before any field is read, and
/// returns a cursor over the body past the magic. A decoder therefore
/// never sees a clipped or bit-flipped body, and a flipped count can
/// never drive a huge allocation.
pub fn unseal<'a>(bytes: &'a [u8], magic: &[u8; 8]) -> Result<Cursor<'a>, ExploreError> {
    let fail = |f| Err(ExploreError::CorruptCheckpoint(f));
    let body_len = match bytes.len().checked_sub(CHECKPOINT_FOOTER_LEN) {
        Some(n) if n >= magic.len() => n,
        _ => return fail(CheckpointFault::Truncated),
    };
    let (body, footer) = bytes.split_at(body_len);
    let mut footer = Cursor::new(footer);
    if footer.u64() != Some(body_len as u64) {
        return fail(CheckpointFault::LengthMismatch);
    }
    if footer.u64() != Some(checksum64(body)) {
        return fail(CheckpointFault::ChecksumMismatch);
    }
    let mut c = Cursor::new(body);
    if c.take(magic.len()) != Some(&magic[..]) {
        return fail(CheckpointFault::BadMagic);
    }
    Ok(c)
}

/// A little-endian reader over a byte slice: the one decoder of every
/// durable format in the workspace (sealed checkpoints, write-ahead-log
/// records). Each read consumes its bytes, or returns `None` when too
/// few remain.
#[derive(Debug)]
pub struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { rest: bytes }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.rest.len() < n {
            return None;
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N).map(|b| b.try_into().expect("N bytes"))
    }

    /// The next byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next little-endian `u128`.
    pub fn u128(&mut self) -> Option<u128> {
        self.array().map(u128::from_le_bytes)
    }

    /// A `u32` byte length, then that many bytes of UTF-8; `None` also
    /// when the bytes are not UTF-8.
    pub fn str(&mut self) -> Option<&'a str> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).ok()
    }

    /// `true` once every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }
}

/// What [`explore`] returns: everything the space emitted, plus stats,
/// plus — iff the walk was truncated — a [`ResumeState`] checkpoint.
#[derive(Debug)]
pub struct Exploration<S, E> {
    /// All emissions, in visit order for the sequential driver and in
    /// nondeterministic order for the parallel one.
    pub emits: Vec<E>,
    /// Counters, timing and completeness for the walk.
    pub stats: ExploreStats,
    /// Present exactly when `stats.completeness` is truncated: feed it
    /// back through [`explore`] (usually with larger budgets) to
    /// continue instead of restarting.
    pub resume: Option<ResumeState<S>>,
}

/// Explores the state space of `space` under `cfg`, optionally resuming
/// a prior truncated run's checkpoint: the visited map and the frontier
/// are seeded from it, so the run continues the interrupted walk.
/// Budgets apply to *this* run's fresh states.
///
/// [`ExploreConfig::jobs`] picks the driver and
/// [`ExploreConfig::reduction`] whether it prunes with the space's
/// reduction hooks. A checkpoint parked by either driver resumes on
/// either. A checkpoint from a reduced walk must be resumed reduced
/// (and vice versa): its frontier states are orbit representatives of
/// a reduced graph, which the unreduced walk does not generate. A
/// parallel run that loses every worker to panics in `expand` is run
/// again, once, on the sequential driver, which has no worker threads
/// to lose.
pub fn explore<SP: StateSpace>(
    space: &SP,
    cfg: &ExploreConfig,
    resume: Option<ResumeState<SP::State>>,
) -> Exploration<SP::State, SP::Emit> {
    if cfg.jobs > 1 {
        if let Some(ex) = parallel(space, cfg, resume.as_ref()) {
            return ex;
        }
    }
    sequential(space, cfg, resume)
}

/// `Duration → u64` nanoseconds, saturating instead of silently
/// wrapping (a >584-year duration is "forever" for our purposes). The
/// one conversion both drivers share.
pub fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Locks a mutex, tolerating poison: containment must keep working
/// after a worker died mid-critical-section, and every structure the
/// engine guards (deques, slots, sets) stays valid across a panic in
/// model code (`expand` runs outside these locks' critical sections,
/// except the in-flight slot — whose `Some` payload is exactly what
/// the handler wants).
fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// How long an injected [`FaultKind::Delay`] stalls a driver.
const FAULT_DELAY: Duration = Duration::from_micros(100);

/// Records a truncation reason, first-stopping-reason-wins: a
/// non-aborting depth pruning is overwritten by a stopping reason, but
/// never the other way around.
fn record_truncation(slot: &mut Option<TruncationReason>, r: TruncationReason) {
    match *slot {
        None => *slot = Some(r),
        Some(TruncationReason::DepthLimit) if r != TruncationReason::DepthLimit => *slot = Some(r),
        _ => {}
    }
}

/// Aim for roughly this much wall time between deadline clock reads.
const POLL_TARGET_NS: u64 = 1_000_000;

/// Adaptive deadline polling, shared by both drivers.
///
/// The old scheme read the clock once per 64 expansions, which
/// overshoots a deadline by 64× the cost of a *slow* expansion. This
/// poller is time-based instead: it measures how much wall time the
/// last batch of polls actually took and re-plans the stride so clock
/// reads land about [`POLL_TARGET_NS`] apart (denser as the deadline
/// approaches, via the `remaining / 2` cap). Stride growth is capped
/// at 2× per read, so a fast→slow workload transition overshoots by at
/// most twice the previously *measured* batch time — not by a fixed
/// count of arbitrarily slow expansions.
struct DeadlinePoller {
    start: Instant,
    deadline_ns: u64,
    stride: u32,
    left: u32,
    last_ns: u64,
}

impl DeadlinePoller {
    fn new(start: Instant, deadline: Duration) -> Self {
        DeadlinePoller {
            start,
            deadline_ns: saturating_ns(deadline),
            stride: 1,
            left: 0,
            last_ns: 0,
        }
    }

    /// `true` once the deadline has passed; call once per unit of work.
    fn expired(&mut self) -> bool {
        if self.left > 0 {
            self.left -= 1;
            return false;
        }
        let now = saturating_ns(self.start.elapsed());
        if now > self.deadline_ns {
            return true;
        }
        let batch = now.saturating_sub(self.last_ns);
        let per_poll = (batch / u64::from(self.stride)).max(1);
        let remaining = self.deadline_ns - now;
        let target = POLL_TARGET_NS.min(remaining / 2).max(1);
        let ideal = (target / per_poll).clamp(1, 4096) as u32;
        self.stride = ideal.min(self.stride.saturating_mul(2)).max(1);
        self.last_ns = now;
        self.left = self.stride - 1;
        false
    }
}

/// Iterates the process ids set in a sleep mask.
fn mask_bits(mask: u64) -> impl Iterator<Item = usize> {
    (0..64).filter(move |i| mask & (1u64 << i) != 0)
}

/// The sleep-mask bit of process `p`; processes beyond the mask width
/// get no bit (they are never slept, which is merely conservative).
fn sleep_bit(p: usize) -> u64 {
    if p < 64 {
        1u64 << p
    } else {
        0
    }
}

/// The sequential driver's frontier and bookkeeping.
struct SeqWalk<S> {
    max_depth: Option<usize>,
    /// State digest → the sleep mask it was last queued under.
    visited: HashMap<u128, u64>,
    /// Unexpanded `(state, depth, sleep mask)` entries.
    stack: Vec<(S, usize, u64)>,
    /// Successors pruned by the depth bound: visited (so they dedup)
    /// but never expanded; parked for the resume frontier.
    deep: Vec<(S, usize, u64)>,
    trunc: Option<TruncationReason>,
    stats: ExploreStats,
}

impl<S: Hash> SeqWalk<S> {
    /// Queues a successor reached at `depth` under sleep mask `sleep`,
    /// unless the walk already reached it under a mask that sleeps no
    /// more processes.
    fn admit(&mut self, next: S, depth: usize, sleep: u64) {
        let mask = match self.visited.entry(digest128(&next)) {
            Entry::Occupied(mut e) => {
                let stored = *e.get();
                if stored & !sleep == 0 {
                    // Already expanded under an equal-or-more-awake
                    // mask: covered.
                    self.stats.dedup_hits += 1;
                    return;
                }
                e.insert(stored & sleep);
                stored & sleep
            }
            Entry::Vacant(e) => *e.insert(sleep),
        };
        if self.max_depth.is_some_and(|md| depth > md) {
            self.deep.push((next, depth, mask));
            record_truncation(&mut self.trunc, TruncationReason::DepthLimit);
            return;
        }
        self.stack.push((next, depth, mask));
        self.stats.pushed += 1;
        self.stats.frontier_peak = self.stats.frontier_peak.max(self.stack.len());
    }
}

/// The sequential reference driver: a LIFO worklist with a single
/// visited map, field-for-field the loop the individual models used to
/// hand-roll. Kept as the default so deterministic tests (witness
/// traces, visit-order-sensitive diagnostics) are bit-for-bit
/// unchanged. Never fails: budget exhaustion returns partial results.
///
/// Under [`ExploreConfig::reduction`] it adds sleep sets
/// (Godefroid-style, adapted to a stateful search) to the step's ample
/// sets and symmetry. Each frontier entry carries a *sleep mask*: the
/// set of processes whose every move from this state is already
/// covered by an earlier sibling branch, so expanding them here would
/// only re-derive interleavings the walk has seen. The visited map
/// remembers the mask each state was last queued under; re-reaching a
/// state with a mask that sleeps *fewer* processes re-expands it under
/// the intersection (masks only shrink, so this terminates), which is
/// what keeps pruning sound when the same state is reached along paths
/// with different coverage obligations. Unreduced, every mask is 0 and
/// the map is a plain visited set.
///
/// On truncation the stack (with the depth-pruned entries after it)
/// and the map are the checkpoint, so a resumed run continues this
/// walk exactly: every coverage obligation a sleep mask leans on is
/// either discharged already or still on the stack.
fn sequential<SP: StateSpace>(
    space: &SP,
    cfg: &ExploreConfig,
    resume: Option<ResumeState<SP::State>>,
) -> Exploration<SP::State, SP::Emit> {
    let start = Instant::now();
    let reduced = cfg.reduction;
    let _span = vrm_obs::span!("explore.sequential", reduction = u64::from(reduced));
    let obs = RunObs::if_tracing();
    let mut walk = SeqWalk {
        max_depth: cfg.max_depth,
        visited: HashMap::new(),
        stack: Vec::new(),
        deep: Vec::new(),
        trunc: None,
        stats: ExploreStats {
            jobs: 1,
            ..Default::default()
        },
    };
    // Budgets count this run's fresh states only.
    let seeded = resume.as_ref().map_or(0, |r| r.visited.len());
    match resume {
        Some(r) => {
            walk.visited = r.visited;
            walk.stack = r.frontier;
        }
        None => {
            for s in roots(space, reduced) {
                if let Entry::Vacant(e) = walk.visited.entry(digest128(&s)) {
                    e.insert(0);
                    walk.stack.push((s, 0, 0));
                }
            }
        }
    }
    walk.stats.frontier_peak = walk.stack.len();
    let mut emits: Vec<SP::Emit> = Vec::new();
    let mut poller = cfg.deadline.map(|d| DeadlinePoller::new(start, d));
    let mut sink = Sink::new();
    let mut succ = Vec::new();
    loop {
        if walk.visited.len() - seeded >= cfg.max_states {
            record_truncation(&mut walk.trunc, TruncationReason::StateLimit);
            break;
        }
        if poller.as_mut().is_some_and(|p| p.expired()) {
            record_truncation(&mut walk.trunc, TruncationReason::Deadline);
            break;
        }
        if vrm_faults::poll(Site::Sequential) == Some(FaultKind::Delay) {
            std::thread::sleep(FAULT_DELAY);
        }
        if let Some(o) = &obs {
            if o.gate.due() {
                vrm_obs::emit_metrics(
                    "explore.sequential",
                    &[("frontier_len", walk.stack.len() as u64)],
                );
            }
        }
        let Some((state, depth, sleep)) = walk.stack.pop() else {
            break;
        };
        walk.stats.popped += 1;
        let t_expand = obs.as_ref().map(|_| Instant::now());
        expand_step(space, reduced, &state, Some(sleep), &mut sink, &mut succ);
        emits.append(&mut sink.emits);
        if sink.halted {
            break;
        }
        for (next, mask) in succ.drain(..) {
            walk.admit(next, depth + 1, mask);
        }
        if let (Some(o), Some(t)) = (&obs, t_expand) {
            o.expand.record(t.elapsed());
        }
    }
    let SeqWalk {
        visited,
        mut stack,
        mut deep,
        trunc,
        mut stats,
        ..
    } = walk;
    stats.states = visited.len() - seeded;
    stats.wall_ns = saturating_ns(start.elapsed());
    OBS_POPPED.add(stats.popped as u64);
    OBS_PUSHED.add(stats.pushed as u64);
    OBS_DEDUP.add(stats.dedup_hits as u64);
    if let Some(o) = &obs {
        o.finish("explore.sequential");
    }
    let resume = trunc.map(|reason| {
        stack.append(&mut deep);
        stats.completeness = Completeness::Truncated {
            reason,
            frontier_len: stack.len(),
        };
        ResumeState {
            frontier: stack,
            visited,
        }
    });
    Exploration {
        emits,
        stats,
        resume,
    }
}

/// The visited map of the parallel driver: digest → sleep mask, in
/// shards behind mutexes chosen by the digest's low bits, so
/// concurrent inserts on different shards never contend.
struct ShardedVisited {
    shards: Vec<Mutex<HashMap<u128, u64>>>,
    /// Digests this run added (the seeded checkpoint's excluded).
    fresh: AtomicUsize,
}

impl ShardedVisited {
    /// `shards` must be a power of two.
    fn new(shards: usize) -> Self {
        ShardedVisited {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            fresh: AtomicUsize::new(0),
        }
    }

    fn shard(&self, digest: u128) -> MutexGuard<'_, HashMap<u128, u64>> {
        lock_tolerant(&self.shards[digest as usize & (self.shards.len() - 1)])
    }

    /// Marks the state with `digest` as expanded all-awake, returning
    /// `true` when it is to be expanded: it is fresh, or the sequential
    /// leg of a resumed walk left it under a non-zero sleep mask.
    fn insert(&self, digest: u128) -> bool {
        match self.shard(digest).insert(digest, 0) {
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                true
            }
            Some(mask) => mask != 0,
        }
    }
}

/// Atomically reserves one worker death, refusing if this worker is
/// the last one alive — the gate the fault injector goes through, so
/// injected faults are liveness hazards only and a faulted run still
/// completes its walk.
fn reserve_death(alive: &AtomicUsize) -> bool {
    let mut cur = alive.load(Ordering::SeqCst);
    loop {
        if cur <= 1 {
            return false;
        }
        match alive.compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return true,
            Err(observed) => cur = observed,
        }
    }
}

/// Moves the contents of `queues[me]` into the other queues
/// round-robin, so a dead or retiring worker's frontier keeps flowing
/// even while every survivor is busy at the back of its own deque.
fn drain_to_survivors<S>(queues: &[Mutex<VecDeque<(S, usize)>>], me: usize) {
    let n = queues.len();
    if n <= 1 {
        return;
    }
    let drained: Vec<(S, usize)> = lock_tolerant(&queues[me]).drain(..).collect();
    for (i, item) in drained.into_iter().enumerate() {
        let target = (me + 1 + (i % (n - 1))) % n;
        lock_tolerant(&queues[target]).push_back(item);
    }
}

/// The work-stealing parallel driver. Each worker owns a deque: it
/// pushes and pops at the back (depth-first, cache-friendly) and
/// steals from the front of a victim's deque when starved. A shared
/// `pending` count of not-yet-expanded states provides termination:
/// when it reaches zero, no state exists anywhere and no expansion is
/// in flight, so the frontier can never grow again.
///
/// Sleep sets are order-dependent and worker interleaving is not, so
/// this driver expands every state all-awake (mask 0): under reduction
/// it walks the fixed graph of ample sets and orbit representatives. A
/// state that a sequential leg of the same walk left under a non-zero
/// mask is expanded again when reached, so either driver resumes the
/// other's checkpoint.
///
/// Every worker runs inside `catch_unwind`. A panic in `expand` kills
/// only that worker: the containment handler requeues the in-flight
/// state (parked in a per-worker slot for exactly this purpose) and
/// drains the dead worker's deque to survivors, so the walk still
/// visits every state. The driver returns `None` only when the last
/// worker dies; it borrows the checkpoint it resumes so that [`explore`]
/// can then run the walk again sequentially.
fn parallel<SP: StateSpace>(
    space: &SP,
    cfg: &ExploreConfig,
    resume: Option<&ResumeState<SP::State>>,
) -> Option<Exploration<SP::State, SP::Emit>> {
    let start = Instant::now();
    let jobs = cfg.jobs.max(2);
    let _span = vrm_obs::span!(
        "explore.parallel",
        jobs = jobs,
        reduction = u64::from(cfg.reduction)
    );
    let obs = RunObs::if_tracing();
    let obs = obs.as_ref();
    let visited = ShardedVisited::new((jobs * 8).next_power_of_two());
    type WorkQueue<S> = Mutex<VecDeque<(S, usize)>>;
    let queues: Vec<WorkQueue<SP::State>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    // Per-worker in-flight slot: the state currently being expanded,
    // parked so the containment handler can recover it after a panic.
    type InflightSlot<S> = Mutex<Option<(S, usize)>>;
    let inflight: Vec<InflightSlot<SP::State>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let deep: Mutex<Vec<(SP::State, usize)>> = Mutex::new(Vec::new());
    let pending = AtomicUsize::new(0);
    let frontier_peak = AtomicUsize::new(0);
    let dedup_hits = AtomicUsize::new(0);
    let popped = AtomicUsize::new(0);
    let pushed = AtomicUsize::new(0);
    let steals = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let alive = AtomicUsize::new(jobs);
    let all_dead = AtomicBool::new(false);
    let trunc: Mutex<Option<TruncationReason>> = Mutex::new(None);

    // Seed the workers' deques round-robin: from the checkpoint's
    // frontier (all-awake from now on) over its visited map when
    // resuming, from the initial states otherwise.
    {
        let mut count = 0usize;
        match resume {
            Some(r) => {
                for (&digest, &mask) in &r.visited {
                    visited.shard(digest).insert(digest, mask);
                }
                for (i, (s, depth, _)) in r.frontier.iter().enumerate() {
                    let digest = digest128(s);
                    visited.shard(digest).insert(digest, 0);
                    lock_tolerant(&queues[i % jobs]).push_back((s.clone(), *depth));
                    count += 1;
                }
            }
            None => {
                for (i, s) in roots(space, cfg.reduction).into_iter().enumerate() {
                    if visited.insert(digest128(&s)) {
                        lock_tolerant(&queues[i % jobs]).push_back((s, 0));
                        count += 1;
                    }
                }
            }
        }
        pending.store(count, Ordering::SeqCst);
        frontier_peak.store(count, Ordering::Relaxed);
    }

    let truncate = |r: TruncationReason| {
        record_truncation(&mut lock_tolerant(&trunc), r);
        if r != TruncationReason::DepthLimit {
            abort.store(true, Ordering::SeqCst);
        }
    };

    let mut all_emits: Vec<SP::Emit> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(jobs);
        for me in 0..jobs {
            let queues = &queues;
            let inflight = &inflight;
            let deep = &deep;
            let visited = &visited;
            let pending = &pending;
            let frontier_peak = &frontier_peak;
            let dedup_hits = &dedup_hits;
            let popped = &popped;
            let pushed = &pushed;
            let steals = &steals;
            let abort = &abort;
            let alive = &alive;
            let all_dead = &all_dead;
            let truncate = &truncate;
            handles.push(scope.spawn(move || {
                let mut emits: Vec<SP::Emit> = Vec::new();
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    let mut sink = Sink::new();
                    let mut succ = Vec::new();
                    let mut spins = 0u32;
                    let mut poller = cfg.deadline.map(|d| DeadlinePoller::new(start, d));
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        if visited.fresh.load(Ordering::Relaxed) >= cfg.max_states {
                            truncate(TruncationReason::StateLimit);
                            break;
                        }
                        if poller.as_mut().is_some_and(|p| p.expired()) {
                            truncate(TruncationReason::Deadline);
                            break;
                        }
                        if let Some(o) = obs {
                            if o.gate.due() {
                                vrm_obs::emit_metrics(
                                    "explore.parallel",
                                    &[("pending", pending.load(Ordering::Relaxed) as u64)],
                                );
                            }
                        }
                        match vrm_faults::poll(Site::ParallelWorker) {
                            Some(FaultKind::Delay) => std::thread::sleep(FAULT_DELAY),
                            Some(FaultKind::WorkerPanic) if reserve_death(alive) => {
                                drain_to_survivors(queues, me);
                                vrm_faults::inject_panic();
                            }
                            Some(FaultKind::AllocFail) if reserve_death(alive) => {
                                // Simulated allocation failure: retire
                                // gracefully, handing work to survivors.
                                drain_to_survivors(queues, me);
                                break;
                            }
                            _ => {}
                        }
                        // Own queue first (LIFO), then steal (FIFO).
                        let job = {
                            let own = lock_tolerant(&queues[me]).pop_back();
                            match own {
                                Some(j) => Some(j),
                                None => {
                                    let t = obs.map(|_| Instant::now());
                                    let stolen = (1..jobs).find_map(|d| {
                                        lock_tolerant(&queues[(me + d) % jobs]).pop_front()
                                    });
                                    if stolen.is_some() {
                                        steals.fetch_add(1, Ordering::Relaxed);
                                        if let (Some(o), Some(t)) = (obs, t) {
                                            o.steal.record(t.elapsed());
                                        }
                                    }
                                    stolen
                                }
                            }
                        };
                        let Some((state, depth)) = job else {
                            if pending.load(Ordering::SeqCst) == 0 {
                                break;
                            }
                            spins += 1;
                            let t = obs.map(|_| Instant::now());
                            if spins > 64 {
                                std::thread::sleep(Duration::from_micros(50));
                            } else {
                                std::thread::yield_now();
                            }
                            if let (Some(o), Some(t)) = (obs, t) {
                                o.idle.record(t.elapsed());
                            }
                            continue;
                        };
                        spins = 0;
                        popped.fetch_add(1, Ordering::Relaxed);
                        // Park the state in the in-flight slot for the
                        // whole expansion: if `expand` panics, the
                        // containment handler finds it here and
                        // requeues it, so no state is ever lost to a
                        // worker death (the walk stays exhaustive).
                        let mut slot = lock_tolerant(&inflight[me]);
                        *slot = Some((state, depth));
                        {
                            let parked = slot.as_ref().expect("in-flight state just parked");
                            let t = obs.map(|_| Instant::now());
                            expand_step(
                                space,
                                cfg.reduction,
                                &parked.0,
                                None,
                                &mut sink,
                                &mut succ,
                            );
                            if let (Some(o), Some(t)) = (obs, t) {
                                o.expand.record(t.elapsed());
                            }
                        }
                        emits.append(&mut sink.emits);
                        if sink.halted {
                            *slot = None;
                            abort.store(true, Ordering::SeqCst);
                            break;
                        }
                        let mut fresh: Vec<(SP::State, usize)> = Vec::new();
                        for (next, _) in succ.drain(..) {
                            if !visited.insert(digest128(&next)) {
                                dedup_hits.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            if cfg.max_depth.is_some_and(|md| depth + 1 > md) {
                                lock_tolerant(deep).push((next, depth + 1));
                                truncate(TruncationReason::DepthLimit);
                                continue;
                            }
                            fresh.push((next, depth + 1));
                        }
                        // Account for the successors BEFORE they become
                        // stealable: every queued state is represented in
                        // `pending`, so a thief finishing one early can
                        // never drive the counter to zero (or below) while
                        // work still exists. The expanded state's own count
                        // is released only after its successors are in —
                        // and only after the in-flight slot is cleared, so
                        // a state is never both requeued and released.
                        if !fresh.is_empty() {
                            pushed.fetch_add(fresh.len(), Ordering::Relaxed);
                            let now =
                                pending.fetch_add(fresh.len(), Ordering::SeqCst) + fresh.len();
                            frontier_peak.fetch_max(now, Ordering::Relaxed);
                            let mut own = lock_tolerant(&queues[me]);
                            for item in fresh {
                                own.push_back(item);
                            }
                        }
                        *slot = None;
                        drop(slot);
                        pending.fetch_sub(1, Ordering::SeqCst);
                    }
                }));
                if let Err(payload) = caught {
                    // Containment: requeue the in-flight state (its
                    // `pending` count is still held, so termination
                    // accounting stays exact) and hand the dead
                    // worker's deque to survivors.
                    if let Some(item) = lock_tolerant(&inflight[me]).take() {
                        lock_tolerant(&queues[(me + 1) % jobs]).push_back(item);
                    }
                    drain_to_survivors(queues, me);
                    // Injected panics settled their liveness accounting
                    // through `reserve_death` before unwinding (and can
                    // never take the last worker); only genuine `expand`
                    // panics are accounted here.
                    if payload
                        .downcast_ref::<vrm_faults::InjectedPanic>()
                        .is_none()
                        && alive.fetch_sub(1, Ordering::SeqCst) == 1
                    {
                        all_dead.store(true, Ordering::SeqCst);
                        abort.store(true, Ordering::SeqCst);
                    }
                }
                emits
            }));
        }
        for h in handles {
            if let Ok(mut e) = h.join() {
                all_emits.append(&mut e);
            }
        }
    });

    if all_dead.load(Ordering::SeqCst) {
        return None;
    }
    let mut stats = ExploreStats {
        states: visited.fresh.load(Ordering::Relaxed),
        frontier_peak: frontier_peak.load(Ordering::Relaxed),
        dedup_hits: dedup_hits.load(Ordering::Relaxed),
        popped: popped.load(Ordering::Relaxed),
        pushed: pushed.load(Ordering::Relaxed),
        steals: steals.load(Ordering::Relaxed),
        wall_ns: saturating_ns(start.elapsed()),
        jobs,
        completeness: Completeness::Exhaustive,
    };
    OBS_POPPED.add(stats.popped as u64);
    OBS_PUSHED.add(stats.pushed as u64);
    OBS_DEDUP.add(stats.dedup_hits as u64);
    OBS_STEALS.add(stats.steals as u64);
    if let Some(o) = obs {
        o.finish("explore.parallel");
    }
    let resume = lock_tolerant(&trunc).take().map(|reason| {
        let mut parked: Vec<(SP::State, usize)> = Vec::new();
        for q in &queues {
            parked.extend(lock_tolerant(q).drain(..));
        }
        parked.append(&mut lock_tolerant(&deep));
        parked.extend(
            inflight
                .iter()
                .filter_map(|slot| lock_tolerant(slot).take()),
        );
        stats.completeness = Completeness::Truncated {
            reason,
            frontier_len: parked.len(),
        };
        let mut map = HashMap::new();
        for shard in &visited.shards {
            map.extend(lock_tolerant(shard).drain());
        }
        ResumeState {
            frontier: parked.into_iter().map(|(s, d)| (s, d, 0)).collect(),
            visited: map,
        }
    });
    Some(Exploration {
        emits: all_emits,
        stats,
        resume,
    })
}

/// An embarrassingly parallel sweep over the index space `0..total`.
///
/// The range is cut into chunks; `work` folds one chunk into a partial
/// result; the partials come back in chunk order, so a deterministic
/// merge gives identical results for any `jobs`. With `jobs <= 1` the
/// whole range is one chunk processed inline — exactly the loop the
/// caller would have written. Used for enumerations that are a product
/// space rather than a frontier: axiomatic execution candidates,
/// per-execution condition sweeps.
///
/// Chunks not yet started when the deadline passes are skipped and
/// reported as truncation in the returned stats (`frontier_len` counts
/// the skipped chunks) — never an error; `work` itself is infallible,
/// so callers carry their own error/truncation state inside `T`.
pub fn partition<T, F>(total: u64, cfg: &ExploreConfig, work: F) -> (Vec<T>, ExploreStats)
where
    T: Send,
    F: Fn(std::ops::Range<u64>) -> T + Sync,
{
    let start = Instant::now();
    let _span = vrm_obs::span!("explore.partition", total = total, jobs = cfg.jobs);
    if cfg.jobs <= 1 || total < 2 {
        let expired = cfg.deadline.is_some_and(|d| start.elapsed() > d);
        let (out, completeness) = if expired {
            (
                Vec::new(),
                Completeness::Truncated {
                    reason: TruncationReason::Deadline,
                    frontier_len: 1,
                },
            )
        } else {
            OBS_CHUNKS.add(1);
            (vec![work(0..total)], Completeness::Exhaustive)
        };
        let stats = ExploreStats {
            states: if expired { 0 } else { total as usize },
            frontier_peak: 1,
            wall_ns: saturating_ns(start.elapsed()),
            jobs: 1,
            completeness,
            ..Default::default()
        };
        return (out, stats);
    }
    let jobs = cfg.jobs;
    // Over-split so fast workers can take more chunks (dynamic load
    // balancing without a scheduler).
    let chunks = (jobs as u64 * 8).min(total);
    let chunk_len = total.div_ceil(chunks);
    let next = AtomicU64::new(0);
    let deadline = cfg.deadline;
    let slots: Vec<Mutex<Option<T>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let next = &next;
            let slots = &slots;
            let work = &work;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= chunks {
                    break;
                }
                if let Some(d) = deadline {
                    if start.elapsed() > d {
                        // Leave the slot empty: a skipped chunk is
                        // truncation, counted by the collector below.
                        continue;
                    }
                }
                if vrm_faults::poll(Site::Sequential) == Some(FaultKind::Delay) {
                    std::thread::sleep(FAULT_DELAY);
                }
                // Both ends clamped: `div_ceil` rounding can leave the
                // trailing chunks entirely past `total`, so `lo` may
                // exceed it (the range is then empty).
                let lo = (i * chunk_len).min(total);
                let hi = ((i + 1) * chunk_len).min(total);
                let r = work(lo..hi);
                *lock_tolerant(&slots[i as usize]) = Some(r);
            });
        }
    });
    let mut out = Vec::with_capacity(chunks as usize);
    let mut skipped = 0usize;
    let mut covered = 0u64;
    for (i, slot) in slots.into_iter().enumerate() {
        let i = i as u64;
        match slot.into_inner().unwrap_or_else(|p| p.into_inner()) {
            Some(t) => {
                out.push(t);
                covered += ((i + 1) * chunk_len).min(total) - (i * chunk_len).min(total);
            }
            None => skipped += 1,
        }
    }
    let completeness = if skipped == 0 {
        Completeness::Exhaustive
    } else {
        Completeness::Truncated {
            reason: TruncationReason::Deadline,
            frontier_len: skipped,
        }
    };
    OBS_CHUNKS.add(chunks - skipped as u64);
    let stats = ExploreStats {
        states: covered as usize,
        frontier_peak: chunks as usize,
        wall_ns: saturating_ns(start.elapsed()),
        jobs,
        completeness,
        ..Default::default()
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};

    /// The n-bit hypercube: states are bitmasks, each expansion sets one
    /// more bit, terminal state is all-ones. 2^n states, heavily
    /// redundant paths — a good dedup workout.
    struct Bits {
        n: u32,
    }

    impl StateSpace for Bits {
        type State = u64;
        type Emit = u64;

        fn initial(&self) -> Vec<u64> {
            vec![0]
        }

        fn expand(&self, state: &u64, sink: &mut Sink<u64, u64>) {
            if *state == (1u64 << self.n) - 1 {
                sink.emit(*state);
                return;
            }
            for b in 0..self.n {
                if state & (1 << b) == 0 {
                    sink.push(state | (1 << b));
                }
            }
        }
    }

    /// A linear chain 0 → 1 → … → len, emitting each state.
    struct Chain {
        len: u64,
    }

    impl StateSpace for Chain {
        type State = u64;
        type Emit = u64;

        fn initial(&self) -> Vec<u64> {
            vec![0]
        }

        fn expand(&self, state: &u64, sink: &mut Sink<u64, u64>) {
            sink.emit(*state);
            if *state < self.len {
                sink.push(state + 1);
            }
        }
    }

    /// A chain that halts the walk at `stop`.
    struct HaltingChain {
        len: u64,
        stop: u64,
    }

    impl StateSpace for HaltingChain {
        type State = u64;
        type Emit = u64;

        fn initial(&self) -> Vec<u64> {
            vec![0]
        }

        fn expand(&self, state: &u64, sink: &mut Sink<u64, u64>) {
            sink.emit(*state);
            if *state == self.stop {
                sink.halt();
                return;
            }
            if *state < self.len {
                sink.push(state + 1);
            }
        }
    }

    /// A chain whose every expansion burns real wall time — the
    /// deadline-granularity regression harness.
    struct SlowChain {
        len: u64,
        step: Duration,
    }

    impl StateSpace for SlowChain {
        type State = u64;
        type Emit = u64;

        fn initial(&self) -> Vec<u64> {
            vec![0]
        }

        fn expand(&self, state: &u64, sink: &mut Sink<u64, u64>) {
            std::thread::sleep(self.step);
            sink.emit(*state);
            if *state < self.len {
                sink.push(state + 1);
            }
        }
    }

    /// A hypercube with one poisoned state whose FIRST expansion
    /// panics; later expansions succeed. Exercises containment +
    /// requeue: the walk must still be exhaustive.
    struct PoisonOnce {
        n: u32,
        poison: u64,
        fired: AtomicBool,
    }

    impl StateSpace for PoisonOnce {
        type State = u64;
        type Emit = u64;

        fn initial(&self) -> Vec<u64> {
            vec![0]
        }

        fn expand(&self, state: &u64, sink: &mut Sink<u64, u64>) {
            if *state == self.poison && !self.fired.swap(true, Ordering::SeqCst) {
                panic!("poisoned state {state:#x}");
            }
            if *state == (1u64 << self.n) - 1 {
                sink.emit(*state);
                return;
            }
            for b in 0..self.n {
                if state & (1 << b) == 0 {
                    sink.push(state | (1 << b));
                }
            }
        }
    }

    /// A space whose poisoned state ALWAYS panics: it serially kills
    /// every worker that touches it, so the parallel driver loses them
    /// all.
    struct PoisonAlways;

    impl StateSpace for PoisonAlways {
        type State = u64;
        type Emit = u64;

        fn initial(&self) -> Vec<u64> {
            vec![0]
        }

        fn expand(&self, state: &u64, sink: &mut Sink<u64, u64>) {
            if *state == 3 {
                panic!("always-poisoned state");
            }
            if *state < 8 {
                sink.push(state + 1);
            }
        }
    }

    fn emit_set(e: &Exploration<u64, u64>) -> BTreeSet<u64> {
        e.emits.iter().copied().collect()
    }

    fn exhaustive_emits<SP: StateSpace<State = u64, Emit = u64>>(space: &SP) -> BTreeSet<u64> {
        let r = explore(space, &ExploreConfig::default(), None);
        assert!(r.stats.completeness.is_exhaustive());
        emit_set(&r)
    }

    #[test]
    fn hypercube_is_fully_explored_sequentially() {
        let space = Bits { n: 10 };
        let r = explore(&space, &ExploreConfig::default(), None);
        assert_eq!(r.stats.states, 1 << 10);
        assert_eq!(r.emits, vec![(1 << 10) - 1]);
        assert!(r.stats.completeness.is_exhaustive());
        assert!(r.resume.is_none());
        assert!(r.stats.dedup_hits > 0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let space = Bits { n: 12 };
        let seq = explore(&space, &ExploreConfig::default(), None);
        for jobs in [2, 4, 8] {
            let par = explore(&space, &ExploreConfig::default().jobs(jobs), None);
            assert_eq!(par.stats.states, seq.stats.states, "jobs={jobs}");
            assert_eq!(emit_set(&par), emit_set(&seq), "jobs={jobs}");
            assert!(par.stats.completeness.is_exhaustive());
            assert!(par.resume.is_none());
        }
    }

    #[test]
    fn work_counters_are_deterministic_across_drivers() {
        // For a full walk: every visited state is popped and expanded
        // exactly once, every non-initial visited state was pushed
        // exactly once, and dedup hits are total successors minus fresh
        // ones — all independent of scheduling, hence identical for the
        // sequential and any parallel run. Steals and timings are the
        // scheduling-dependent remainder and are deliberately excluded.
        if std::env::var("VRM_FAULT_SEED").is_ok() {
            // An injected worker death requeues (and later re-pops) its
            // in-flight state, so pop counts legitimately drift under
            // fault injection.
            return;
        }
        let space = Bits { n: 10 };
        let seq = explore(&space, &ExploreConfig::default(), None);
        assert_eq!(seq.stats.popped, 1 << 10);
        assert_eq!(seq.stats.pushed, (1 << 10) - 1);
        assert_eq!(seq.stats.steals, 0);
        for jobs in [2, 4] {
            let par = explore(&space, &ExploreConfig::default().jobs(jobs), None);
            assert_eq!(par.stats.popped, seq.stats.popped, "jobs={jobs}");
            assert_eq!(par.stats.pushed, seq.stats.pushed, "jobs={jobs}");
            assert_eq!(par.stats.dedup_hits, seq.stats.dedup_hits, "jobs={jobs}");
        }
    }

    /// The reference walker the drivers are checked against: a plain
    /// LIFO worklist over a `HashSet`, with no budgets, resume, tracing,
    /// faults or reduction. Returns the emission set and the number of
    /// distinct states.
    fn reference_walk<SP: StateSpace>(space: &SP) -> (BTreeSet<SP::Emit>, usize)
    where
        SP::Emit: Ord,
    {
        let mut visited = HashSet::new();
        let mut stack = Vec::new();
        for s in space.initial() {
            if visited.insert(s.clone()) {
                stack.push(s);
            }
        }
        let mut emits = BTreeSet::new();
        let mut sink = Sink::new();
        while let Some(s) = stack.pop() {
            space.expand(&s, &mut sink);
            emits.extend(sink.emits.drain(..));
            for next in sink.succ.drain(..) {
                if visited.insert(next.clone()) {
                    stack.push(next);
                }
            }
        }
        (emits, visited.len())
    }

    /// A space with real reduction hooks: `counters` independent
    /// processes that each count to `limit` touching only their own
    /// token, plus `racers` identical processes that each increment a
    /// shared register non-atomically (load, then store), so the final
    /// register value depends on the interleaving. Process ids start at
    /// `first_id`; the racers are symmetric, and `symmetric` says
    /// whether the space reports it. Terminal states emit themselves.
    struct Procs {
        counters: usize,
        racers: usize,
        limit: u8,
        first_id: usize,
        symmetric: bool,
    }

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct ProcState {
        counts: Vec<u8>,
        /// Per racer: `(pc, register)`; `pc` 2 means done.
        racers: Vec<(u8, u8)>,
        shared: u8,
    }

    /// The footprint token of the shared register.
    const SHARED: u64 = 1 << 32;

    /// Every distinct arrangement of `v`.
    fn arrangements<T: Clone + Ord>(v: &[T]) -> BTreeSet<Vec<T>> {
        if v.len() <= 1 {
            return BTreeSet::from([v.to_vec()]);
        }
        let mut out = BTreeSet::new();
        for i in 0..v.len() {
            let mut rest = v.to_vec();
            let head = rest.remove(i);
            for mut tail in arrangements(&rest) {
                tail.insert(0, head.clone());
                out.insert(tail);
            }
        }
        out
    }

    impl StateSpace for Procs {
        type State = ProcState;
        type Emit = ProcState;

        fn initial(&self) -> Vec<ProcState> {
            vec![ProcState {
                counts: vec![0; self.counters],
                racers: vec![(0, 0); self.racers],
                shared: 0,
            }]
        }

        fn expand(&self, s: &ProcState, sink: &mut Sink<ProcState, ProcState>) {
            let enabled = self.enabled(s);
            if enabled.is_empty() {
                sink.emit(s.clone());
            }
            for p in enabled {
                self.expand_proc(s, p, sink);
            }
        }

        fn enabled(&self, s: &ProcState) -> Vec<usize> {
            let counters = (0..self.counters).filter(|&i| s.counts[i] < self.limit);
            let racers = (0..self.racers)
                .filter(|&i| s.racers[i].0 < 2)
                .map(|i| self.counters + i);
            counters.chain(racers).map(|i| self.first_id + i).collect()
        }

        fn expand_proc(&self, s: &ProcState, p: usize, sink: &mut Sink<ProcState, ProcState>) {
            let mut next = s.clone();
            match (p - self.first_id).checked_sub(self.counters) {
                None => next.counts[p - self.first_id] += 1,
                Some(i) => match next.racers[i] {
                    (0, _) => next.racers[i] = (1, s.shared),
                    (_, reg) => {
                        next.racers[i] = (2, reg);
                        next.shared = reg + 1;
                    }
                },
            }
            sink.push(next);
        }

        fn now(&self, s: &ProcState, p: usize) -> Footprint {
            let mut fp = Footprint::empty();
            match (p - self.first_id).checked_sub(self.counters) {
                None => fp.write(p as u64),
                Some(i) if s.racers[i].0 == 0 => fp.read(SHARED),
                Some(_) => fp.write(SHARED),
            }
            fp
        }

        fn future(&self, s: &ProcState, p: usize) -> Footprint {
            let mut fp = self.now(s, p);
            if fp.reads.contains(&SHARED) {
                fp.write(SHARED);
            }
            fp
        }

        fn canon(&self, s: &ProcState) -> Option<ProcState> {
            let mut c = s.clone();
            c.racers.sort();
            (self.symmetric && c != *s).then_some(c)
        }

        fn orbit(&self, s: &ProcState) -> Vec<ProcState> {
            if !self.symmetric {
                return Vec::new();
            }
            arrangements(&s.racers)
                .into_iter()
                .filter(|r| *r != s.racers)
                .map(|racers| ProcState {
                    racers,
                    ..s.clone()
                })
                .collect()
        }
    }

    /// Forwards every hook to `inner`, counting whole-state expansions.
    struct Counted<'a, SP> {
        inner: &'a SP,
        expands: AtomicUsize,
    }

    impl<SP: StateSpace> StateSpace for Counted<'_, SP> {
        type State = SP::State;
        type Emit = SP::Emit;

        fn initial(&self) -> Vec<SP::State> {
            self.inner.initial()
        }

        fn expand(&self, s: &SP::State, sink: &mut Sink<SP::State, SP::Emit>) {
            self.expands.fetch_add(1, Ordering::Relaxed);
            self.inner.expand(s, sink);
        }

        fn enabled(&self, s: &SP::State) -> Vec<usize> {
            self.inner.enabled(s)
        }

        fn expand_proc(&self, s: &SP::State, p: usize, sink: &mut Sink<SP::State, SP::Emit>) {
            self.inner.expand_proc(s, p, sink);
        }

        fn now(&self, s: &SP::State, p: usize) -> Footprint {
            self.inner.now(s, p)
        }

        fn future(&self, s: &SP::State, p: usize) -> Footprint {
            self.inner.future(s, p)
        }

        fn canon(&self, s: &SP::State) -> Option<SP::State> {
            self.inner.canon(s)
        }

        fn orbit(&self, s: &SP::State) -> Vec<SP::State> {
            self.inner.orbit(s)
        }
    }

    fn procs(first_id: usize) -> Procs {
        Procs {
            counters: 2,
            racers: 3,
            limit: 2,
            first_id,
            symmetric: true,
        }
    }

    /// Every driver, reduced or not, emits the reference walker's set;
    /// an unreduced walk expands each popped state exactly once, and
    /// pops exactly the reference walker's states.
    fn check_against_reference<SP>(name: &str, space: &SP)
    where
        SP: StateSpace,
        SP::Emit: Ord + std::fmt::Debug,
    {
        let exact = std::env::var("VRM_FAULT_SEED").is_err();
        let (want, states) = reference_walk(space);
        for jobs in [1usize, 2, 4] {
            for reduction in [false, true] {
                let counted = Counted {
                    inner: space,
                    expands: AtomicUsize::new(0),
                };
                let cfg = ExploreConfig::default().jobs(jobs).reduction(reduction);
                let r = explore(&counted, &cfg, None);
                let at = format!("{name} jobs={jobs} reduction={reduction}");
                assert!(r.stats.completeness.is_exhaustive(), "{at}");
                let got: BTreeSet<SP::Emit> = r.emits.into_iter().collect();
                assert_eq!(got, want, "{at}");
                if !reduction && exact {
                    assert_eq!(r.stats.states, states, "{at}");
                    assert_eq!(r.stats.popped, states, "{at}");
                    assert_eq!(counted.expands.into_inner(), r.stats.popped, "{at}");
                }
            }
        }
    }

    #[test]
    fn drivers_match_the_reference_walker() {
        check_against_reference("bits", &Bits { n: 8 });
        check_against_reference("chain", &Chain { len: 50 });
        check_against_reference("procs", &procs(0));
        check_against_reference("procs past the sleep mask", &procs(64));
        check_against_reference(
            "procs without symmetry",
            &Procs {
                symmetric: false,
                ..procs(0)
            },
        );
    }

    #[test]
    fn hookless_spaces_expand_each_state_once_under_reduction() {
        let space = Bits { n: 8 };
        let counted = Counted {
            inner: &space,
            expands: AtomicUsize::new(0),
        };
        let r = explore(&counted, &ExploreConfig::default().reduction(true), None);
        assert_eq!(r.stats.popped, 256);
        assert_eq!(counted.expands.into_inner(), 256);
    }

    #[test]
    fn reduction_prunes_the_hooked_space() {
        let (_, states) = reference_walk(&procs(0));
        // Ids past the sleep mask are never slept; ample sets and
        // symmetry still prune.
        for first_id in [0, 64] {
            let cfg = ExploreConfig::default().reduction(true);
            let popped = explore(&procs(first_id), &cfg, None).stats.popped;
            assert!(
                popped * 2 < states,
                "ids from {first_id}: {popped} of {states}"
            );
        }
    }

    /// Walks `space` reduced in legs from a first budget of `budget`,
    /// doubling it each leg, the legs alternating between the worker
    /// counts in `jobs` (the first parks, the second resumes, and so
    /// on). Returns the emission set, the legs' summed `states` and
    /// `popped`, and whether a parked checkpoint held a non-zero sleep
    /// mask.
    fn resume_legs(
        space: &Procs,
        budget: usize,
        jobs: [usize; 2],
    ) -> (BTreeSet<ProcState>, usize, usize, bool) {
        let mut cfg = ExploreConfig::with_max_states(budget).reduction(true);
        let (mut got, mut states, mut popped, mut masked) = (BTreeSet::new(), 0, 0, false);
        let mut resume = None;
        for leg in 0.. {
            assert!(leg < 100, "{jobs:?} from {budget}: did not converge");
            cfg.jobs = jobs[leg % 2];
            let r = explore(space, &cfg, resume.take());
            got.extend(r.emits);
            states += r.stats.states;
            popped += r.stats.popped;
            let Some(ckpt) = r.resume else {
                assert!(r.stats.completeness.is_exhaustive());
                break;
            };
            masked |= ckpt.visited.values().any(|&m| m != 0);
            resume = Some(ckpt);
            cfg.max_states *= 2;
        }
        (got, states, popped, masked)
    }

    #[test]
    fn truncated_reduced_walks_resume_to_the_same_outcomes() {
        // Symmetry wakes every process it relabels, so only the
        // asymmetric `procs` parks sequential checkpoints that hold
        // sleep masks; the mixed pairs resume those on the parallel
        // driver, and parallel ones on the sequential driver.
        for space in [
            procs(0),
            Procs {
                symmetric: false,
                ..procs(0)
            },
        ] {
            let (want, _) = reference_walk(&space);
            let fresh = explore(&space, &ExploreConfig::default().reduction(true), None).stats;
            let mut masked = false;
            for jobs in [[1, 1], [2, 2], [4, 4], [1, 2], [1, 4], [2, 1], [4, 1]] {
                for budget in [1, 3, 7, 20] {
                    let at = format!(
                        "symmetric={}, jobs {jobs:?}, first budget {budget}",
                        space.symmetric
                    );
                    let (got, states, popped, m) = resume_legs(&space, budget, jobs);
                    masked |= m;
                    assert_eq!(got, want, "{at}");
                    if jobs == [1, 1] {
                        // The legs continue one walk: none is walked twice.
                        assert_eq!((states, popped), (fresh.states, fresh.popped), "{at}");
                    }
                }
            }
            assert!(space.symmetric || masked, "no checkpoint held a sleep mask");
        }
    }

    #[test]
    fn state_budget_truncates_with_partial_results_sequential() {
        let space = Chain { len: 1_000 };
        let r = explore(&space, &ExploreConfig::with_max_states(10), None);
        assert_eq!(
            r.stats.completeness,
            Completeness::Truncated {
                reason: TruncationReason::StateLimit,
                frontier_len: 1,
            }
        );
        assert!(
            r.stats.states >= 10 && r.stats.states < 20,
            "{}",
            r.stats.states
        );
        assert!(!r.emits.is_empty(), "partial results must be returned");
        let resume = r.resume.expect("truncated run must carry a checkpoint");
        assert_eq!(resume.frontier.len(), 1);
        assert_eq!(resume.visited.len(), r.stats.states);
    }

    #[test]
    fn state_budget_truncates_under_contention() {
        let space = Bits { n: 12 };
        let cfg = ExploreConfig {
            max_states: 100,
            jobs: 4,
            ..Default::default()
        };
        let r = explore(&space, &cfg, None);
        assert!(
            matches!(
                r.stats.completeness,
                Completeness::Truncated {
                    reason: TruncationReason::StateLimit,
                    ..
                }
            ),
            "{:?}",
            r.stats.completeness
        );
        // Workers race past the limit by at most ~one expansion each.
        assert!(r.stats.states >= 100 && r.stats.states < 100 + 4 * 16);
        assert!(r.resume.is_some());
    }

    #[test]
    fn truncated_emits_are_subset_of_exhaustive() {
        let space = Bits { n: 8 };
        let full: BTreeSet<u64> = {
            // Emit every state instead of just the terminal one.
            struct AllBits {
                n: u32,
            }
            impl StateSpace for AllBits {
                type State = u64;
                type Emit = u64;
                fn initial(&self) -> Vec<u64> {
                    vec![0]
                }
                fn expand(&self, state: &u64, sink: &mut Sink<u64, u64>) {
                    sink.emit(*state);
                    for b in 0..self.n {
                        if state & (1 << b) == 0 {
                            sink.push(state | (1 << b));
                        }
                    }
                }
            }
            let all = AllBits { n: 8 };
            let full = exhaustive_emits(&all);
            for max in [1usize, 5, 17, 60, 200] {
                for jobs in [1usize, 4] {
                    let cfg = ExploreConfig {
                        max_states: max,
                        jobs,
                        ..Default::default()
                    };
                    let part = explore(&all, &cfg, None);
                    let got = emit_set(&part);
                    assert!(
                        got.is_subset(&full),
                        "truncated emits must be a subset (max={max}, jobs={jobs})"
                    );
                }
            }
            full
        };
        assert_eq!(full.len(), 256);
        let _ = space;
    }

    #[test]
    fn depth_limit_prunes_but_keeps_walking() {
        let space = Bits { n: 8 };
        let cfg = ExploreConfig {
            max_depth: Some(3),
            ..Default::default()
        };
        let r = explore(&space, &cfg, None);
        // All states of popcount <= 3 expanded, popcount-4 states
        // visited-but-pruned; the walk does not stop at first pruning.
        match r.stats.completeness {
            Completeness::Truncated {
                reason: TruncationReason::DepthLimit,
                frontier_len,
            } => assert_eq!(frontier_len, 70, "C(8,4) pruned states"),
            other => panic!("expected depth truncation, got {other:?}"),
        }
        let resume = r.resume.unwrap();
        assert_eq!(resume.frontier.len(), 70);
        assert!(resume
            .frontier
            .iter()
            .all(|&(s, d, _)| { s.count_ones() == 4 && d == 4 }));
    }

    #[test]
    fn depth_pruned_walk_resumes_to_exhaustive() {
        let space = Bits { n: 8 };
        let mut first = explore(
            &space,
            &ExploreConfig {
                max_depth: Some(3),
                ..Default::default()
            },
            None,
        );
        let resumed = explore(&space, &ExploreConfig::default(), first.resume.take());
        assert!(resumed.stats.completeness.is_exhaustive());
        let mut all = emit_set(&first);
        all.extend(resumed.emits.iter().copied());
        assert_eq!(all, BTreeSet::from([255u64]));
        // Fresh states only: the two runs partition the space.
        assert_eq!(first.stats.states + resumed.stats.states, 256);
    }

    #[test]
    fn zero_deadline_truncates_both_drivers() {
        for jobs in [1usize, 4] {
            let space = Bits { n: 14 };
            let cfg = ExploreConfig {
                deadline: Some(Duration::ZERO),
                jobs,
                ..Default::default()
            };
            let r = explore(&space, &cfg, None);
            match r.stats.completeness {
                Completeness::Truncated {
                    reason: TruncationReason::Deadline,
                    ..
                } => {}
                other => panic!("jobs={jobs}: expected deadline truncation, got {other:?}"),
            }
            assert!(r.stats.states <= 32, "jobs={jobs}: {}", r.stats.states);
        }
    }

    #[test]
    fn slow_expansions_do_not_overshoot_deadline() {
        // Regression: the old driver polled the clock every 64
        // expansions, so a 3ms-per-step space overshot a 1ms deadline
        // by ~190ms. The adaptive poller must stop within a few steps.
        let space = SlowChain {
            len: 10_000,
            step: Duration::from_millis(3),
        };
        let cfg = ExploreConfig::default().deadline(Duration::from_millis(1));
        let r = explore(&space, &cfg, None);
        assert!(
            matches!(
                r.stats.completeness,
                Completeness::Truncated {
                    reason: TruncationReason::Deadline,
                    ..
                }
            ),
            "{:?}",
            r.stats.completeness
        );
        assert!(
            r.stats.states < 10,
            "deadline overshot by {} slow expansions",
            r.stats.states
        );
    }

    #[test]
    fn completed_walk_ignores_generous_deadline() {
        let space = Bits { n: 8 };
        let cfg = ExploreConfig::default().deadline(Duration::from_secs(3600));
        let r = explore(&space, &cfg, None);
        assert_eq!(r.stats.states, 256);
        assert!(r.stats.completeness.is_exhaustive());
    }

    #[test]
    fn halt_stops_early_but_is_exhaustive() {
        for jobs in [1usize, 4] {
            let space = HaltingChain {
                len: 100_000,
                stop: 10,
            };
            let cfg = ExploreConfig {
                jobs,
                ..Default::default()
            };
            let r = explore(&space, &cfg, None);
            assert!(r.emits.contains(&10), "jobs={jobs}");
            assert!(r.stats.states < 100_000, "jobs={jobs}");
            // A halt is an intentional stop, not a budget truncation.
            assert!(r.stats.completeness.is_exhaustive(), "jobs={jobs}");
            assert!(r.resume.is_none(), "jobs={jobs}");
        }
    }

    #[test]
    fn resume_reproduces_exhaustive_outcome_set() {
        // Truncate, then resume (possibly several rounds); the union of
        // emissions must equal the single exhaustive run's, at every
        // jobs level, and no state may be visited twice.
        struct AllBits {
            n: u32,
        }
        impl StateSpace for AllBits {
            type State = u64;
            type Emit = u64;
            fn initial(&self) -> Vec<u64> {
                vec![0]
            }
            fn expand(&self, state: &u64, sink: &mut Sink<u64, u64>) {
                sink.emit(*state);
                for b in 0..self.n {
                    if state & (1 << b) == 0 {
                        sink.push(state | (1 << b));
                    }
                }
            }
        }
        let space = AllBits { n: 9 };
        let full = exhaustive_emits(&space);
        for jobs in [1usize, 2, 4] {
            let mut cfg = ExploreConfig {
                max_states: 40,
                jobs,
                ..Default::default()
            };
            let mut got: BTreeSet<u64> = BTreeSet::new();
            let mut total_states = 0usize;
            let mut resume = None;
            let mut rounds = 0;
            loop {
                let r = explore(&space, &cfg, resume.take());
                got.extend(r.emits.iter().copied());
                total_states += r.stats.states;
                rounds += 1;
                assert!(rounds < 200, "jobs={jobs}: did not converge");
                if r.stats.completeness.is_exhaustive() {
                    break;
                }
                resume = r.resume;
                assert!(
                    resume.is_some(),
                    "jobs={jobs}: truncated without checkpoint"
                );
                cfg.max_states = cfg.max_states.saturating_mul(2);
            }
            assert_eq!(got, full, "jobs={jobs}");
            assert_eq!(total_states, 512, "jobs={jobs}: states revisited or lost");
        }
    }

    #[test]
    fn sealed_images_reject_every_corruption() {
        const MAGIC: &[u8; 8] = b"VRMTEST1";
        let mut body = MAGIC.to_vec();
        body.push(9);
        body.extend_from_slice(&0xbeefu16.to_le_bytes());
        body.extend_from_slice(&7u32.to_le_bytes());
        body.extend_from_slice(&u64::MAX.to_le_bytes());
        body.extend_from_slice(&digest128(&1u64).to_le_bytes());
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(b"ok");
        let good = seal(body.clone());
        assert_eq!(good.len(), body.len() + CHECKPOINT_FOOTER_LEN);
        let mut c = unseal(&good, MAGIC).expect("an intact image unseals");
        assert_eq!(c.u8(), Some(9));
        assert_eq!(c.u16(), Some(0xbeef));
        assert_eq!(c.u32(), Some(7));
        assert_eq!(c.u64(), Some(u64::MAX));
        assert_eq!(c.u128(), Some(digest128(&1u64)));
        assert_eq!(c.str(), Some("ok"));
        assert!(c.is_empty());
        assert_eq!(c.u8(), None, "reads past the end fail");
        let mut not_utf8 = Cursor::new(&[1, 0, 0, 0, 0xff]);
        assert_eq!(not_utf8.str(), None);

        let fault = |bytes: &[u8]| match unseal(bytes, MAGIC) {
            Ok(_) => panic!("a mangled image unsealed"),
            Err(ExploreError::CorruptCheckpoint(f)) => f,
        };
        // Any flipped bit anywhere in the body trips the checksum: the
        // footer is verified before any field is read.
        for byte in 0..body.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert_eq!(
                    fault(&bad),
                    CheckpointFault::ChecksumMismatch,
                    "byte {byte} bit {bit}"
                );
            }
        }
        // Clipped at every length, or grown by a byte: rejected.
        for cut in 0..good.len() {
            let f = fault(&good[..cut]);
            assert!(
                matches!(
                    f,
                    CheckpointFault::Truncated
                        | CheckpointFault::LengthMismatch
                        | CheckpointFault::ChecksumMismatch
                ),
                "cut={cut}: {f:?}"
            );
        }
        assert_eq!(fault(&good[..4]), CheckpointFault::Truncated);
        assert_eq!(fault(&[]), CheckpointFault::Truncated);
        let mut long = good.clone();
        long.push(0);
        fault(&long);
        // A corrupt footer is caught too.
        let mut bad_footer = good.clone();
        *bad_footer.last_mut().expect("non-empty") ^= 0xff;
        assert_eq!(fault(&bad_footer), CheckpointFault::ChecksumMismatch);
        // An intact image of another format, or of another version of
        // this one, is refused on its magic.
        let mut other = body;
        other[7] = b'0';
        assert_eq!(fault(&seal(other)), CheckpointFault::BadMagic);
    }

    #[test]
    fn truncation_reason_tags_are_stable() {
        use TruncationReason::*;
        let tagged: Vec<(u8, TruncationReason)> = (0..=u8::MAX)
            .filter_map(|t| Some((t, TruncationReason::from_tag(t)?)))
            .collect();
        assert_eq!(
            tagged,
            [
                (0, StateLimit),
                (1, DepthLimit),
                (2, Deadline),
                (4, WorkerLost)
            ]
        );
        for (t, r) in tagged {
            assert_eq!(r.tag(), t);
        }
    }

    #[test]
    fn verdict_merge_is_worst_wins() {
        let unk = Verdict::Unknown {
            coverage: Coverage {
                states: 10,
                frontier_len: 2,
                reason: TruncationReason::StateLimit,
            },
        };
        assert_eq!(Verdict::Pass.merge(Verdict::Pass), Verdict::Pass);
        assert_eq!(Verdict::Pass.merge(Verdict::Fail), Verdict::Fail);
        assert_eq!(Verdict::Fail.merge(unk), Verdict::Fail);
        assert_eq!(unk.merge(Verdict::Fail), Verdict::Fail);
        // The soundness clause: Unknown merged with Pass stays Unknown
        // in both orders — a cache can never launder partial coverage
        // into a Pass.
        assert_eq!(Verdict::Pass.merge(unk), unk);
        assert_eq!(unk.merge(Verdict::Pass), unk);
        // Unknown + Unknown sums coverage.
        match unk.merge(unk) {
            Verdict::Unknown { coverage } => {
                assert_eq!(coverage.states, 20);
                assert_eq!(coverage.frontier_len, 4);
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        // Exit-code image agrees with the verdict lattice.
        for a in [Verdict::Pass, Verdict::Fail, unk] {
            for b in [Verdict::Pass, Verdict::Fail, unk] {
                assert_eq!(
                    Verdict::merge_exit_codes(a.exit_code(), b.exit_code()),
                    a.merge(b).exit_code(),
                    "{a:?} + {b:?}"
                );
            }
        }
        // Usage errors dominate everything but FAIL.
        assert_eq!(Verdict::merge_exit_codes(2, 3), 2);
        assert_eq!(Verdict::merge_exit_codes(0, 2), 2);
        assert_eq!(Verdict::merge_exit_codes(2, 1), 1);
    }

    #[test]
    fn digests_are_stable_and_collision_resistant_enough() {
        assert_eq!(digest128(&42u64), digest128(&42u64));
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(digest128(&i)), "digest collision at {i}");
        }
    }

    #[test]
    fn one_shot_worker_panic_is_contained() {
        let space = PoisonOnce {
            n: 10,
            poison: 0b101,
            fired: AtomicBool::new(false),
        };
        let r = explore(&space, &ExploreConfig::default().jobs(4), None);
        // One worker died, survivors absorbed its queue AND the
        // in-flight poisoned state: the walk is still exhaustive.
        assert_eq!(r.stats.states, 1 << 10);
        assert_eq!(r.emits, vec![(1 << 10) - 1]);
        assert!(r.stats.completeness.is_exhaustive());
    }

    #[test]
    fn losing_all_workers_is_an_error() {
        let r = parallel(&PoisonAlways, &ExploreConfig::default().jobs(4), None);
        assert!(r.is_none(), "expected every worker lost, got {r:?}");
    }

    #[test]
    fn retry_falls_back_to_sequential_after_worker_panic() {
        // PoisonOnce's panic fires exactly once, so survivors absorb it.
        // Here state 2 panics twice: it kills both parallel workers, and
        // `explore` must rerun the walk on the sequential driver.
        struct PanicFirstN {
            left: AtomicUsize,
        }
        impl StateSpace for PanicFirstN {
            type State = u64;
            type Emit = u64;
            fn initial(&self) -> Vec<u64> {
                vec![0]
            }
            fn expand(&self, state: &u64, sink: &mut Sink<u64, u64>) {
                if *state == 2 {
                    let mut cur = self.left.load(Ordering::SeqCst);
                    while cur > 0 {
                        match self.left.compare_exchange(
                            cur,
                            cur - 1,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        ) {
                            Ok(_) => panic!("transient poison"),
                            Err(observed) => cur = observed,
                        }
                    }
                }
                sink.emit(*state);
                if *state < 20 {
                    sink.push(state + 1);
                }
            }
        }
        let space = PanicFirstN {
            left: AtomicUsize::new(2),
        };
        let r = explore(&space, &ExploreConfig::default().jobs(2), None);
        assert!(r.stats.completeness.is_exhaustive());
        assert_eq!(r.stats.jobs, 1, "the rerun is sequential");
        let got: BTreeSet<u64> = r.emits.iter().copied().collect();
        assert_eq!(got.len(), 21);
    }

    #[test]
    fn partition_matches_inline_fold() {
        let total = 10_000u64;
        let expect: u64 = (0..total).map(|i| i * i % 9973).sum();
        for jobs in [1usize, 4] {
            let cfg = ExploreConfig {
                jobs,
                ..Default::default()
            };
            let (parts, stats) = partition(total, &cfg, |range| {
                range.map(|i| i * i % 9973).sum::<u64>()
            });
            assert_eq!(parts.iter().sum::<u64>(), expect, "jobs={jobs}");
            assert_eq!(stats.states, total as usize, "jobs={jobs}");
            assert!(stats.completeness.is_exhaustive(), "jobs={jobs}");
        }
    }

    #[test]
    fn partition_handles_empty_tail_chunks() {
        // With jobs=4 the space is over-split into 32 chunks; totals
        // where div_ceil rounds up (33 → chunk_len 2) leave trailing
        // chunks entirely past `total`. Those must contribute empty
        // ranges and zero coverage, not underflow.
        let cfg = ExploreConfig {
            jobs: 4,
            ..Default::default()
        };
        for total in [1u64, 7, 31, 33, 63, 100] {
            let (parts, stats) = partition(total, &cfg, |range| range.sum::<u64>());
            assert_eq!(
                parts.iter().sum::<u64>(),
                (0..total).sum::<u64>(),
                "total={total}"
            );
            assert_eq!(stats.states, total as usize, "total={total}");
            assert!(stats.completeness.is_exhaustive(), "total={total}");
        }
    }

    #[test]
    fn partition_skips_chunks_past_deadline() {
        let cfg = ExploreConfig {
            jobs: 4,
            deadline: Some(Duration::ZERO),
            ..Default::default()
        };
        let (parts, stats) = partition(10_000, &cfg, |range| range.count());
        assert!(parts.is_empty(), "all chunks must be skipped: {parts:?}");
        match stats.completeness {
            Completeness::Truncated {
                reason: TruncationReason::Deadline,
                frontier_len,
            } => assert!(frontier_len > 0),
            other => panic!("expected deadline truncation, got {other:?}"),
        }
        assert_eq!(stats.states, 0);
    }

    #[test]
    fn jobs_env_parsing() {
        // Only checks the fallback path: don't mutate the environment
        // (tests run in parallel threads).
        if std::env::var("VRM_JOBS").is_err() {
            assert_eq!(ExploreConfig::jobs_from_env(), 1);
        }
    }

    #[test]
    fn stats_absorb_combines_and_truncation_is_sticky() {
        let mut a = ExploreStats {
            states: 10,
            frontier_peak: 4,
            dedup_hits: 2,
            popped: 10,
            pushed: 9,
            steals: 0,
            wall_ns: 100,
            jobs: 1,
            completeness: Completeness::Exhaustive,
        };
        let b = ExploreStats {
            states: 5,
            frontier_peak: 9,
            dedup_hits: 1,
            popped: 5,
            pushed: 4,
            steals: 2,
            wall_ns: 50,
            jobs: 4,
            completeness: Completeness::Truncated {
                reason: TruncationReason::Deadline,
                frontier_len: 3,
            },
        };
        a.absorb(&b);
        assert_eq!(a.states, 15);
        assert_eq!(a.frontier_peak, 9);
        assert_eq!(a.dedup_hits, 3);
        assert_eq!(a.popped, 15);
        assert_eq!(a.pushed, 13);
        assert_eq!(a.steals, 2);
        assert_eq!(a.wall_ns, 100);
        assert_eq!(a.jobs, 4);
        assert_eq!(
            a.completeness,
            Completeness::Truncated {
                reason: TruncationReason::Deadline,
                frontier_len: 3,
            }
        );
        // Absorbing an exhaustive run does not launder the truncation.
        a.absorb(&ExploreStats::default());
        assert!(a.completeness.is_truncated());
    }

    #[test]
    fn completeness_merge_is_truncation_sticky() {
        let t1 = Completeness::Truncated {
            reason: TruncationReason::StateLimit,
            frontier_len: 2,
        };
        let t2 = Completeness::Truncated {
            reason: TruncationReason::Deadline,
            frontier_len: 5,
        };
        let mut c = Completeness::Exhaustive;
        c.merge(t1);
        assert_eq!(c, t1);
        c.merge(Completeness::Exhaustive);
        assert_eq!(c, t1, "exhaustive must not overwrite truncation");
        c.merge(t2);
        assert_eq!(
            c,
            Completeness::Truncated {
                reason: TruncationReason::StateLimit,
                frontier_len: 7,
            },
            "first reason wins, frontiers add"
        );
    }

    #[test]
    fn verdict_from_parts_honours_truncation() {
        let full = ExploreStats {
            states: 100,
            ..Default::default()
        };
        assert_eq!(Verdict::from_parts(true, &full), Verdict::Pass);
        assert_eq!(Verdict::from_parts(false, &full), Verdict::Fail);
        let cut = ExploreStats {
            states: 100,
            completeness: Completeness::Truncated {
                reason: TruncationReason::StateLimit,
                frontier_len: 7,
            },
            ..Default::default()
        };
        for holds in [true, false] {
            match Verdict::from_parts(holds, &cut) {
                Verdict::Unknown { coverage } => {
                    assert_eq!(coverage.states, 100);
                    assert_eq!(coverage.frontier_len, 7);
                    assert_eq!(coverage.reason, TruncationReason::StateLimit);
                }
                other => panic!("truncated walk yielded {other:?} (holds={holds})"),
            }
        }
    }

    #[test]
    fn verdict_exit_codes_and_display() {
        assert_eq!(Verdict::Pass.exit_code(), 0);
        assert_eq!(Verdict::Fail.exit_code(), 1);
        let u = Verdict::Unknown {
            coverage: Coverage {
                states: 12,
                frontier_len: 3,
                reason: TruncationReason::Deadline,
            },
        };
        assert_eq!(u.exit_code(), 3);
        let s = format!("{u}");
        assert!(s.starts_with("UNKNOWN"), "{s}");
        assert!(s.contains("12 states"), "{s}");
        assert!(s.contains("deadline"), "{s}");
        assert_eq!(format!("{}", Verdict::Pass), "PASS");
        assert_eq!(format!("{}", Verdict::Fail), "FAIL");
    }

    #[test]
    fn verdict_merge_unknowns_sum_coverage_and_keep_left_reason() {
        // Two walks stopped by *different* budgets: the evidence is
        // additive (both walks' states were really visited) while the
        // reason is positional — the left side names the merged stop.
        let a = Verdict::Unknown {
            coverage: Coverage {
                states: 10,
                frontier_len: 2,
                reason: TruncationReason::StateLimit,
            },
        };
        let b = Verdict::Unknown {
            coverage: Coverage {
                states: 7,
                frontier_len: 5,
                reason: TruncationReason::Deadline,
            },
        };
        match a.merge(b) {
            Verdict::Unknown { coverage } => {
                assert_eq!(coverage.states, 17);
                assert_eq!(coverage.frontier_len, 7);
                assert_eq!(coverage.reason, TruncationReason::StateLimit);
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        match b.merge(a) {
            Verdict::Unknown { coverage } => {
                assert_eq!(coverage.states, 17);
                assert_eq!(coverage.frontier_len, 7);
                assert_eq!(coverage.reason, TruncationReason::Deadline);
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn fail_evidence_dominates_truncated_unknowns() {
        // A counterexample is sound evidence even when every other leg
        // was budget-starved: Fail merged with an Unknown *derived from
        // a real truncated run* stays Fail in both orders. This is the
        // shape a differential fuzzer hits constantly — one model leg
        // truncates (Unknown), the conformance check on the finished
        // legs finds a genuine disagreement (Fail); the merged batch
        // verdict must surface the disagreement, not dilute it.
        let cut = ExploreStats {
            states: 3,
            completeness: Completeness::Truncated {
                reason: TruncationReason::StateLimit,
                frontier_len: 11,
            },
            ..Default::default()
        };
        let unknown = Verdict::from_parts(true, &cut);
        assert!(unknown.is_unknown());
        assert_eq!(Verdict::Fail.merge(unknown), Verdict::Fail);
        assert_eq!(unknown.merge(Verdict::Fail), Verdict::Fail);
        assert_eq!(Verdict::merge_exit_codes(1, 3), 1);
        assert_eq!(Verdict::merge_exit_codes(3, 1), 1);
        // A starved walk that visited *nothing* still reports Unknown
        // with zero-state coverage — never Pass by vacuity.
        let empty = ExploreStats {
            states: 0,
            completeness: Completeness::Truncated {
                reason: TruncationReason::StateLimit,
                frontier_len: 1,
            },
            ..Default::default()
        };
        match Verdict::from_parts(true, &empty) {
            Verdict::Unknown { coverage } => assert_eq!(coverage.states, 0),
            other => panic!("empty truncated walk yielded {other:?}"),
        }
    }

    #[test]
    fn merge_exit_codes_edge_cases() {
        // Identity on agreeing codes.
        assert_eq!(Verdict::merge_exit_codes(0, 0), 0);
        assert_eq!(Verdict::merge_exit_codes(3, 3), 3);
        assert_eq!(Verdict::merge_exit_codes(1, 1), 1);
        assert_eq!(Verdict::merge_exit_codes(2, 2), 2);
        // Unknown beats pass both ways.
        assert_eq!(Verdict::merge_exit_codes(0, 3), 3);
        assert_eq!(Verdict::merge_exit_codes(3, 0), 3);
        // Codes outside the convention rank as usage errors: above
        // unknown, below fail, and the *left* code survives a tie so a
        // specific nonstandard code is not rewritten to 2.
        assert_eq!(Verdict::merge_exit_codes(5, 3), 5);
        assert_eq!(Verdict::merge_exit_codes(5, 2), 5);
        assert_eq!(Verdict::merge_exit_codes(2, 5), 2);
        assert_eq!(Verdict::merge_exit_codes(5, 1), 1);
    }

    #[test]
    fn deadline_poller_goes_dense_near_the_deadline() {
        let mut p = DeadlinePoller::new(Instant::now(), Duration::from_millis(50));
        // Burn fast iterations: stride should grow past 1.
        let mut calls = 0u64;
        while calls < 100_000 && !p.expired() {
            calls += 1;
        }
        assert!(p.stride > 1, "poller never widened its stride");
        // A poller whose deadline passed must report it promptly.
        let mut q = DeadlinePoller::new(Instant::now(), Duration::ZERO);
        assert!(q.expired());
    }
}
