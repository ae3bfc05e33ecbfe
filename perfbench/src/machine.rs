//! The `machine` workload: every-schedule walks of the SeKVM machine.
//!
//! `Machine::explore_schedules` and `Machine::check_refinement` over the
//! registered `unmap` and `mirror` workloads, default config (reduction
//! on). Few, huge, expensive states: `sekvm` step, clone and digest,
//! symmetry canon and the refinement projection do the work; memmodel is
//! not on the path.
//!
//! The walks are timed in process CPU time (`stats::cpu_timed`) and run
//! at jobs=1. At jobs=2 on a 2-vCPU host that loses time to steal, the
//! first `unmap` walk of a process moved between 450 and 750 ms of CPU
//! time and peak RSS grew with the number of rounds a run fitted in, so
//! `miss_ms_p50` and `peak_rss_mb` spread by 0.52 and 0.22 (IQR over
//! median) over five seeds, beyond any bound the benchmark may set.
//!
//! One round is six checks: `unmap` schedules and refinement twice each,
//! `mirror` schedules and refinement once each. `unmap` is the cheap
//! check (~0.5 s, against ~2.8 s for `mirror`), and the
//! 2:1 weight puts the median inside the `unmap` cluster and p90 inside
//! the `mirror` cluster instead of on the boundary between them, where
//! one sample more or less would swing the figure.

use vrm_explore::{ExploreStats, Verdict};
use vrm_sekvm::machine::{ExhaustiveConfig, Machine, Script};
use vrm_sekvm::KCoreConfig;

use crate::inputs::Rng;
use crate::known;
use crate::stats::{cpu_timed, Op, OpClass, OpKind};
use crate::{peak_rss_mb, spans, whole_rounds, Args, RunOut, SETUP_REPS};

/// Worker threads for every walk: the sequential driver.
pub const JOBS: usize = 1;

/// Set-ups per timed set-up sample. One set-up takes microseconds, about
/// what reading the process CPU clock costs, so a sample times a batch.
const SETUP_BATCH: u32 = 200;

/// One set-up sample: the round's checks, and the CPU seconds one set-up
/// took, averaged over a batch.
fn sample_setup(args: &Args) -> (Result<Vec<MCheck>, String>, f64) {
    let (r, took) = cpu_timed(|| {
        let mut r = setup(args);
        for _ in 1..SETUP_BATCH {
            r = setup(args);
        }
        r
    });
    (r, took.as_secs_f64() / f64::from(SETUP_BATCH))
}

/// One machine check.
#[derive(Clone)]
pub struct MCheck {
    /// Registered workload name.
    pub workload: &'static str,
    /// `check_refinement` rather than `explore_schedules`.
    pub refine: bool,
    scripts: Vec<Script>,
}

impl MCheck {
    /// Runs the walk: verdict, stats and refinement violations.
    pub fn run(&self) -> Result<(Verdict, ExploreStats, usize), String> {
        let ecfg = ExhaustiveConfig {
            jobs: JOBS,
            ..ExhaustiveConfig::default()
        };
        let cfg = KCoreConfig::default();
        if self.refine {
            let _s = spans::span("sekvm.check_refinement");
            Machine::check_refinement(cfg, self.scripts.clone(), &ecfg)
                .map(|r| (r.verdict(), r.stats, r.violations.len()))
                .map_err(|e| format!("check_refinement {}: {e}", self.workload))
        } else {
            let _s = spans::span("sekvm.explore_schedules");
            Machine::explore_schedules(cfg, self.scripts.clone(), &ecfg)
                .map(|r| (r.verdict(), r.stats, 0))
                .map_err(|e| format!("explore_schedules {}: {e}", self.workload))
        }
    }
}

/// Builds one round's checks in a seeded order: everything the walks
/// need before the first of them starts. Each walk boots its own `KCore`
/// (`sekvm.boot_us` times that).
pub fn setup(args: &Args) -> Result<Vec<MCheck>, String> {
    let mut round = Vec::new();
    for (workload, copies) in [("unmap", 2), ("mirror", 1)] {
        let scripts = vrm_sekvm::workloads::by_name(workload)
            .ok_or(format!("unregistered machine workload {workload:?}"))?;
        for _ in 0..copies {
            for refine in [false, true] {
                round.push(MCheck {
                    workload,
                    refine,
                    scripts: scripts.clone(),
                });
            }
        }
    }
    Rng::new(args.seed, 2).shuffle(&mut round);
    Ok(round)
}

/// The timed run: whole rounds for `args.seconds`. A check's first run
/// is a miss, its repeats hits (recomputed: nothing caches in-process).
///
/// Set-up is sampled before the first check and again after every check,
/// and `setup_s` is the median of all samples. Within a process the
/// samples cluster tightly, but the cluster moved by up to 50% between
/// the start and the end of one run as the host's load changed; samples
/// spread over the run see the same host the checks see.
pub fn run(args: &Args) -> Result<RunOut, String> {
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut round = Vec::new();
    for _ in 0..SETUP_REPS {
        let (r, took) = sample_setup(args);
        round = r?;
        setup_times.push(took);
    }
    let mut out = RunOut::default();
    let mut seen: Vec<(&str, bool)> = Vec::new();
    let (mut states, mut frontier_peak, mut walk_s) = (0usize, 0usize, 0f64);
    whole_rounds(args.seconds, |_| {
        for c in &round {
            let key = (c.workload, c.refine);
            let kind = if seen.contains(&key) {
                OpKind::Hit
            } else {
                seen.push(key);
                OpKind::Miss
            };
            let (res, latency) = cpu_timed(|| c.run());
            let class = match &res {
                Ok((v, st, viol)) => match known::judge_machine(c.workload, v, st.states, *viol) {
                    Ok(()) => OpClass::Ok,
                    Err(e) => OpClass::Wrong(e),
                },
                Err(e) => OpClass::Error(e.clone()),
            };
            out.ledger.ops.push(Op {
                kind,
                latency,
                class,
                decided: res.as_ref().is_ok_and(|(v, _, _)| !v.is_unknown()),
                exec: None,
            });
            if let Ok((_, st, _)) = res {
                states += st.states;
                frontier_peak = frontier_peak.max(st.frontier_peak);
                walk_s += latency.as_secs_f64();
            }
            setup_times.push(sample_setup(args).1);
        }
    });
    out.setup_s = crate::stats::median(&setup_times).unwrap_or(0.0);
    // Verdicts per CPU-second of checking: see `stats::cpu_timed`.
    out.timed_s = walk_s;
    out.peak_rss_mb = peak_rss_mb("self");
    out.layer.insert("explore.states", states as f64);
    out.layer
        .insert("explore.frontier_peak", frontier_peak as f64);
    out.layer
        .insert("explore.states_per_s", states as f64 / walk_s.max(1e-9));
    out.layer
        .insert("sekvm.ms_per_state", walk_s * 1e3 / states.max(1) as f64);
    Ok(out)
}
