//! Known answers: what every check in every workload must return.
//!
//! The table is hand-checked, not recorded from a run:
//!
//! - every committed corpus file PASSes, because its `check` lines are
//!   hand-written expectations;
//! - a generated critical cycle never FAILs: SC ⊆ RM and RM = AX hold
//!   for every program, so only PASS or a budget-truncated UNKNOWN is
//!   possible;
//! - the wDRF catalog at the campaign budget: `example1` and `example3`
//!   PASS, `ticket-lock` is UNKNOWN (its certification search is
//!   budget-bound at any state budget);
//! - every machine check PASSes with no refinement violation, and the
//!   distinct-state counts repeat exactly under reduction: `unmap` 117,
//!   `mirror` 69 (confirmed at jobs=1 and jobs=2).
//!
//! A verdict flip or a count drift is a failed operation.

use vrm_explore::Verdict;

/// What a check must answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// PASS.
    Pass,
    /// UNKNOWN (budget-truncated).
    Unknown,
    /// PASS or UNKNOWN, never FAIL.
    NotFail,
}

impl Expect {
    /// `Err` names the disagreement.
    pub fn judge(self, got: &Verdict) -> Result<(), String> {
        let ok = match self {
            Expect::Pass => matches!(got, Verdict::Pass),
            Expect::Unknown => got.is_unknown(),
            Expect::NotFail => !matches!(got, Verdict::Fail),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("expected {self:?}, got {}", verdict_word(got)))
        }
    }

    /// [`judge`](Self::judge) for a wire verdict (`pass`/`fail`/`unknown`).
    pub fn judge_wire(self, got: &str) -> Result<(), String> {
        let ok = match self {
            Expect::Pass => got == "pass",
            Expect::Unknown => got == "unknown",
            Expect::NotFail => got == "pass" || got == "unknown",
        };
        if ok {
            Ok(())
        } else {
            Err(format!("expected {self:?}, got {got}"))
        }
    }
}

/// `PASS`, `FAIL` or `UNKNOWN`.
pub fn verdict_word(v: &Verdict) -> &'static str {
    match v {
        Verdict::Pass => "PASS",
        Verdict::Fail => "FAIL",
        Verdict::Unknown { .. } => "UNKNOWN",
    }
}

/// A committed corpus file: its `check` lines are hand-written. No
/// workload sends the corpus; the tests hold it to this answer.
#[cfg(test)]
pub const CORPUS: Expect = Expect::Pass;

/// A generated critical cycle.
pub const GENERATED: Expect = Expect::NotFail;

/// The wDRF catalog at the campaign budget.
pub const WDRF: &[(&str, Expect)] = &[
    ("example1", Expect::Pass),
    ("example3", Expect::Pass),
    ("ticket-lock", Expect::Unknown),
];

/// The expected answer for a wDRF catalog name.
pub fn wdrf(name: &str) -> Option<Expect> {
    WDRF.iter().find(|(n, _)| *n == name).map(|(_, e)| *e)
}

/// Distinct states of each registered machine workload under reduction;
/// the schedule walk and the refinement walk visit the same nodes.
pub const MACHINE_STATES: &[(&str, usize)] = &[("unmap", 117), ("mirror", 69)];

/// The exact state count of a machine workload.
pub fn machine_states(workload: &str) -> Option<usize> {
    MACHINE_STATES
        .iter()
        .find(|(n, _)| *n == workload)
        .map(|(_, s)| *s)
}

/// Judges a machine check: PASS, no refinement violation, exact count.
pub fn judge_machine(
    workload: &str,
    verdict: &Verdict,
    states: usize,
    violations: usize,
) -> Result<(), String> {
    Expect::Pass.judge(verdict)?;
    if violations != 0 {
        return Err(format!("{violations} refinement violations"));
    }
    match machine_states(workload) {
        Some(want) if want == states => Ok(()),
        Some(want) => Err(format!("{workload}: {states} states, expected {want}")),
        None => Err(format!("no known answer for machine workload {workload:?}")),
    }
}

#[cfg(test)]
mod tests {
    //! The table must agree with a fresh run of the checkers.
    use super::*;
    use crate::inputs::{self, LitmusItem};
    use vrm_memmodel::runner::{run_litmus, RunOverrides};
    use vrm_sekvm::machine::{ExhaustiveConfig, Machine};
    use vrm_sekvm::KCoreConfig;

    /// Every committed `.litmus` file, parsed.
    fn corpus() -> Vec<LitmusItem> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../litmus");
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("litmus corpus")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
            .collect();
        files.sort();
        files
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).expect("readable corpus file");
                let parsed = vrm_memmodel::parser::parse(&text)
                    .unwrap_or_else(|e| panic!("{}: {e}", p.display()));
                LitmusItem {
                    text,
                    parsed,
                    generated: false,
                }
            })
            .collect()
    }

    #[test]
    fn corpus_and_generated_cycles_match_the_table() {
        let mut items = corpus();
        let mut seen = std::collections::BTreeSet::new();
        items.extend(inputs::generated(&mut inputs::Rng::new(7, 1), 8, &mut seen));
        assert!(items.iter().filter(|i| !i.generated).count() >= 31);
        for item in &items {
            // The pipeline at jobs=1, under the budget the `serve`
            // workload gives generated programs.
            let ov = RunOverrides {
                jobs: Some(1),
                max_states: item.generated.then_some(inputs::GEN_MAX_STATES),
            };
            let run = run_litmus(&item.parsed, &ov).expect("run_litmus");
            let expect = if item.generated { GENERATED } else { CORPUS };
            expect
                .judge(&run.verdict)
                .unwrap_or_else(|e| panic!("{}: {e}", item.parsed.program.name));
        }
    }

    #[test]
    fn wdrf_catalog_matches_the_table() {
        let catalog = vrm_core::paper_examples::wdrf_catalog();
        assert_eq!(catalog.len(), WDRF.len());
        for (name, prog) in catalog {
            let v = inputs::check_wdrf_campaign(&prog).expect("check_wdrf");
            wdrf(name)
                .expect("every catalog entry has a known answer")
                .judge(&v.verdict())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn machine_checks_match_the_table_at_jobs_1_and_2() {
        for jobs in [1, 2] {
            for &(w, _) in MACHINE_STATES {
                let scripts = vrm_sekvm::workloads::by_name(w).expect("registered workload");
                let ecfg = ExhaustiveConfig {
                    jobs,
                    ..ExhaustiveConfig::default()
                };
                let s = Machine::explore_schedules(KCoreConfig::default(), scripts.clone(), &ecfg)
                    .expect("explore_schedules");
                judge_machine(w, &s.verdict(), s.stats.states, 0).expect("schedules");
                let r = Machine::check_refinement(KCoreConfig::default(), scripts, &ecfg)
                    .expect("check_refinement");
                judge_machine(w, &r.verdict(), r.stats.states, r.violations.len())
                    .expect("refinement");
            }
        }
    }

    #[test]
    fn disagreements_are_named() {
        assert!(Expect::Pass.judge(&Verdict::Fail).is_err());
        assert!(Expect::NotFail.judge(&Verdict::Pass).is_ok());
        assert!(Expect::Unknown.judge_wire("pass").is_err());
        assert!(judge_machine("unmap", &Verdict::Pass, 118, 0)
            .unwrap_err()
            .contains("118 states"));
    }
}
