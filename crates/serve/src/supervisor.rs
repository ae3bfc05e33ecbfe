//! Process-tier worker supervision: fork/exec a worker per job,
//! enforce a wall-clock deadline, and convert every failure mode into
//! a degraded verdict instead of a daemon outage.
//!
//! The supervisor's state machine, per job:
//!
//! ```text
//!            spawn ──────────────► running
//!                                    │
//!        ┌─────────────┬─────────────┼──────────────┐
//!        ▼             ▼             ▼              ▼
//!   done line     error line     crash/garbage   deadline hit
//!        │             │             │              │ grace, then SIGKILL
//!        ▼             ▼             ▼              ▼
//!    verdict     Err (exit 2,   retry with      Unknown{WorkerLost}
//!   + checkpoint  no retry)     backoff ≤N      (no retry: a hang
//!                                │              would just repeat)
//!                                ▼
//!                        budget exhausted →
//!                        Unknown{WorkerLost}
//! ```
//!
//! A deterministic error line (unparsable program, unknown name) is
//! *not* retried — the registry will answer the same way every time.
//! A crash (nonzero exit without a usable line, an injected
//! [`vrm_faults::FaultKind::WorkerKill`], spawn failure) is retried
//! with exponential backoff up to [`WorkerIsolation::restarts`]; a
//! hang is killed once and never retried. Both exhaustion paths
//! degrade to `Unknown` with
//! [`vrm_explore::TruncationReason::WorkerLost`] — a sound "don't
//! know", never a wrong verdict and never a hang, counted on
//! `serve/worker_lost`.

use std::io::{Read, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use vrm_explore::{Coverage, TruncationReason, Verdict};
use vrm_obs::json::{self, Json, ObjWriter};
use vrm_obs::serve as names;
use vrm_obs::Counter;

use crate::job::{JobConfig, JobResult, JobSpec};
use crate::protocol::parse_reply;
use crate::worker::{from_hex, to_hex};

/// Supervision policy for out-of-process job execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerIsolation {
    /// The worker command line; empty means the daemon's own binary
    /// re-invoked in `worker` mode (the production configuration —
    /// overriding it is how the supervision tests substitute
    /// pathological workers like `sleep`).
    pub worker_cmd: Vec<String>,
    /// Per-job wall-clock deadline; a worker still running past it is
    /// given [`grace`](Self::grace) and then SIGKILLed.
    pub deadline: Duration,
    /// Extra time after the deadline before the SIGKILL lands, so a
    /// worker mid-answer can finish its write.
    pub grace: Duration,
    /// Crash retries before the job degrades to `Unknown{WorkerLost}`.
    pub restarts: u32,
    /// First retry delay; doubles per attempt.
    pub backoff_base: Duration,
    /// **Always `false` in production**; `true` is the
    /// `serve-supervisor-ignores-deadline` mutant, under which a hung
    /// worker is waited on forever — the outage this module exists to
    /// prevent, which the mutation campaign detects as a timeout.
    pub ignore_deadline: bool,
}

impl Default for WorkerIsolation {
    fn default() -> Self {
        WorkerIsolation {
            worker_cmd: Vec::new(),
            deadline: Duration::from_secs(30),
            grace: Duration::from_millis(500),
            restarts: 2,
            backoff_base: Duration::from_millis(50),
            ignore_deadline: false,
        }
    }
}

/// The submit-shaped line the supervisor feeds a worker's stdin,
/// extended with the hex checkpoint when one is resumed.
fn job_line(spec: &JobSpec, cfg: &JobConfig, resume: Option<&[u8]>) -> String {
    let mut w = ObjWriter::new();
    w.field_str("op", "submit").field_str("kind", spec.kind());
    match spec {
        JobSpec::Litmus { text } => w.field_str("program", text),
        JobSpec::Wdrf { name } => w.field_str("name", name),
        JobSpec::Schedules { workload } | JobSpec::Refinement { workload } => {
            w.field_str("workload", workload)
        }
    };
    w.field_u64("max_states", cfg.max_states as u64)
        .field_u64("jobs", cfg.jobs as u64);
    if let Some(blob) = resume {
        w.field_str("resume", &to_hex(blob));
    }
    w.finish()
}

/// The degraded result every exhausted supervision path converges to.
fn worker_lost(detail: String, wall_ns: u64) -> JobResult {
    Counter::new(names::WORKER_LOST).add(1);
    JobResult {
        verdict: Verdict::Unknown {
            coverage: Coverage {
                states: 0,
                frontier_len: 0,
                reason: TruncationReason::WorkerLost,
            },
        },
        states: 0,
        states_new: 0,
        wall_ns,
        resumed: false,
        detail,
    }
}

enum Attempt {
    /// The worker answered; result + optional checkpoint blob.
    Done(JobResult, Option<Vec<u8>>),
    /// The worker reported a deterministic protocol error: final.
    Refused(String),
    /// The worker died without a usable answer: retryable.
    Crashed(String),
    /// The worker hung past its deadline and was killed: final.
    Hung,
}

/// Executes one job in a supervised worker process. The signature
/// mirrors [`crate::job::execute_blob`], so the service dispatches to
/// either interchangeably; every supervision failure mode maps onto
/// the same three-valued verdict the in-process path uses.
pub fn execute_isolated(
    iso: &WorkerIsolation,
    spec: &JobSpec,
    cfg: &JobConfig,
    resume_blob: Option<&[u8]>,
) -> Result<(JobResult, Option<Vec<u8>>), String> {
    let started = Instant::now();
    let line = job_line(spec, cfg, resume_blob);
    for attempt in 0..=iso.restarts {
        match run_attempt(iso, &line) {
            Attempt::Done(res, blob) => return Ok((res, blob)),
            Attempt::Refused(e) => return Err(e),
            Attempt::Hung => {
                // No retry: the job itself is pathological, and a
                // second worker would hang exactly the same way.
                return Ok((
                    worker_lost(
                        format!("worker killed after {:?} deadline", iso.deadline),
                        started.elapsed().as_nanos() as u64,
                    ),
                    None,
                ));
            }
            Attempt::Crashed(why) => {
                Counter::new(names::WORKER_CRASHED).add(1);
                if attempt == iso.restarts {
                    return Ok((
                        worker_lost(
                            format!("worker lost after {} attempts: {why}", attempt + 1),
                            started.elapsed().as_nanos() as u64,
                        ),
                        None,
                    ));
                }
                std::thread::sleep(iso.backoff_base * 2u32.saturating_pow(attempt));
            }
        }
    }
    unreachable!("the final attempt returns from the loop");
}

fn run_attempt(iso: &WorkerIsolation, line: &str) -> Attempt {
    let mut cmd = if iso.worker_cmd.is_empty() {
        let exe = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => return Attempt::Crashed(format!("current_exe: {e}")),
        };
        let mut c = Command::new(exe);
        c.arg("worker");
        c
    } else {
        let mut c = Command::new(&iso.worker_cmd[0]);
        c.args(&iso.worker_cmd[1..]);
        c
    };
    let mut child = match cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => return Attempt::Crashed(format!("spawn worker: {e}")),
    };
    Counter::new(names::WORKER_SPAWNED).add(1);
    let injected_kill =
        vrm_faults::poll(vrm_faults::Site::Supervisor) == Some(vrm_faults::FaultKind::WorkerKill);
    if injected_kill {
        // Chaos: the worker dies before it can answer; the crash path
        // below must absorb it.
        let _ = child.kill();
    }
    if let Some(mut stdin) = child.stdin.take() {
        let _ = stdin.write_all(line.as_bytes());
        let _ = stdin.write_all(b"\n");
        // Dropping closes the pipe: a worker that reads to EOF
        // terminates instead of blocking.
    }
    let mut stdout = child.stdout.take().expect("stdout piped");
    let reader = std::thread::spawn(move || {
        let mut buf = String::new();
        let _ = stdout.read_to_string(&mut buf);
        buf
    });
    if wait_with_deadline(iso, &mut child) {
        // Do NOT join the reader here: an orphaned grandchild of the
        // killed worker may hold the stdout pipe open indefinitely
        // (`sh -c 'sleep 30'` leaves `sleep` alive), and the hung
        // path never needs the output anyway. The reader thread
        // drains on its own once every writer is gone.
        drop(reader);
        return Attempt::Hung;
    }
    let output = reader.join().unwrap_or_default();
    parse_attempt(&output)
}

/// Polls the child against the deadline. Returns `true` when the
/// deadline (plus grace) expired and the child was SIGKILLed.
fn wait_with_deadline(iso: &WorkerIsolation, child: &mut Child) -> bool {
    let started = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return false,
            Ok(None) => {}
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                return false;
            }
        }
        if !iso.ignore_deadline && started.elapsed() >= iso.deadline + iso.grace {
            let _ = child.kill();
            let _ = child.wait();
            Counter::new(names::WORKER_KILLED).add(1);
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn parse_attempt(output: &str) -> Attempt {
    let Some(line) = output.lines().next().filter(|l| !l.trim().is_empty()) else {
        return Attempt::Crashed("no output".into());
    };
    let Ok(reply) = parse_reply(line) else {
        return Attempt::Crashed(format!("unparsable worker line: {line:?}"));
    };
    match reply.status.as_str() {
        "done" => {}
        "error" => return Attempt::Refused(reply.detail),
        other => return Attempt::Crashed(format!("unexpected worker status {other:?}")),
    }
    let raw = json::parse(&reply.raw);
    let verdict = match reply.verdict.as_deref() {
        Some("pass") => Verdict::Pass,
        Some("fail") => Verdict::Fail,
        Some("unknown") => {
            let field = |k: &str| {
                raw.as_ref()
                    .and_then(|v| v.get(k).and_then(Json::as_u64))
                    .unwrap_or(0)
            };
            let reason = u8::try_from(field("reason_tag"))
                .ok()
                .and_then(TruncationReason::from_tag)
                .unwrap_or(TruncationReason::WorkerLost);
            Verdict::Unknown {
                coverage: Coverage {
                    states: reply.states as usize,
                    frontier_len: field("frontier_len") as usize,
                    reason,
                },
            }
        }
        other => return Attempt::Crashed(format!("unknown worker verdict {other:?}")),
    };
    let blob = raw
        .as_ref()
        .and_then(|v| v.get("checkpoint").and_then(Json::as_str))
        .and_then(from_hex);
    Attempt::Done(
        JobResult {
            verdict,
            states: reply.states as usize,
            states_new: reply.states_new as usize,
            wall_ns: reply.wall_ns,
            resumed: reply.resumed,
            detail: reply.detail,
        },
        blob,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(iso_script: &str) -> Vec<String> {
        vec!["sh".into(), "-c".into(), iso_script.into()]
    }

    fn spec() -> JobSpec {
        JobSpec::Schedules {
            workload: "unmap".into(),
        }
    }

    fn fast_iso(worker_cmd: Vec<String>) -> WorkerIsolation {
        WorkerIsolation {
            worker_cmd,
            deadline: Duration::from_millis(200),
            grace: Duration::from_millis(50),
            restarts: 1,
            backoff_base: Duration::from_millis(5),
            ignore_deadline: false,
        }
    }

    #[test]
    fn a_hung_worker_is_killed_and_degrades_to_worker_lost() {
        if vrm_faults::armed() {
            // An injected WorkerKill would turn the hang into a crash
            // and void the exact counter assertions below.
            return;
        }
        let killed = Counter::new(names::WORKER_KILLED);
        let lost = Counter::new(names::WORKER_LOST);
        let (k0, l0) = (killed.get(), lost.get());
        let started = Instant::now();
        let (res, blob) = execute_isolated(
            &fast_iso(sh("sleep 30")),
            &spec(),
            &JobConfig::default(),
            None,
        )
        .expect("a hang is a degraded verdict, not an error");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the kill must land near the deadline, not hang"
        );
        match res.verdict {
            Verdict::Unknown { coverage } => {
                assert_eq!(coverage.reason, TruncationReason::WorkerLost)
            }
            v => panic!("expected WorkerLost Unknown, got {v:?}"),
        }
        assert!(blob.is_none());
        assert!(killed.get() > k0, "the kill must be counted");
        assert!(lost.get() > l0);
    }

    #[test]
    fn a_crashing_worker_is_retried_then_degraded() {
        if vrm_faults::armed() {
            return;
        }
        let crashed = Counter::new(names::WORKER_CRASHED);
        let c0 = crashed.get();
        let (res, _) = execute_isolated(
            &fast_iso(sh("exit 7")),
            &spec(),
            &JobConfig::default(),
            None,
        )
        .expect("a crash is a degraded verdict, not an error");
        assert!(res.verdict.is_unknown());
        assert!(
            res.detail.contains("worker lost after 2 attempts"),
            "{}",
            res.detail
        );
        assert!(
            crashed.get() - c0 >= 2,
            "both attempts must count as crashes"
        );
    }

    #[test]
    fn a_fake_done_line_is_accepted_through_the_framing() {
        if vrm_faults::armed() {
            return;
        }
        // Proves the stdio protocol end to end without the real
        // binary: a worker that just echoes a well-formed done line.
        let line = r#"{\"status\":\"done\",\"verdict\":\"pass\",\"exit_code\":0,\"resumed\":false,\"states\":9,\"states_new\":9,\"wall_ns\":1,\"detail\":\"outcomes:1\",\"checkpoint\":\"0102\"}"#;
        let (res, blob) = execute_isolated(
            &fast_iso(sh(&format!("echo \"{line}\""))),
            &spec(),
            &JobConfig::default(),
            None,
        )
        .expect("done line parses");
        assert_eq!(res.verdict, Verdict::Pass);
        assert_eq!(res.states, 9);
        assert_eq!(blob.as_deref(), Some(&[1u8, 2][..]));
    }

    #[test]
    fn an_error_line_is_final_and_not_retried() {
        if vrm_faults::armed() {
            return;
        }
        // Each spawn of the fake worker appends a line to this test's
        // own file: sibling tests spawn workers in parallel, so the
        // process-global spawn counter cannot tell whose spawn it saw.
        let spawns =
            std::env::temp_dir().join(format!("vrm-error-line-spawns-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&spawns);
        let line = r#"{\"status\":\"error\",\"exit_code\":2,\"detail\":\"unknown workload\"}"#;
        let worker = format!("echo spawn >> '{}'; echo \"{line}\"", spawns.display());
        let err = execute_isolated(&fast_iso(sh(&worker)), &spec(), &JobConfig::default(), None)
            .expect_err("an error line is a protocol error");
        assert!(err.contains("unknown workload"));
        let spawned = std::fs::read_to_string(&spawns).map_or(0, |s| s.lines().count());
        let _ = std::fs::remove_file(&spawns);
        assert_eq!(spawned, 1, "deterministic refusals must not be retried");
    }

    #[test]
    fn job_lines_carry_the_resume_blob_in_hex() {
        let line = job_line(
            &spec(),
            &JobConfig {
                max_states: 64,
                jobs: 1,
                escalate: false,
            },
            Some(&[0xde, 0xad]),
        );
        let v = json::parse(&line).expect("job line is JSON");
        assert_eq!(v.get("op").and_then(Json::as_str), Some("submit"));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("schedules"));
        assert_eq!(v.get("workload").and_then(Json::as_str), Some("unmap"));
        assert_eq!(v.get("max_states").and_then(Json::as_u64), Some(64));
        assert_eq!(v.get("resume").and_then(Json::as_str), Some("dead"));
    }
}
