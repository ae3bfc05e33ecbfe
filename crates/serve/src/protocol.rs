//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one (or, for `watch`, several) response
//! line(s) per request, both plain JSON objects over
//! [`vrm_obs::json`]. Full field reference in `docs/SERVE.md`.
//!
//! ## Requests
//!
//! | `op`       | fields                                                                 |
//! |------------|------------------------------------------------------------------------|
//! | `submit`   | `kind` (`litmus`\|`wdrf`\|`schedules`\|`refinement`), `program` (litmus text) *or* `name`/`workload`, optional `max_states`, `jobs`, `escalate`, `wait` (default `true`) |
//! | `poll`     | `job`                                                                  |
//! | `watch`    | `job` — streams status lines until the job finishes                    |
//! | `status`   | —                                                                      |
//! | `shutdown` | —                                                                      |
//!
//! ## Responses
//!
//! Every response carries `status`; finished jobs add `digest`,
//! `verdict` (`pass`/`fail`/`unknown`), `exit_code` (0/1/3; protocol
//! errors use 2), `cached`, `resumed`, `states`, `states_new`,
//! `wall_ns` and `detail`.

use vrm_explore::Verdict;
use vrm_obs::json::{self, Json, ObjWriter};

use crate::digest::hex32;
use crate::job::{JobConfig, JobResult, JobSpec};
use crate::service::{JobId, JobStatus};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a job; when `wait` the connection blocks until the
    /// verdict is ready.
    Submit {
        /// What to verify.
        spec: JobSpec,
        /// Verdict-relevant knobs.
        cfg: JobConfig,
        /// Block until done (the default) instead of returning a
        /// `queued` handle immediately.
        wait: bool,
    },
    /// Ask for a job's current snapshot.
    Poll {
        /// The handle from a non-waiting submit.
        job: JobId,
    },
    /// Stream status lines until the job finishes.
    Watch {
        /// The handle from a non-waiting submit.
        job: JobId,
    },
    /// Daemon health: queue depths, cache sizes, all `serve/*`
    /// counters.
    Status,
    /// Stop accepting work and exit once the queues drain.
    Shutdown,
}

/// Parses one request line. `Err` carries the reason echoed back to
/// the client as a `status:"error"` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).ok_or("malformed JSON")?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field \"op\"")?;
    match op {
        "submit" => {
            let kind = v
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("submit needs string field \"kind\"")?;
            let named = |field: &str| -> Result<String, String> {
                v.get(field)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or(format!("kind {kind:?} needs string field {field:?}"))
            };
            let spec = match kind {
                "litmus" => JobSpec::Litmus {
                    text: named("program")?,
                },
                "wdrf" => JobSpec::Wdrf {
                    name: named("name")?,
                },
                "schedules" => JobSpec::Schedules {
                    workload: named("workload")?,
                },
                "refinement" => JobSpec::Refinement {
                    workload: named("workload")?,
                },
                other => return Err(format!("unknown kind {other:?}")),
            };
            let mut cfg = JobConfig::default();
            if let Some(n) = v.get("max_states").and_then(Json::as_u64) {
                cfg.max_states = n as usize;
            }
            if let Some(n) = v.get("jobs").and_then(Json::as_u64) {
                cfg.jobs = (n as usize).max(1);
            }
            if let Some(Json::Bool(b)) = v.get("escalate") {
                cfg.escalate = *b;
            }
            let wait = match v.get("wait") {
                Some(Json::Bool(b)) => *b,
                _ => true,
            };
            Ok(Request::Submit { spec, cfg, wait })
        }
        "poll" | "watch" => {
            let job = v
                .get("job")
                .and_then(Json::as_u64)
                .ok_or("poll/watch needs numeric field \"job\"")?;
            Ok(if op == "poll" {
                Request::Poll { job }
            } else {
                Request::Watch { job }
            })
        }
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// The wire verdict string.
pub fn verdict_str(v: &Verdict) -> &'static str {
    match v {
        Verdict::Pass => "pass",
        Verdict::Fail => "fail",
        Verdict::Unknown { .. } => "unknown",
    }
}

/// Renders a finished job's response line.
pub fn render_result(digest: u128, job: Option<JobId>, res: &JobResult, cached: bool) -> String {
    let mut w = ObjWriter::new();
    w.field_str("status", "done");
    if let Some(id) = job {
        w.field_u64("job", id);
    }
    w.field_str("digest", &hex32(digest))
        .field_str("verdict", verdict_str(&res.verdict))
        .field_u64("exit_code", res.exit_code() as u64)
        .field_bool("cached", cached)
        .field_bool("resumed", res.resumed)
        .field_u64("states", res.states as u64)
        .field_u64("states_new", res.states_new as u64)
        .field_u64("wall_ns", res.wall_ns)
        .field_str("detail", &res.detail);
    w.finish()
}

/// Renders the handle response of a non-waiting submit.
pub fn render_queued(digest: u128, job: JobId) -> String {
    let mut w = ObjWriter::new();
    w.field_str("status", "queued")
        .field_u64("job", job)
        .field_str("digest", &hex32(digest));
    w.finish()
}

/// Renders an in-flight job's snapshot (poll/watch stream lines).
pub fn render_progress(
    digest: u128,
    job: JobId,
    status: JobStatus,
    states_explored: u64,
) -> String {
    let mut w = ObjWriter::new();
    w.field_str("status", status.as_str())
        .field_u64("job", job)
        .field_str("digest", &hex32(digest))
        .field_u64("states_explored", states_explored);
    w.finish()
}

/// Renders a protocol-level error (`exit_code` 2 — the usage-error
/// code, distinct from a `fail` verdict's 1).
pub fn render_error(detail: &str) -> String {
    let mut w = ObjWriter::new();
    w.field_str("status", "error")
        .field_u64("exit_code", 2)
        .field_str("detail", detail);
    w.finish()
}

/// Renders the `status` op's reply: lanes, cache sizes and every
/// `serve/*` counter (under a `"counters"` object).
pub fn render_status(
    fast: usize,
    slow: usize,
    cache: usize,
    checkpoints: usize,
    counters: &[(&'static str, u64)],
) -> String {
    let mut inner = ObjWriter::new();
    for (name, val) in counters {
        inner.field_u64(name, *val);
    }
    let inner = inner.finish();
    let mut w = ObjWriter::new();
    w.field_str("status", "ok")
        .field_u64("fast_lane", fast as u64)
        .field_u64("slow_lane", slow as u64)
        .field_u64("cache_entries", cache as u64)
        .field_u64("checkpoints", checkpoints as u64)
        .field_raw("counters", &inner);
    w.finish()
}

/// A parsed daemon response, as seen by [`crate::Client`] and the
/// CLI.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reply {
    /// `done`, `queued`, `running`, `ok` or `error`.
    pub status: String,
    /// Job handle, when present.
    pub job: Option<JobId>,
    /// 32-hex content digest, when present.
    pub digest: Option<String>,
    /// `pass`/`fail`/`unknown`, when the job finished.
    pub verdict: Option<String>,
    /// Exit-code image (0/1/3; 2 for protocol errors).
    pub exit_code: Option<i32>,
    /// Whether the answer came from the verdict cache.
    pub cached: bool,
    /// Whether a parked checkpoint was resumed.
    pub resumed: bool,
    /// Total states backing the verdict.
    pub states: u64,
    /// States freshly explored for this query.
    pub states_new: u64,
    /// Execution wall time in nanoseconds.
    pub wall_ns: u64,
    /// Human-oriented detail line.
    pub detail: String,
    /// The raw response line, for fields not lifted here (e.g. the
    /// `status` op's counters object).
    pub raw: String,
}

/// Parses one response line into a [`Reply`].
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let v = json::parse(line).ok_or("malformed response JSON")?;
    let bool_field = |key: &str| matches!(v.get(key), Some(Json::Bool(true)));
    Ok(Reply {
        status: v
            .get("status")
            .and_then(Json::as_str)
            .ok_or("response missing \"status\"")?
            .to_owned(),
        job: v.get("job").and_then(Json::as_u64),
        digest: v.get("digest").and_then(Json::as_str).map(str::to_owned),
        verdict: v.get("verdict").and_then(Json::as_str).map(str::to_owned),
        exit_code: v.get("exit_code").and_then(Json::as_u64).map(|c| c as i32),
        cached: bool_field("cached"),
        resumed: bool_field("resumed"),
        states: v.get("states").and_then(Json::as_u64).unwrap_or(0),
        states_new: v.get("states_new").and_then(Json::as_u64).unwrap_or(0),
        wall_ns: v.get("wall_ns").and_then(Json::as_u64).unwrap_or(0),
        detail: v
            .get("detail")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned(),
        raw: line.to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_request_roundtrip() {
        let line = r#"{"op":"submit","kind":"schedules","workload":"unmap","max_states":512,"jobs":2,"escalate":true,"wait":false}"#;
        let req = parse_request(line).unwrap();
        assert_eq!(
            req,
            Request::Submit {
                spec: JobSpec::Schedules {
                    workload: "unmap".into()
                },
                cfg: JobConfig {
                    max_states: 512,
                    jobs: 2,
                    escalate: true,
                },
                wait: false,
            }
        );
    }

    #[test]
    fn bad_requests_name_their_defect() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"op":"submit"}"#)
            .unwrap_err()
            .contains("kind"));
        assert!(parse_request(r#"{"op":"submit","kind":"litmus"}"#)
            .unwrap_err()
            .contains("program"));
        assert!(parse_request(r#"{"op":"frobnicate"}"#)
            .unwrap_err()
            .contains("unknown op"));
    }

    #[test]
    fn deeply_nested_lines_are_malformed_json() {
        let line = format!(r#"{{"op":"status","x":{}}}"#, "[".repeat(1_000_000));
        assert_eq!(parse_request(&line).unwrap_err(), "malformed JSON");
    }

    #[test]
    fn result_lines_roundtrip_through_reply() {
        let res = JobResult {
            verdict: Verdict::Pass,
            states: 42,
            states_new: 40,
            wall_ns: 1234,
            resumed: true,
            detail: "outcomes:3".into(),
        };
        let line = render_result(0xabc, Some(7), &res, false);
        let reply = parse_reply(&line).unwrap();
        assert_eq!(reply.status, "done");
        assert_eq!(reply.job, Some(7));
        assert_eq!(reply.verdict.as_deref(), Some("pass"));
        assert_eq!(reply.exit_code, Some(0));
        assert!(reply.resumed && !reply.cached);
        assert_eq!((reply.states, reply.states_new), (42, 40));
        assert_eq!(
            reply.digest.as_deref(),
            Some(&crate::digest::hex32(0xabc)[..])
        );
    }

    #[test]
    fn error_lines_carry_the_usage_exit_code() {
        let reply = parse_reply(&render_error("unknown kind \"x\"")).unwrap();
        assert_eq!(reply.status, "error");
        assert_eq!(reply.exit_code, Some(2));
        assert!(reply.detail.contains("unknown kind"));
    }
}
