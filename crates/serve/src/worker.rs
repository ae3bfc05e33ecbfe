//! The out-of-process worker: one job over stdio, then exit.
//!
//! `serve worker` reads a single submit-shaped JSON line from stdin
//! (plus an optional `resume` field carrying a hex-encoded VRMSRES2
//! checkpoint), executes it in-process exactly as a daemon worker
//! thread would ([`crate::job::execute_blob`]), writes a single
//! result line to stdout — the [`crate::protocol::render_result`]
//! shape extended with `frontier_len`/`reason_tag` (so an `Unknown`'s
//! coverage survives the process boundary) and a `checkpoint` hex
//! field — and exits with the verdict's code (0 pass / 1 fail /
//! 3 unknown; 2 for protocol errors).
//!
//! The process boundary is the whole point: a pathological generated
//! program that hangs or exhausts memory takes down *this* process,
//! and [`crate::supervisor`] converts the death into a bounded retry
//! or a degraded `Unknown{WorkerLost}` — never a daemon outage.
//!
//! ## Chaos knobs
//!
//! Two environment variables let the supervision tests manufacture
//! pathological workers out of the real binary:
//!
//! | variable | effect |
//! |----------|--------|
//! | `VRM_WORKER_STALL_MS` | sleep this long before executing |
//! | `VRM_WORKER_STALL_MATCH` | only stall when the job line contains this substring |

use std::io::{BufRead, Write};

use vrm_obs::json::{self, Json, ObjWriter};

use crate::job::execute_blob;
use crate::protocol::{parse_request, render_error, verdict_str, Request};

/// Lower-case hex of a byte string (the wire form of checkpoint
/// blobs, chosen over base64 to stay within the workspace's
/// hand-rolled JSON's escape-free ASCII subset).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Inverse of [`to_hex`]; `None` on odd length or a non-hex digit.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

/// Renders the worker's one stdout line for a finished job.
fn render_worker_done(res: &crate::job::JobResult, checkpoint: Option<&[u8]>) -> String {
    let mut w = ObjWriter::new();
    w.field_str("status", "done")
        .field_str("verdict", verdict_str(&res.verdict))
        .field_u64("exit_code", res.exit_code() as u64)
        .field_bool("resumed", res.resumed)
        .field_u64("states", res.states as u64)
        .field_u64("states_new", res.states_new as u64)
        .field_u64("wall_ns", res.wall_ns)
        .field_str("detail", &res.detail);
    if let vrm_explore::Verdict::Unknown { coverage } = &res.verdict {
        w.field_u64("frontier_len", coverage.frontier_len as u64)
            .field_u64(
                "reason_tag",
                crate::store::reason_tag(coverage.reason) as u64,
            );
    }
    if let Some(blob) = checkpoint {
        w.field_str("checkpoint", &to_hex(blob));
    }
    w.finish()
}

fn stall_if_configured(line: &str) {
    let Some(ms) = std::env::var("VRM_WORKER_STALL_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
    else {
        return;
    };
    if let Ok(needle) = std::env::var("VRM_WORKER_STALL_MATCH") {
        if !line.contains(&needle) {
            return;
        }
    }
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

/// The `serve worker` entry point: one job line in on stdin, one
/// result line out on stdout. Returns the process exit code.
pub fn run_worker() -> i32 {
    let stdin = std::io::stdin();
    let mut line = String::new();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let fail = |out: &mut dyn Write, detail: &str| -> i32 {
        let _ = writeln!(out, "{}", render_error(detail));
        let _ = out.flush();
        2
    };
    if stdin.lock().read_line(&mut line).is_err() || line.trim().is_empty() {
        return fail(&mut out, "worker: no job line on stdin");
    }
    stall_if_configured(&line);
    let req = match parse_request(line.trim()) {
        Ok(r) => r,
        Err(e) => return fail(&mut out, &format!("worker: {e}")),
    };
    let Request::Submit { spec, cfg, .. } = req else {
        return fail(&mut out, "worker: expected a submit-shaped job line");
    };
    let resume_blob = json::parse(line.trim())
        .and_then(|v| v.get("resume").and_then(Json::as_str).map(str::to_owned))
        .and_then(|hex| from_hex(&hex));
    match execute_blob(&spec, &cfg, resume_blob.as_deref()) {
        Ok((res, parked)) => {
            let code = res.exit_code();
            let _ = writeln!(out, "{}", render_worker_done(&res, parked.as_deref()));
            let _ = out.flush();
            code
        }
        Err(e) => fail(&mut out, &e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).as_deref(), Some(&bytes[..]));
        assert_eq!(to_hex(&[]), "");
        assert_eq!(from_hex(""), Some(Vec::new()));
        assert!(from_hex("abc").is_none(), "odd length");
        assert!(from_hex("zz").is_none(), "non-hex digit");
    }

    #[test]
    fn worker_done_lines_carry_unknown_coverage() {
        use vrm_explore::{Coverage, TruncationReason, Verdict};
        let res = crate::job::JobResult {
            verdict: Verdict::Unknown {
                coverage: Coverage {
                    states: 40,
                    frontier_len: 7,
                    reason: TruncationReason::StateLimit,
                },
            },
            states: 40,
            states_new: 40,
            wall_ns: 5,
            resumed: false,
            detail: "outcomes:0".into(),
        };
        let line = render_worker_done(&res, Some(&[0xab, 0xcd]));
        let v = json::parse(&line).expect("worker line is JSON");
        assert_eq!(v.get("verdict").and_then(Json::as_str), Some("unknown"));
        assert_eq!(v.get("frontier_len").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("reason_tag").and_then(Json::as_u64), Some(0));
        assert_eq!(v.get("checkpoint").and_then(Json::as_str), Some("abcd"));
    }
}
